//! Streaming population generator: millions of synthetic athletes
//! under a fixed seed tree.
//!
//! The paper's datasets are paper-scale (hundreds of tracks). The
//! scale experiments need candidate pools up to 10⁶ athletes, which
//! rules out materializing the corpus: the population is generated
//! *shard by shard*, and every shard is a pure function of
//! `(config, shard_index)` — the same discipline `faultsim`'s fault
//! plans use for per-unit decisions.
//!
//! **The seed tree.** Every per-athlete decision hangs off
//! [`exec::mix_seed`] chains rooted at the population seed:
//!
//! ```text
//! seed ─┬─ mix(seed ^ CITY_DOMAIN,    id) → home-city pick
//!       ├─ mix(seed ^ CADENCE_DOMAIN, id) → weekly cadence
//!       └─ mix(mix(seed, city_index), id) → the athlete's whole
//!                                           activity RNG stream
//! ```
//!
//! Because every leaf is addressed by `(city, athlete)` coordinates —
//! never by position in a shared sequential stream — the generator is:
//!
//! - **prefix-stable**: the population with `n` athletes is a strict
//!   prefix of the one with `2n`, so scaling sweeps nest;
//! - **order-free**: shards regenerate bit-identically in any order,
//!   at any thread count (pinned by the `corpus.shard` golden stage
//!   and the shard-regeneration metamorphic invariant);
//! - **random-access**: any athlete's stream extends on demand (the
//!   sweeps draw *probe* activities this way) without touching
//!   anyone else's.

use crate::athlete::{Activity, AthleteConfig, AthleteSimulator};
use durable::Digest;
use terrain::{CityId, SyntheticTerrain};

/// Domain separator for the home-city pick.
const CITY_DOMAIN: u64 = 0xC17E_5EED;
/// Domain separator for the weekly-cadence pick.
const CADENCE_DOMAIN: u64 = 0xCADE_2CE5;

/// Configuration of a synthetic athlete population.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationConfig {
    /// Total number of athletes.
    pub athletes: usize,
    /// Athletes per shard (the unit of regeneration and of parallelism).
    pub shard_size: usize,
    /// Root of the seed tree (also seeds the shared terrain).
    pub seed: u64,
    /// Candidate home metros; athletes are assigned uniformly.
    pub cities: Vec<CityId>,
    /// Per-athlete habit-model configuration.
    pub athlete: AthleteConfig,
    /// Weekly training cadence is drawn from `1..=max_weekly_cadence`;
    /// an athlete contributes that many history activities to the
    /// corpus.
    pub max_weekly_cadence: usize,
}

/// The habit-model knobs the population generator uses by default:
/// leaner than [`AthleteConfig::default`] (fewer anchors, shorter
/// routes) so million-athlete corpora stay affordable, while keeping
/// the favourite-route reuse that makes re-identification work.
pub fn scale_athlete_config() -> AthleteConfig {
    AthleteConfig {
        favorite_reuse_prob: 0.7,
        favorites_per_metro: 2,
        anchors_per_metro: 2,
        length_m_range: (1_200.0, 4_000.0),
        replay_jitter_m: 4.0,
    }
}

impl PopulationConfig {
    /// A population of `athletes` over the paper's ten city-level
    /// metros with [`scale_athlete_config`] habits.
    pub fn new(athletes: usize, seed: u64) -> Self {
        Self {
            athletes,
            shard_size: 1024,
            seed,
            cities: CityId::CITY_LEVEL.to_vec(),
            athlete: scale_athlete_config(),
            max_weekly_cadence: 3,
        }
    }

    /// The shared synthetic terrain every athlete trains on.
    pub fn terrain(&self) -> SyntheticTerrain {
        SyntheticTerrain::new(self.seed)
    }

    /// Number of shards (`⌈athletes / shard_size⌉`).
    pub fn n_shards(&self) -> usize {
        self.athletes.div_ceil(self.shard_size.max(1))
    }

    /// Global athlete-id range of shard `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= n_shards()`.
    pub fn shard_range(&self, index: usize) -> std::ops::Range<u64> {
        assert!(index < self.n_shards(), "shard {index} of {}", self.n_shards());
        let start = index * self.shard_size;
        let end = (start + self.shard_size).min(self.athletes);
        start as u64..end as u64
    }

    /// The habit model of athlete `id` — a pure function of
    /// `(seed, id)`, never of generation history.
    ///
    /// # Panics
    ///
    /// Panics if the config has no cities or a zero cadence bound.
    pub fn habits(&self, id: u64) -> AthleteHabits {
        assert!(!self.cities.is_empty(), "population needs at least one city");
        assert!(self.max_weekly_cadence > 0, "cadence bound must be positive");
        let city_index = (exec::mix_seed(self.seed ^ CITY_DOMAIN, id) % self.cities.len() as u64)
            as usize;
        let weekly_cadence =
            1 + (exec::mix_seed(self.seed ^ CADENCE_DOMAIN, id) % self.max_weekly_cadence as u64)
                as usize;
        AthleteHabits { id, city: self.cities[city_index], city_index, weekly_cadence }
    }

    /// The first `n` activities of athlete `id`'s stream.
    ///
    /// `n = habits.weekly_cadence` reproduces exactly the history
    /// activities [`generate_shard`](Self::generate_shard) emits;
    /// larger `n` extends the same stream (the sweeps use activity
    /// index `weekly_cadence` as the held-out probe).
    pub fn athlete_activities(&self, terrain: &SyntheticTerrain, id: u64, n: usize) -> Vec<Activity> {
        let habits = self.habits(id);
        let mut sim = AthleteSimulator::for_athlete_with_config(
            terrain.clone(),
            self.seed,
            habits.city_index as u64,
            id,
            self.athlete,
        );
        sim.generate(habits.city, n)
    }

    /// Generates one athlete: habits plus their history activities.
    pub fn generate_athlete(&self, terrain: &SyntheticTerrain, id: u64) -> AthleteRecord {
        let habits = self.habits(id);
        let activities = self.athlete_activities(terrain, id, habits.weekly_cadence);
        AthleteRecord { habits, activities }
    }

    /// Generates shard `index` — a pure function of
    /// `(config, index)`, so shards regenerate independently,
    /// bit-identically, in any order.
    ///
    /// # Panics
    ///
    /// Panics if `index >= n_shards()`.
    pub fn generate_shard(&self, terrain: &SyntheticTerrain, index: usize) -> PopulationShard {
        let athletes =
            self.shard_range(index).map(|id| self.generate_athlete(terrain, id)).collect();
        PopulationShard { index, athletes }
    }

    /// FNV-1a-64 fingerprint of the generation-relevant configuration;
    /// feature stores record it so a stale store is never silently
    /// reused for a different population.
    pub fn fingerprint(&self) -> u64 {
        let mut f = Digest::new();
        f.u64(self.athletes as u64).u64(self.shard_size as u64).u64(self.seed);
        f.u64(self.cities.len() as u64);
        for c in &self.cities {
            f.str(c.abbrev());
        }
        f.u64(self.max_weekly_cadence as u64);
        f.f64(self.athlete.favorite_reuse_prob)
            .u64(self.athlete.favorites_per_metro as u64)
            .u64(self.athlete.anchors_per_metro as u64)
            .f64(self.athlete.length_m_range.0)
            .f64(self.athlete.length_m_range.1)
            .f64(self.athlete.replay_jitter_m);
        f.finish()
    }

    /// Like [`fingerprint`](Self::fingerprint) but excluding the
    /// athlete count: two populations that differ only in size share a
    /// prefix fingerprint, because the seed tree makes the smaller one
    /// a bit-identical prefix of the larger. Incremental shard appends
    /// key on this — growing a store must not invalidate it.
    pub fn prefix_fingerprint(&self) -> u64 {
        let mut f = Digest::new();
        f.u64(self.shard_size as u64).u64(self.seed);
        f.u64(self.cities.len() as u64);
        for c in &self.cities {
            f.str(c.abbrev());
        }
        f.u64(self.max_weekly_cadence as u64);
        f.f64(self.athlete.favorite_reuse_prob)
            .u64(self.athlete.favorites_per_metro as u64)
            .u64(self.athlete.anchors_per_metro as u64)
            .f64(self.athlete.length_m_range.0)
            .f64(self.athlete.length_m_range.1)
            .f64(self.athlete.replay_jitter_m);
        f.finish()
    }
}

/// The per-athlete habit model: who they are, where they live, how
/// often they train.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AthleteHabits {
    /// Global athlete id (position in the population).
    pub id: u64,
    /// Home metro.
    pub city: CityId,
    /// Index of the home metro in [`PopulationConfig::cities`].
    pub city_index: usize,
    /// History activities this athlete contributes to the corpus.
    pub weekly_cadence: usize,
}

/// One generated athlete: habits plus history activities.
#[derive(Debug, Clone, PartialEq)]
pub struct AthleteRecord {
    /// The habit model.
    pub habits: AthleteHabits,
    /// The athlete's `weekly_cadence` history activities.
    pub activities: Vec<Activity>,
}

/// One generated population shard.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationShard {
    /// Shard index.
    pub index: usize,
    /// The shard's athletes, in ascending global-id order.
    pub athletes: Vec<AthleteRecord>,
}

impl PopulationShard {
    /// Total activities in the shard.
    pub fn tracks(&self) -> usize {
        self.athletes.iter().map(|a| a.activities.len()).sum()
    }

    /// Total trajectory points in the shard.
    pub fn points(&self) -> usize {
        self.athletes
            .iter()
            .flat_map(|a| &a.activities)
            .map(|act| act.gpx.point_count())
            .sum()
    }

    /// Canonical FNV-1a-64 content fingerprint: athlete ids, habit
    /// models, trajectories and elevation profiles by IEEE-754 bit
    /// pattern. Two shards fingerprint equal only if they are
    /// bit-identical — this is what the order/thread-count invariance
    /// checks compare, and what the `corpus.shard` golden pins.
    pub fn fingerprint(&self) -> u64 {
        let mut f = Digest::new();
        f.u64(self.index as u64).u64(self.athletes.len() as u64);
        for a in &self.athletes {
            f.u64(a.habits.id).str(a.habits.city.abbrev()).u64(a.habits.weekly_cadence as u64);
            f.u64(a.activities.len() as u64);
            for act in &a.activities {
                let traj = act.trajectory();
                f.u64(traj.len() as u64);
                for p in &traj {
                    f.f64(p.lat).f64(p.lon);
                }
                for e in act.elevation_profile() {
                    f.f64(e);
                }
            }
        }
        f.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(athletes: usize) -> PopulationConfig {
        PopulationConfig { shard_size: 4, ..PopulationConfig::new(athletes, 99) }
    }

    #[test]
    fn shard_ranges_tile_the_population() {
        let cfg = tiny(10);
        assert_eq!(cfg.n_shards(), 3);
        assert_eq!(cfg.shard_range(0), 0..4);
        assert_eq!(cfg.shard_range(1), 4..8);
        assert_eq!(cfg.shard_range(2), 8..10);
    }

    #[test]
    fn shards_regenerate_bit_identically() {
        let cfg = tiny(8);
        let terrain = cfg.terrain();
        let a = cfg.generate_shard(&terrain, 1);
        let b = cfg.generate_shard(&terrain, 1);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn habits_cover_cities_and_cadences() {
        let cfg = PopulationConfig::new(200, 5);
        let mut cities = std::collections::BTreeSet::new();
        let mut cadences = std::collections::BTreeSet::new();
        for id in 0..200 {
            let h = cfg.habits(id);
            cities.insert(h.city.abbrev());
            cadences.insert(h.weekly_cadence);
            assert!((1..=cfg.max_weekly_cadence).contains(&h.weekly_cadence));
        }
        assert!(cities.len() >= 8, "only {} cities drawn", cities.len());
        assert_eq!(cadences.len(), cfg.max_weekly_cadence);
    }

    #[test]
    fn activity_stream_extends_as_a_prefix() {
        let cfg = tiny(4);
        let terrain = cfg.terrain();
        let short = cfg.athlete_activities(&terrain, 2, 2);
        let long = cfg.athlete_activities(&terrain, 2, 4);
        assert_eq!(long.len(), 4);
        assert_eq!(&long[..2], &short[..], "probe draws must extend, not re-deal, the stream");
    }

    #[test]
    fn athletes_train_in_their_home_city() {
        let cfg = tiny(6);
        let terrain = cfg.terrain();
        for id in 0..6 {
            let rec = cfg.generate_athlete(&terrain, id);
            assert_eq!(rec.activities.len(), rec.habits.weekly_cadence);
            for act in &rec.activities {
                assert_eq!(act.metro, rec.habits.city);
            }
        }
    }

    #[test]
    fn fingerprint_is_content_sensitive() {
        let cfg = tiny(5);
        let terrain = cfg.terrain();
        let shard = cfg.generate_shard(&terrain, 0);
        let other = PopulationConfig { seed: 100, ..tiny(5) };
        let shard_other = other.generate_shard(&other.terrain(), 0);
        assert_ne!(shard.fingerprint(), shard_other.fingerprint());
        assert_ne!(cfg.fingerprint(), other.fingerprint());
    }

    #[test]
    fn prefix_fingerprint_ignores_size_only() {
        let small = tiny(5);
        let grown = PopulationConfig { athletes: 10, ..tiny(5) };
        assert_eq!(small.prefix_fingerprint(), grown.prefix_fingerprint());
        assert_ne!(small.fingerprint(), grown.fingerprint());
        let reseeded = PopulationConfig { seed: 100, ..tiny(5) };
        assert_ne!(small.prefix_fingerprint(), reseeded.prefix_fingerprint());
    }
}
