//! Pins that nested `Executor::from_env()` maps share one
//! `ELEV_THREADS` budget: a sweep whose tasks map whose tasks map never
//! runs more innermost tasks at once than the budget, whatever the
//! nesting depth.
//!
//! Lives in its own integration-test binary with a single test
//! function, because it sets `ELEV_THREADS` for the whole process.

use exec::{threads_from_env, Executor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

#[test]
fn three_nested_levels_stay_within_the_budget() {
    for budget in [2usize, 4, 9] {
        std::env::set_var("ELEV_THREADS", budget.to_string());
        assert_eq!(threads_from_env(), budget);
        let (active, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let items = [0usize, 1, 2];
        let sums = Executor::from_env().map(&items, |_, &a| {
            Executor::from_env()
                .map(&items, |_, &b| {
                    Executor::from_env()
                        .map(&items, |_, &c| {
                            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            // The bound holds however tasks interleave; the
                            // sleep only lets an oversubscribed pool show it.
                            std::thread::sleep(Duration::from_millis(5));
                            active.fetch_sub(1, Ordering::SeqCst);
                            a * 9 + b * 3 + c
                        })
                        .into_iter()
                        .sum::<usize>()
                })
                .into_iter()
                .sum::<usize>()
        });
        assert_eq!(sums, [36, 117, 198]);
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak <= budget, "{peak} innermost tasks ran at once on a budget of {budget}");
    }
    std::env::remove_var("ELEV_THREADS");
}
