//! Value-generation strategies.

use rand::rngs::StdRng;
use rand::Rng;
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// Generates values of `Self::Value` from an RNG stream.
///
/// Unlike real proptest there is no value tree / shrinking: a strategy
/// simply produces one value per call.
pub trait Strategy {
    /// The generated type.
    type Value: Debug;

    /// Draws one value.
    fn new_value(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { base: self, f }
    }

    /// Generates a value, then draws from the strategy `f` builds
    /// from it.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { base: self, f }
    }

    /// Filters generated values, retrying until `f` accepts one.
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        whence: &'static str,
        f: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter { base: self, whence, f }
    }

    /// Type-erases the strategy (needed by [`crate::prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn new_value(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn new_value(&self, rng: &mut StdRng) -> O {
        (self.f)(self.base.new_value(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn new_value(&self, rng: &mut StdRng) -> S2::Value {
        (self.f)(self.base.new_value(rng)).new_value(rng)
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    base: S,
    whence: &'static str,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn new_value(&self, rng: &mut StdRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.base.new_value(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter `{}` rejected 1000 candidates in a row", self.whence);
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn StrategyObject<Value = T>>);

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn new_value(&self, rng: &mut StdRng) -> T {
        self.0.new_value_obj(rng)
    }
}

trait StrategyObject {
    type Value;
    fn new_value_obj(&self, rng: &mut StdRng) -> Self::Value;
}

impl<S: Strategy> StrategyObject for S {
    type Value = S::Value;

    fn new_value_obj(&self, rng: &mut StdRng) -> S::Value {
        self.new_value(rng)
    }
}

/// Uniform choice between boxed strategies (see [`crate::prop_oneof!`]).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union; panics when `options` is empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Self { options }
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;

    fn new_value(&self, rng: &mut StdRng) -> T {
        let i = rng.gen_range(0..self.options.len());
        self.options[i].new_value(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn new_value(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn new_value(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident . $idx:tt),+)),*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn new_value(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.new_value(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy!(
    (A.0),
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
    (A.0, B.1, C.2, D.3, E.4, F.5),
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6),
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
);

// ---- string patterns -------------------------------------------------

/// `&str` strategies are regex-like patterns of the restricted form
/// `[class]{min,max}` (the only shape this workspace uses), where
/// `class` supports literal characters, `a-z` ranges, and a
/// `&&[^...]` subtraction clause.
impl Strategy for &str {
    type Value = String;

    fn new_value(&self, rng: &mut StdRng) -> String {
        let compiled = CompiledPattern::parse(self);
        let len = if compiled.min_len == compiled.max_len {
            compiled.min_len
        } else {
            rng.gen_range(compiled.min_len..=compiled.max_len)
        };
        (0..len)
            .map(|_| compiled.alphabet[rng.gen_range(0..compiled.alphabet.len())])
            .collect()
    }
}

struct CompiledPattern {
    alphabet: Vec<char>,
    min_len: usize,
    max_len: usize,
}

impl CompiledPattern {
    fn parse(pattern: &str) -> Self {
        let mut chars = pattern.chars().peekable();
        assert_eq!(
            chars.next(),
            Some('['),
            "proptest shim supports only `[class]{{m,n}}` patterns, got `{pattern}`"
        );
        let mut include = Vec::new();
        let mut exclude = Vec::new();
        parse_class(&mut chars, &mut include, pattern, &mut exclude);

        let (min_len, max_len) = match chars.next() {
            None => (1, 1),
            Some('{') => {
                let rest: String = chars.collect();
                let body = rest
                    .strip_suffix('}')
                    .unwrap_or_else(|| panic!("unclosed quantifier in `{pattern}`"));
                match body.split_once(',') {
                    Some((lo, hi)) => (
                        lo.trim().parse().expect("bad quantifier"),
                        hi.trim().parse().expect("bad quantifier"),
                    ),
                    None => {
                        let n = body.trim().parse().expect("bad quantifier");
                        (n, n)
                    }
                }
            }
            Some(other) => panic!("unsupported pattern suffix `{other}` in `{pattern}`"),
        };

        let alphabet: Vec<char> =
            include.into_iter().filter(|c| !exclude.contains(c)).collect();
        assert!(
            !alphabet.is_empty() || max_len == 0,
            "pattern `{pattern}` admits no characters"
        );
        Self { alphabet, min_len, max_len }
    }
}

/// Parses a character class body up to its closing `]`, pushing allowed
/// characters into `include` and subtracted ones into `exclude`.
fn parse_class(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    include: &mut Vec<char>,
    pattern: &str,
    exclude: &mut Vec<char>,
) {
    let mut pending: Option<char> = None;
    loop {
        let c = chars
            .next()
            .unwrap_or_else(|| panic!("unclosed character class in `{pattern}`"));
        match c {
            ']' => {
                if let Some(p) = pending {
                    include.push(p);
                }
                return;
            }
            '&' if chars.peek() == Some(&'&') => {
                if let Some(p) = pending.take() {
                    include.push(p);
                }
                chars.next();
                assert_eq!(chars.next(), Some('['), "expected `[^...]` after `&&`");
                assert_eq!(chars.next(), Some('^'), "expected `[^...]` after `&&`");
                // The subtraction clause: collect into `exclude`, then
                // expect the outer class to close immediately.
                let mut sub_exclude = Vec::new();
                parse_class(chars, exclude, pattern, &mut sub_exclude);
                assert!(sub_exclude.is_empty(), "nested `&&` is unsupported");
                assert_eq!(
                    chars.next(),
                    Some(']'),
                    "expected `]` closing the intersected class in `{pattern}`"
                );
                return;
            }
            '-' if pending.is_some() && chars.peek().is_some_and(|&n| n != ']') => {
                let lo = pending.take().unwrap();
                let hi = chars.next().unwrap();
                assert!(lo <= hi, "inverted range `{lo}-{hi}` in `{pattern}`");
                include.extend((lo..=hi).filter(|c| !c.is_control()));
            }
            '\\' => {
                if let Some(p) = pending.take() {
                    include.push(p);
                }
                pending = Some(
                    chars
                        .next()
                        .unwrap_or_else(|| panic!("dangling escape in `{pattern}`")),
                );
            }
            c => {
                if let Some(p) = pending.take() {
                    include.push(p);
                }
                pending = Some(c);
            }
        }
    }
}

/// `prop::collection`.
pub mod collection {
    use super::{Strategy, StdRng};
    use rand::Rng;
    use std::fmt::Debug;
    use std::ops::{Range, RangeInclusive};

    /// Length specification for [`vec()`], mirroring proptest's
    /// `SizeRange`: a bare `usize` means exactly that length.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi_exclusive: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range for prop::collection::vec");
            Self { lo: r.start, hi_exclusive: r.end }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range for prop::collection::vec");
            Self { lo: *r.start(), hi_exclusive: *r.end() + 1 }
        }
    }

    /// Vectors with element strategy `elem` and length drawn from
    /// `size` (a `usize`, `Range`, or `RangeInclusive`).
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Debug,
    {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..self.size.hi_exclusive);
            (0..len).map(|_| self.elem.new_value(rng)).collect()
        }
    }
}

/// `prop::option`.
pub mod option {
    use super::{Strategy, StdRng};
    use rand::Rng;
    use std::fmt::Debug;

    /// `None` a quarter of the time, `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S>
    where
        S::Value: Debug,
    {
        type Value = Option<S::Value>;

        fn new_value(&self, rng: &mut StdRng) -> Option<S::Value> {
            if rng.gen_bool(0.25) {
                None
            } else {
                Some(self.inner.new_value(rng))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn ranges_generate_in_bounds() {
        let mut r = rng();
        for _ in 0..500 {
            let v = (3u32..9).new_value(&mut r);
            assert!((3..9).contains(&v));
            let f = (-1.5f64..2.5).new_value(&mut r);
            assert!((-1.5..2.5).contains(&f));
        }
    }

    #[test]
    fn printable_ascii_pattern() {
        let mut r = rng();
        for _ in 0..200 {
            let s = "[ -~]{0,24}".new_value(&mut r);
            assert!(s.len() <= 24);
            assert!(s.chars().all(|c| (' '..='~').contains(&c)), "{s:?}");
        }
    }

    #[test]
    fn subtraction_pattern_excludes() {
        let mut r = rng();
        for _ in 0..300 {
            let s = "[ -~&&[^<>&\"']]{0,20}".new_value(&mut r);
            assert!(!s.contains(['<', '>', '&', '"', '\'']), "{s:?}");
            assert!(s.chars().all(|c| (' '..='~').contains(&c)), "{s:?}");
        }
    }

    #[test]
    fn explicit_char_class() {
        let mut r = rng();
        for _ in 0..100 {
            let s = "[a-dXY]{1,6}".new_value(&mut r);
            assert!(!s.is_empty() && s.len() <= 6);
            assert!(s.chars().all(|c| "abcdXY".contains(c)), "{s:?}");
        }
    }

    #[test]
    fn combinators_compose() {
        let mut r = rng();
        let strat = (0u32..5)
            .prop_flat_map(|n| collection::vec(0u32..n.max(1), 1..4))
            .prop_map(|v| v.len());
        for _ in 0..100 {
            let len = strat.new_value(&mut r);
            assert!((1..4).contains(&len));
        }
    }

    #[test]
    fn union_picks_every_branch() {
        let u = Union::new(vec![Just(1u32).boxed(), Just(2u32).boxed()]);
        let mut r = rng();
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[u.new_value(&mut r) as usize] = true;
        }
        assert!(seen[1] && seen[2]);
    }
}
