//! Named `u64` counters, charged to the run that bumps them.
//!
//! Each counter name gets a dense id on first use, and every
//! [`Context`](crate::context::Context) holds one cell per id. Hot paths
//! (simplex pivots, branch-and-bound nodes, Fourier–Motzkin
//! eliminations) bump through a cached [`Counter`] (see
//! [`static_counter!`](crate::static_counter)): one thread-local read
//! and one relaxed atomic add into the installed context, or into the
//! process root when no run is installed. The registry lock is only
//! taken on first lookup and when reading.
//!
//! Finished runs fold into the root, so [`snapshot`] and [`counter`]
//! read every finished run plus the work done outside any run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::context::{self, MAX_COUNTERS};

/// Counter names by id, each with whether it is a max counter.
static REGISTRY: Mutex<Vec<(String, bool)>> = Mutex::new(Vec::new());

pub(crate) fn registry() -> MutexGuard<'static, Vec<(String, bool)>> {
    // Every update leaves the vector valid.
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The id of `name`, registering it on first use; `max` marks it as a
/// max counter.
fn id(name: &str, max: bool) -> usize {
    let mut reg = registry();
    if let Some(id) = reg.iter().position(|(n, _)| n == name) {
        reg[id].1 |= max;
        return id;
    }
    assert!(
        reg.len() < MAX_COUNTERS,
        "more than {MAX_COUNTERS} counter names; raise context::MAX_COUNTERS"
    );
    reg.push((name.to_string(), max));
    reg.len() - 1
}

/// A registered additive counter; cache it in hot paths (see
/// [`static_counter!`](crate::static_counter)).
#[derive(Debug, Clone, Copy)]
pub struct Counter(usize);

impl Counter {
    /// The counter named `name`, registering it on first use.
    #[must_use]
    pub fn named(name: &str) -> Counter {
        Counter(id(name, false))
    }

    /// Adds `n` to the counter in the current context.
    #[inline]
    pub fn add(self, n: u64) {
        context::with_current(|c| c.counter(self.0).fetch_add(n, Ordering::Relaxed));
    }
}

/// The process-root cell of the counter named `name`: every bump made
/// outside any run plus every finished run.
pub fn counter(name: &str) -> &'static AtomicU64 {
    context::root().counter(id(name, false))
}

/// A registered max counter: a high-water mark, for quantities like the
/// largest coefficient bit-width seen in simplex. Cache it in hot paths
/// (see [`static_max_counter!`](crate::static_max_counter)).
///
/// A finished context folds a max counter into its parent by maximum,
/// and reports the rise of the parent's high-water mark as its share
/// (see [`Context::finish`](crate::context::Context::finish)): a
/// pipeline stage's entry reads "how much the run's high-water mark
/// rose during the stage", and the run's mark after stage *k* is the
/// sum of the first *k* entries.
#[derive(Debug, Clone, Copy)]
pub struct MaxCounter(usize);

impl MaxCounter {
    /// The max counter named `name`, registering it on first use.
    #[must_use]
    pub fn named(name: &str) -> MaxCounter {
        MaxCounter(id(name, true))
    }

    /// Raises the counter to at least `value` in the current context.
    #[inline]
    pub fn record(self, value: u64) {
        context::with_current(|c| c.counter(self.0).fetch_max(value, Ordering::Relaxed));
    }
}

/// The root's value of every registered counter — every finished run
/// plus the work done outside any run — sorted by name.
pub fn snapshot() -> Vec<(String, u64)> {
    let root = context::root();
    let mut out: Vec<(String, u64)> = registry()
        .iter()
        .enumerate()
        .map(|(id, (n, _))| (n.clone(), root.counter(id).load(Ordering::Relaxed)))
        .collect();
    out.sort();
    out
}

/// Difference `after - before` per counter, dropping zero deltas.
/// Counters appearing only in `after` count from zero.
pub fn delta(before: &[(String, u64)], after: &[(String, u64)]) -> Vec<(String, u64)> {
    after
        .iter()
        .filter_map(|(name, v)| {
            let base = before
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, b)| *b);
            let d = v.saturating_sub(base);
            (d > 0).then(|| (name.clone(), d))
        })
        .collect()
}

/// Caches a counter lookup in a local `static` so hot loops pay only the
/// bump:
///
/// ```
/// for _ in 0..3 {
///     aov_support::static_counter!("example.iterations").add(1);
/// }
/// let snap = aov_support::counters::snapshot();
/// assert!(snap.iter().any(|(n, v)| n == "example.iterations" && *v >= 3));
/// ```
#[macro_export]
macro_rules! static_counter {
    ($name:expr) => {{
        static ID: ::std::sync::OnceLock<$crate::counters::Counter> = ::std::sync::OnceLock::new();
        *ID.get_or_init(|| $crate::counters::Counter::named($name))
    }};
}

/// [`static_counter!`](crate::static_counter) for a max counter: caches
/// the [`MaxCounter`] lookup so hot loops pay only the `fetch_max`.
///
/// ```
/// aov_support::static_max_counter!("example.widest").record(7);
/// let snap = aov_support::counters::snapshot();
/// assert!(snap.iter().any(|(n, v)| n == "example.widest" && *v >= 7));
/// ```
#[macro_export]
macro_rules! static_max_counter {
    ($name:expr) => {{
        static ID: ::std::sync::OnceLock<$crate::counters::MaxCounter> =
            ::std::sync::OnceLock::new();
        *ID.get_or_init(|| $crate::counters::MaxCounter::named($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_add_snapshot_delta() {
        let before = snapshot();
        Counter::named("test.counters.alpha").add(3);
        Counter::named("test.counters.alpha").add(2);
        Counter::named("test.counters.beta").add(1);
        let after = snapshot();
        let d = delta(&before, &after);
        assert!(d.contains(&("test.counters.alpha".to_string(), 5)));
        assert!(d.contains(&("test.counters.beta".to_string(), 1)));
    }

    #[test]
    fn same_name_same_cell() {
        let a = counter("test.counters.same") as *const _;
        let b = counter("test.counters.same") as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn static_counter_macro_counts() {
        let before = snapshot();
        for _ in 0..4 {
            crate::static_counter!("test.counters.macro").add(1);
        }
        let after = snapshot();
        let d = delta(&before, &after);
        assert!(d.contains(&("test.counters.macro".to_string(), 4)));
    }

    #[test]
    fn static_max_counter_shares_named_cell() {
        let cell = counter("test.counters.max");
        crate::static_max_counter!("test.counters.max").record(5);
        MaxCounter::named("test.counters.max").record(3);
        crate::static_max_counter!("test.counters.max").record(9);
        assert_eq!(cell.load(Ordering::Relaxed), 9);
        let reg = registry();
        assert!(reg.iter().any(|(n, max)| n == "test.counters.max" && *max));
    }

    #[test]
    fn concurrent_increments_sum() {
        let before = counter("test.counters.mt").load(Ordering::Relaxed);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        Counter::named("test.counters.mt").add(1);
                    }
                });
            }
        });
        let after = counter("test.counters.mt").load(Ordering::Relaxed);
        assert_eq!(after - before, 4000);
    }
}
