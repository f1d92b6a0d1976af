//! Opt-in memoization of LP solves: one map from canonical model keys
//! to outcomes, with an optional LRU bound.
//!
//! The analyses re-solve structurally identical LPs: the orthant loops
//! of Problems 1 and 3 instantiate the same system per sign pattern,
//! the checker probes overlapping candidate sets, and a repeated run
//! (`--runs`, a warm `aovd`) solves the same program again. The key is
//! [`Model::canonical_key`](crate::Model::canonical_key) — a rendering
//! of the model (objective, constraints, bounds and integrality in
//! declaration order) with every variable *alpha-renamed* to its
//! positional index, so models that differ only in variable names
//! share an entry.
//!
//! A memoized cold solve of the paper's examples 1–4 makes 5 / 7 / 3 /
//! 5 lookups (0 / 3 / 1 / 2 hits), and the simplex work of all its
//! misses together is 0.3–8 ms, so the memo is one mutex-guarded map:
//! a solve
//! looks up its key and, on a miss, solves outside the lock and inserts
//! the outcome (see [`Model::solve_lp_budgeted`](crate::Model::solve_lp_budgeted)).
//! Two threads missing the same key both solve it and insert equal
//! outcomes. Only a finished solve is inserted: a budget trip or an
//! injected fault caches nothing, so a hit is always the complete
//! outcome of a canonically equal model.
//!
//! Whether a solve probes the memo is the flag of the installed
//! telemetry context ([`enabled`]): a pipeline run sets it from
//! `Pipeline::memoize`; outside any run it is the root's, off until a
//! memoizing run turns it on (`aov_support::context::memoize_root`),
//! so tests measure the real solver unless they opt in. Hits, misses
//! and evictions count on `lp.memo.hits`, `lp.memo.misses` and
//! `lp.memo.evictions` of the solving context.
//!
//! [`set_capacity`] bounds the map to that many entries (0, the
//! default, is unbounded); an insert past the bound evicts the least
//! recently used entry, found by a scan of the whole map under the
//! lock. On a 2-vCPU Xeon that scan adds ~30 µs to an insert at 10 000
//! entries and ~360 µs at 50 000 (a small LP's miss and insert take
//! ~10 µs), so the bound is meant for at most a few thousand entries.

use crate::model::LpOutcome;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{LazyLock, Mutex, MutexGuard, PoisonError};

#[derive(Default)]
struct Memo {
    entries: HashMap<String, Entry>,
    /// Entry bound (0 = unbounded).
    capacity: usize,
    /// LRU clock, stamped into an entry on every hit and insert.
    clock: u64,
}

struct Entry {
    outcome: LpOutcome,
    used: u64,
}

impl Memo {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Evicts least-recently-used entries until the map fits its bound.
    fn evict_to_capacity(&mut self) {
        if self.capacity == 0 {
            return;
        }
        while self.entries.len() > self.capacity {
            let Some(key) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.entries.remove(&key);
            aov_support::static_counter!("lp.memo.evictions").add(1);
        }
    }
}

/// The map only ever holds complete outcomes, so a lock poisoned by a
/// panicking solver thread (isolated upstream via `catch_unwind`) still
/// guards a sound map: recover the guard.
fn memo() -> MutexGuard<'static, Memo> {
    static MEMO: LazyLock<Mutex<Memo>> = LazyLock::new(Mutex::default);
    MEMO.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether solves on this thread probe the memo: the flag of the
/// installed telemetry context (`aov_support::context::memoize`);
/// outside any run, the root's.
#[must_use]
pub fn enabled() -> bool {
    aov_support::context::memoize()
}

/// The cached outcome of `key`, counted as a hit or a miss.
pub(crate) fn lookup(key: &str) -> Option<LpOutcome> {
    let hit = {
        let mut memo = memo();
        let used = memo.tick();
        memo.entries.get_mut(key).map(|e| {
            e.used = used;
            e.outcome.clone()
        })
    };
    if hit.is_some() {
        aov_support::static_counter!("lp.memo.hits").add(1);
    } else {
        aov_support::static_counter!("lp.memo.misses").add(1);
    }
    hit
}

/// Caches the finished outcome of `key`.
pub(crate) fn insert(key: String, outcome: LpOutcome) {
    let mut memo = memo();
    let used = memo.tick();
    memo.entries.insert(key, Entry { outcome, used });
    memo.evict_to_capacity();
}

/// Bounds the memo to `capacity` entries (0 = unbounded, the default).
/// Shrinking evicts immediately.
pub fn set_capacity(capacity: usize) {
    let mut memo = memo();
    memo.capacity = capacity;
    memo.evict_to_capacity();
}

/// Drops every cached outcome.
pub fn clear() {
    memo().entries.clear();
}

/// Number of distinct canonical forms currently cached.
#[must_use]
pub fn len() -> usize {
    memo().entries.len()
}

/// A point-in-time view of the memo, surfaced per response and in the
/// daemon's stats frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Entries currently resident.
    pub entries: usize,
    /// Cumulative `lp.memo.hits` over the process lifetime: finished
    /// memoizing runs, plus solves outside any run once a memoizing run
    /// turned the root's flag on.
    pub hits: u64,
    /// Cumulative `lp.memo.misses`.
    pub misses: u64,
    /// Cumulative `lp.memo.evictions`.
    pub evictions: u64,
}

/// Reads the memo counters plus the resident entry count.
#[must_use]
pub fn stats() -> MemoStats {
    MemoStats {
        entries: len(),
        hits: aov_support::counters::counter("lp.memo.hits").load(Ordering::Relaxed),
        misses: aov_support::counters::counter("lp.memo.misses").load(Ordering::Relaxed),
        evictions: aov_support::counters::counter("lp.memo.evictions").load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use crate::{Cmp, Model};
    use aov_linalg::AffineExpr;
    use aov_support::context::Context;

    /// The same LP built twice with different variable names.
    fn renamed_models() -> (Model, Model) {
        let build = |names: [&str; 2]| {
            let mut m = Model::new();
            let x = m.add_var(names[0]);
            let y = m.add_var(names[1]);
            m.set_lower_bound(x, 0.into());
            m.set_lower_bound(y, 0.into());
            m.set_integer(y);
            m.constrain(AffineExpr::from_i64(&[1, 1], -2), Cmp::Ge);
            m.minimize(AffineExpr::from_i64(&[2, 1], 0));
            m
        };
        (build(["x", "y"]), build(["lam_0_0", "d_A_0_1"]))
    }

    #[test]
    fn canonical_key_is_name_independent() {
        let (a, b) = renamed_models();
        // The models differ in their names…
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
        // …but the alpha-renamed canonical keys agree.
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn canonical_key_still_separates_different_structure() {
        let (a, _) = renamed_models();
        let mut c = a.clone();
        c.constrain(AffineExpr::from_i64(&[1, 0], -1), Cmp::Ge);
        assert_ne!(a.canonical_key(), c.canonical_key());
        let mut d = a.clone();
        d.set_upper_bound(crate::VarId::from_index(0), 9.into());
        assert_ne!(a.canonical_key(), d.canonical_key());
    }

    /// Inside a memoizing context, an alpha-renamed model is served the
    /// first model's cached outcome without a pivot.
    #[test]
    fn renamed_models_share_cache_entries() {
        let (a, b) = renamed_models();
        let count = |ctx: &Context, name: &str| {
            ctx.counters()
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        let plain = Context::child(None, None);
        let cold = {
            let _entered = plain.enter();
            a.solve_lp()
        };
        assert_eq!(count(&plain, "lp.memo.misses"), 0, "off outside a run");
        let memoized = Context::child(None, Some(true));
        {
            let _entered = memoized.enter();
            assert_eq!(a.solve_lp(), cold);
            assert_eq!(b.solve_lp(), cold, "alpha-renamed model must hit");
        }
        assert_eq!(count(&memoized, "lp.memo.misses"), 1);
        assert_eq!(count(&memoized, "lp.memo.hits"), 1);
        assert_eq!(
            count(&memoized, "lp.simplex.pivots"),
            count(&plain, "lp.simplex.pivots"),
            "the hit pivots nothing"
        );
    }

    /// The tie order is part of the objective, so two models that differ
    /// only in it key apart and each is served its own answer.
    #[test]
    fn tie_order_separates_keys() {
        let build = |order: [usize; 2]| {
            let mut m = Model::new();
            let x = m.add_var("x");
            let y = m.add_var("y");
            m.constrain(AffineExpr::from_i64(&[1, 1], -1), Cmp::Eq);
            m.add_abs_cost(x, 1.into());
            m.add_abs_cost(y, 1.into());
            m.set_tie_order(order.map(crate::VarId::from_index).to_vec());
            m
        };
        let (xy, yx) = (build([0, 1]), build([1, 0]));
        assert_eq!(
            xy.canonical_key(),
            "min 0+1*|x0|+1*|x1|\nlex x0 x1\n==0 1*x0+1*x1+-1"
        );
        assert_eq!(
            yx.canonical_key(),
            "min 0+1*|x0|+1*|x1|\nlex x1 x0\n==0 1*x0+1*x1+-1"
        );
        let memoized = Context::child(None, Some(true));
        let (a, b) = {
            let _entered = memoized.enter();
            (xy.solve_lp(), yx.solve_lp())
        };
        let values = |o: crate::LpOutcome| o.optimal().expect("feasible").values;
        assert_eq!(values(a), aov_linalg::QVector::from_i64(&[0, 1]));
        assert_eq!(values(b), aov_linalg::QVector::from_i64(&[1, 0]));
        let misses = memoized
            .counters()
            .into_iter()
            .find(|(n, _)| n == "lp.memo.misses");
        assert_eq!(
            misses.map(|(_, v)| v),
            Some(2),
            "neither solve hits the other"
        );
    }
}
