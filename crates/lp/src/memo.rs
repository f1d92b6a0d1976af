//! Opt-in memoization of LP solves behind a sharded, single-flight,
//! LRU-bounded canonical-form cache.
//!
//! The analyses re-solve structurally identical LPs many times: the
//! sign-pattern enumeration of the AOV problem instantiates the same
//! Farkas system per orthant, and the exact checker probes overlapping
//! candidate sets. The cache key is
//! [`Model::canonical_key`](crate::Model::canonical_key) — a rendering
//! of the model (objective, constraints, bounds and integrality in
//! declaration order) with every variable *alpha-renamed* to its
//! positional index, so models that differ only in variable names
//! (e.g. the per-orthant Farkas systems, whose multiplier names carry
//! the enumeration index of the active dependence set) share an entry.
//!
//! # Concurrency
//!
//! The cache is mutex-striped over [`SHARD_COUNT`] shards (FNV-1a of
//! the key selects the shard), so concurrent solvers — concurrent
//! requests inside the `aovd` daemon, parallel tests — contend only
//! when they touch the same stripe.
//! Duplicate work is deduplicated by *single-flight claims*: the first
//! thread to [`claim`] a missing key computes the outcome and
//! [`FlightGuard::complete`]s it; threads claiming the same key while
//! the computation is in flight block on a condvar and are served the
//! finished outcome as a hit. A computation that fails (budget trip,
//! injected fault, panic) abandons its flight on guard drop, waking the
//! waiters to retry — an abandoned solve never publishes a poisoned or
//! partial entry, so a wrong-model hit is impossible by construction.
//!
//! # Bounding
//!
//! [`set_capacity`] arms an approximate LRU bound: each shard holds at
//! most `max(1, capacity / SHARD_COUNT)` entries, and inserting past
//! that evicts the least-recently-used *complete* entry (in-flight
//! claims are never evicted). Evictions are counted on
//! `lp.memo.evictions`. Capacity 0 (the default) means unbounded,
//! preserving the historical behaviour bit-for-bit.
//!
//! The cache is process-global, thread-safe, and disabled by default so
//! that micro-benchmarks and tests measure the real solver unless a
//! caller opts in: a pipeline run through its own flag, code outside
//! any run (the daemon's start-up, benchmarks) with [`set_enabled`].
//! Hits and misses are recorded on the `lp.memo.hits` /
//! `lp.memo.misses` counters of the solving run; a single-flight waiter
//! served by the computing thread counts as a hit (the solve was
//! shared), the computing thread itself as a miss.

use crate::model::LpOutcome;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Number of mutex stripes. A small power of two: enough that the
/// daemon's request workers rarely share a stripe, small enough that
/// [`clear`]/[`len`] stay cheap.
pub const SHARD_COUNT: usize = 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Total-entry bound across all shards (0 = unbounded).
static CAPACITY: AtomicUsize = AtomicUsize::new(0);
/// Global LRU clock: bumped on every hit/insert, stamped into entries.
static STAMP: AtomicU64 = AtomicU64::new(0);
/// Ownership tokens for in-flight claims (see [`FlightGuard`] drop).
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(0);

/// One computation in flight: waiters block on the condvar until the
/// claimer publishes an outcome or abandons.
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

enum FlightState {
    Pending,
    Ready(LpOutcome),
    Abandoned,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }

    /// Blocks until the flight resolves; `None` means abandoned (the
    /// caller should retry its claim).
    fn wait(&self) -> Option<LpOutcome> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match &*st {
                FlightState::Ready(outcome) => return Some(outcome.clone()),
                FlightState::Abandoned => return None,
                FlightState::Pending => {
                    st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    fn resolve(&self, state: FlightState) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        *st = state;
        self.cv.notify_all();
    }
}

enum Entry {
    Ready { outcome: LpOutcome, stamp: u64 },
    InFlight { flight: Arc<Flight>, token: u64 },
}

type Shard = HashMap<String, Entry>;

fn shards() -> &'static [Mutex<Shard>] {
    static SHARDS: OnceLock<Vec<Mutex<Shard>>> = OnceLock::new();
    SHARDS.get_or_init(|| {
        (0..SHARD_COUNT)
            .map(|_| Mutex::new(HashMap::new()))
            .collect()
    })
}

/// FNV-1a stripe selection. The canonical key is long (a rendered
/// model), so the hash mixes plenty even for structurally close models.
fn shard_index(key: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) % SHARD_COUNT
}

/// The cache only ever holds complete, immutable outcomes (in-flight
/// entries resolve through their own mutex), so a lock poisoned by a
/// panicking worker (isolated upstream via `catch_unwind`) is still
/// structurally sound — recover the guard.
fn shard(key: &str) -> MutexGuard<'static, Shard> {
    shards()[shard_index(key)]
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn next_stamp() -> u64 {
    STAMP.fetch_add(1, Ordering::Relaxed)
}

fn per_shard_capacity() -> usize {
    match CAPACITY.load(Ordering::Relaxed) {
        0 => usize::MAX,
        cap => (cap / SHARD_COUNT).max(1),
    }
}

/// Evicts least-recently-used *complete* entries until `shard` fits its
/// stripe budget. In-flight entries are never evicted — a waiter must
/// always find the flight it blocks on.
fn enforce_capacity(shard: &mut Shard) {
    let cap = per_shard_capacity();
    while shard.len() > cap {
        let victim = shard
            .iter()
            .filter_map(|(k, e)| match e {
                Entry::Ready { stamp, .. } => Some((*stamp, k.clone())),
                Entry::InFlight { .. } => None,
            })
            .min();
        let Some((_, key)) = victim else { break };
        shard.remove(&key);
        aov_support::static_counter!("lp.memo.evictions").add(1);
    }
}

/// Turns the process switch on or off. The switch decides for solves
/// outside any pipeline run; inside a run, the run's own flag decides
/// (see [`enabled`]). Turning it off clears the cache so a later
/// re-enable starts cold (deterministic counter deltas).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
    if !on {
        clear();
    }
}

/// Whether solves on this thread probe the cache: the flag of the
/// installed telemetry context when it has one (a pipeline run's, see
/// `aov_support::context`), else the process switch.
pub fn enabled() -> bool {
    aov_support::context::memoize().unwrap_or_else(|| ENABLED.load(Ordering::Relaxed))
}

/// Bounds the cache to roughly `capacity` entries across all shards
/// (0 = unbounded, the default). Shrinking evicts immediately.
pub fn set_capacity(capacity: usize) {
    CAPACITY.store(capacity, Ordering::Relaxed);
    if capacity > 0 {
        for stripe in shards() {
            enforce_capacity(&mut stripe.lock().unwrap_or_else(PoisonError::into_inner));
        }
    }
}

/// The configured entry bound (0 = unbounded).
pub fn capacity() -> usize {
    CAPACITY.load(Ordering::Relaxed)
}

/// Drops every cached outcome. Claims still in flight are unaffected
/// (their guards publish into the fresh cache when they complete).
pub fn clear() {
    for stripe in shards() {
        stripe
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

/// Number of distinct canonical forms currently cached (complete and
/// in-flight).
pub fn len() -> usize {
    shards()
        .iter()
        .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
        .sum()
}

/// A point-in-time view of the memo tier, surfaced per-response and in
/// the daemon's stats frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Entries currently resident (complete + in flight).
    pub entries: usize,
    /// Cumulative `lp.memo.hits` over the process lifetime: finished
    /// runs plus solves outside any run.
    pub hits: u64,
    /// Cumulative `lp.memo.misses`.
    pub misses: u64,
    /// Cumulative `lp.memo.evictions`.
    pub evictions: u64,
}

/// Reads the tier counters plus the resident entry count.
#[must_use]
pub fn stats() -> MemoStats {
    MemoStats {
        entries: len(),
        hits: aov_support::counters::counter("lp.memo.hits").load(Ordering::Relaxed),
        misses: aov_support::counters::counter("lp.memo.misses").load(Ordering::Relaxed),
        evictions: aov_support::counters::counter("lp.memo.evictions").load(Ordering::Relaxed),
    }
}

/// The result of [`claim`]: either a finished outcome, or the duty to
/// compute one.
pub enum Claim {
    /// The outcome was cached (or another thread just finished it).
    Hit(LpOutcome),
    /// This thread owns the computation; call
    /// [`FlightGuard::complete`] with the outcome, or drop the guard on
    /// failure to wake waiters into retrying.
    Miss(FlightGuard),
}

/// Ownership of one in-flight computation (see [`Claim::Miss`]).
pub struct FlightGuard {
    key: String,
    token: u64,
    flight: Arc<Flight>,
    completed: bool,
}

impl FlightGuard {
    /// Publishes `outcome` to the cache and wakes every waiter.
    pub fn complete(mut self, outcome: &LpOutcome) {
        self.flight.resolve(FlightState::Ready(outcome.clone()));
        let mut shard = shard(&self.key);
        shard.insert(
            self.key.clone(),
            Entry::Ready {
                outcome: outcome.clone(),
                stamp: next_stamp(),
            },
        );
        enforce_capacity(&mut shard);
        self.completed = true;
    }
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        // The computation failed (error return or unwinding panic):
        // abandon the flight so waiters retry, and remove the in-flight
        // entry — but only if it is still *ours* (a retrying waiter may
        // already have installed a successor flight under this key).
        self.flight.resolve(FlightState::Abandoned);
        let mut shard = shard(&self.key);
        let ours = matches!(
            shard.get(&self.key),
            Some(Entry::InFlight { token, .. }) if *token == self.token
        );
        if ours {
            shard.remove(&self.key);
        }
    }
}

/// Claims `key`: a cached outcome comes back as [`Claim::Hit`] (hit
/// counter bumped); a missing key installs an in-flight marker and
/// returns [`Claim::Miss`] (miss counter bumped); a key another thread
/// is currently computing blocks until that flight resolves — served
/// waiters count as hits, abandoned flights retry from the top.
pub fn claim(key: &str) -> Claim {
    loop {
        let flight = {
            let mut shard = shard(key);
            match shard.get_mut(key) {
                Some(Entry::Ready { outcome, stamp }) => {
                    *stamp = next_stamp();
                    let outcome = outcome.clone();
                    aov_support::static_counter!("lp.memo.hits").add(1);
                    return Claim::Hit(outcome);
                }
                Some(Entry::InFlight { flight, .. }) => Arc::clone(flight),
                None => {
                    let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
                    let flight = Arc::new(Flight::new());
                    shard.insert(
                        key.to_string(),
                        Entry::InFlight {
                            flight: Arc::clone(&flight),
                            token,
                        },
                    );
                    aov_support::static_counter!("lp.memo.misses").add(1);
                    return Claim::Miss(FlightGuard {
                        key: key.to_string(),
                        token,
                        flight,
                        completed: false,
                    });
                }
            }
        };
        // Wait outside the stripe lock so the computing thread can
        // publish. An abandoned flight loops back and re-claims.
        if let Some(outcome) = flight.wait() {
            aov_support::static_counter!("lp.memo.hits").add(1);
            return Claim::Hit(outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, Model};
    use aov_linalg::AffineExpr;

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
        // The display texts (the legacy keys) differ…
        assert_ne!(a.to_string(), b.to_string());
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

    /// Cache-sharing across renamed models, exercised through the raw
    /// claim layer (the global enable flag stays untouched so parallel
    /// tests are unaffected).
    #[test]
    fn renamed_models_share_cache_entries() {
        let (a, b) = renamed_models();
        let outcome = a.solve_lp();
        let Claim::Miss(guard) = claim(&a.canonical_key()) else {
            panic!("first claim must miss");
        };
        guard.complete(&outcome);
        match claim(&b.canonical_key()) {
            Claim::Hit(got) => assert_eq!(got, outcome, "alpha-renamed model must hit"),
            Claim::Miss(_) => panic!("alpha-renamed model must hit"),
        }
        // Under the legacy display-text scheme the rename misses.
        let Claim::Miss(guard) = claim(&a.to_string()) else {
            panic!("first claim must miss");
        };
        guard.complete(&outcome);
        assert!(
            matches!(claim(&b.to_string()), Claim::Miss(_)),
            "legacy keys distinguish names"
        );
    }

    #[test]
    fn claim_single_flights_and_serves_waiters() {
        let (a, _) = renamed_models();
        let outcome = a.solve_lp();
        let key = "test.memo.claim.single_flight";
        let Claim::Miss(guard) = claim(key) else {
            panic!("first claim must miss");
        };
        guard.complete(&outcome);
        match claim(key) {
            Claim::Hit(got) => assert_eq!(got, outcome),
            Claim::Miss(_) => panic!("completed claim must hit"),
        }
    }

    #[test]
    fn abandoned_claim_retries_instead_of_caching_garbage() {
        let (a, _) = renamed_models();
        let outcome = a.solve_lp();
        let key = "test.memo.claim.abandon";
        let Claim::Miss(guard) = claim(key) else {
            panic!("first claim must miss");
        };
        drop(guard); // failed computation: no entry may survive
        let Claim::Miss(second) = claim(key) else {
            panic!("abandoned claim must re-miss, never serve a phantom hit");
        };
        second.complete(&outcome);
        match claim(key) {
            Claim::Hit(got) => assert_eq!(got, outcome),
            Claim::Miss(_) => panic!("retried completion must stick"),
        }
    }

    #[test]
    fn shard_index_is_stable_and_in_range() {
        for key in ["", "min 0", "min 1*x0+0\n>=0 1*x0+-1"] {
            assert!(shard_index(key) < SHARD_COUNT);
            assert_eq!(shard_index(key), shard_index(key));
        }
    }
}
