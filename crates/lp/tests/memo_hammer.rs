//! The contract of the LP memo under concurrent and failing solves.
//!
//! Runs in its own process (integration-test binary), so arming a tiny
//! LRU capacity here cannot perturb the library's unit tests. The tests
//! serialize on a local mutex because the memo itself is
//! process-global, and each solves inside a memoizing telemetry
//! context, the only place the memo is probed.

use aov_fault::{AovError, Budget};
use aov_lp::{memo, Cmp, Model};
use aov_support::context::Context;
use std::sync::Mutex;

static TIER: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TIER.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A small feasible LP, parameterized so distinct `variant`s have
/// distinct canonical keys while any fixed `variant` is structurally
/// identical across calls regardless of the variable names used.
fn model(variant: i64, names: [&str; 2]) -> Model {
    let mut m = Model::new();
    let x = m.add_var(names[0]);
    let y = m.add_var(names[1]);
    m.set_lower_bound(x, 0.into());
    m.set_lower_bound(y, 0.into());
    m.constrain(
        aov_linalg::AffineExpr::from_i64(&[1, 1], -(variant + 1)),
        Cmp::Ge,
    );
    m.minimize(aov_linalg::AffineExpr::from_i64(&[2, 1], 0));
    m
}

/// N threads solve M alpha-renamed variants concurrently with
/// memoization on; every thread must observe the same outcome per
/// variant as a cold single-threaded solve (a wrong-model hit would
/// diverge).
#[test]
fn hammer_solver_path_is_consistent_under_contention() {
    let _g = locked();
    memo::clear();
    memo::set_capacity(0);
    const THREADS: usize = 8;
    const VARIANTS: i64 = 4;
    let expected: Vec<_> = (0..VARIANTS)
        .map(|v| model(v, ["x", "y"]).solve_lp())
        .collect();
    assert_eq!(memo::len(), 0, "solves outside a memoizing context");
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let expected = &expected;
            s.spawn(move || {
                let ctx = Context::child(None, Some(true));
                let _entered = ctx.enter();
                for v in 0..VARIANTS {
                    // Alternate naming schemes: alpha-renaming must
                    // land both on the same entry.
                    let names = if (t + v as usize).is_multiple_of(2) {
                        ["x", "y"]
                    } else {
                        ["lam_0_0", "d_A_0_1"]
                    };
                    let got = model(v, names)
                        .solve_lp_budgeted(&Budget::unlimited())
                        .expect("unlimited budget never trips");
                    assert_eq!(&got, &expected[v as usize], "variant {v} diverged");
                }
            });
        }
    });
    assert_eq!(
        memo::len(),
        VARIANTS as usize,
        "one entry per canonical key"
    );
    memo::clear();
}

/// Eviction under a tiny LRU bound must degrade to recomputation, never
/// to a wrong-model hit: with capacity far below the working set, every
/// solve still returns the same outcome as an uncached solve, and the
/// bound holds exactly.
#[test]
fn tiny_lru_bound_never_returns_a_wrong_model_hit() {
    let _g = locked();
    memo::clear();
    const VARIANTS: i64 = 24;
    const CAPACITY: usize = 2; // far below the 24-variant working set
    let uncached: Vec<_> = (0..VARIANTS)
        .map(|v| model(v, ["x", "y"]).solve_lp())
        .collect();
    memo::set_capacity(CAPACITY);
    let before = memo::stats();
    let ctx = Context::child(None, Some(true));
    {
        let _entered = ctx.enter();
        for round in 0..3 {
            for v in 0..VARIANTS {
                let cached = model(v, ["x", "y"]).solve_lp();
                assert_eq!(cached, uncached[v as usize], "round {round}, variant {v}");
                assert!(memo::len() <= CAPACITY, "{} entries resident", memo::len());
            }
        }
    }
    let evictions = |c: &Context| {
        c.counters()
            .into_iter()
            .find(|(n, _)| n == "lp.memo.evictions")
            .map_or(0, |(_, v)| v)
    };
    // 72 inserts into 2 slots: every insert after the second evicts.
    assert_eq!(evictions(&ctx), 3 * VARIANTS as u64 - CAPACITY as u64);
    drop(ctx);
    assert!(memo::stats().evictions > before.evictions);
    memo::set_capacity(0);
    memo::clear();
}

/// A memoized solve whose pivot budget trips caches nothing, and the
/// retry that finishes caches its outcome.
#[test]
fn tripped_solve_caches_nothing_and_retry_caches() {
    let _g = locked();
    memo::clear();
    memo::set_capacity(0);
    let m = model(7, ["x", "y"]);
    let expected = m.solve_lp();
    let ctx = Context::child(None, Some(true));
    let _entered = ctx.enter();
    let tripped = m.solve_lp_budgeted(&Budget::new(Some(0), None, None));
    assert!(
        matches!(tripped, Err(AovError::BudgetExceeded(_))),
        "{tripped:?}"
    );
    assert_eq!(memo::len(), 0, "a tripped solve must cache nothing");
    let retried = m
        .solve_lp_budgeted(&Budget::unlimited())
        .expect("unlimited budget never trips");
    assert_eq!(retried, expected);
    assert_eq!(memo::len(), 1, "the finished retry is cached");
    let hit = m
        .solve_lp_budgeted(&Budget::new(Some(0), None, None))
        .expect("a hit spends no pivots");
    assert_eq!(hit, expected);
    memo::clear();
}
