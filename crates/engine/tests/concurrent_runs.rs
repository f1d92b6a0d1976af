//! Run-scoped telemetry: pipeline runs racing in one process must each
//! report exactly what a solo run of the same program reports — the
//! run's counters, and every stage's counters, allocations and bytes.
//! Each run (and each of its stages) charges its own telemetry
//! context, so a neighbor's pivots or heap traffic cannot leak in.

use std::sync::Barrier;

use aov_engine::{Pipeline, Report};
use aov_support::context::Context;

const PROGRAMS: [&str; 2] = ["example1", "example4"];

/// One stage's attributed numbers: name, counters, allocations, bytes.
type StageNumbers = (&'static str, Vec<(String, u64)>, u64, u64);

fn run(name: &str, workers: usize) -> Report {
    Pipeline::for_example(name)
        .unwrap()
        .workers(workers)
        .memoize(false)
        .run()
        .expect("healthy run")
}

/// A solo run on a fresh thread (fresh thread-local state, as each
/// racing run gets).
fn solo(name: &'static str, workers: usize) -> Report {
    std::thread::spawn(move || run(name, workers))
        .join()
        .expect("solo run")
}

/// Every stage's attributed numbers.
fn stages(r: &Report) -> Vec<StageNumbers> {
    r.stages
        .iter()
        .map(|s| (s.name, s.counters.clone(), s.allocs, s.alloc_bytes))
        .collect()
}

fn racing_runs_match_solo_runs(workers: usize) {
    // Warm-up: one-time process state (recorder ring, counter
    // registration, lazily built tables) must not charge a measured run.
    for name in PROGRAMS {
        let _ = solo(name, workers);
    }
    let solo: Vec<Report> = PROGRAMS.iter().map(|&n| solo(n, workers)).collect();
    let barrier = Barrier::new(PROGRAMS.len());
    let raced: Vec<Report> = std::thread::scope(|s| {
        let handles: Vec<_> = PROGRAMS
            .iter()
            .map(|&name| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    run(name, workers)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for ((name, solo), raced) in PROGRAMS.iter().zip(&solo).zip(&raced) {
        assert!(solo.counter("lp.simplex.pivots") > 0, "{name}");
        assert!(solo.stages.iter().any(|s| s.allocs > 0), "{name}");
        assert_eq!(raced.counters, solo.counters, "{name}: run counters");
        assert_eq!(
            stages(raced),
            stages(solo),
            "{name} at --workers {workers}: stage numbers"
        );
    }
}

#[test]
fn racing_runs_match_solo_runs_sequential() {
    racing_runs_match_solo_runs(1);
}

#[test]
fn racing_runs_match_solo_runs_with_two_workers() {
    racing_runs_match_solo_runs(2);
}

/// A run's own memo flag decides: after a memoized run, a
/// `memoize(false)` run neither probes nor fills the memo, and spends
/// exactly the pivots of a cold solo run. Solves outside any run do
/// probe it from then on (the memoized run turned the root's flag on),
/// one lookup per solve.
#[test]
fn unmemoized_run_after_memoized_run_stays_cold() {
    let cold = solo("example1", 1);
    let memoized = Pipeline::for_example("example1")
        .unwrap()
        .memoize(true)
        .run()
        .expect("healthy run");
    assert!(memoized.counter("lp.memo.misses") > 0);
    let outside = Context::child(None, None);
    {
        let _entered = outside.enter();
        assert!(aov_lp::memo::enabled(), "a memoized run arms the root");
        let mut m = aov_lp::Model::new();
        let x = m.add_nonneg_var("x");
        m.minimize(aov_linalg::AffineExpr::var(1, x.index()));
        assert!(m.solve_lp().optimal().is_some());
    }
    let lookups: u64 = outside
        .counters()
        .into_iter()
        .filter(|(name, _)| name == "lp.memo.hits" || name == "lp.memo.misses")
        .map(|(_, v)| v)
        .sum();
    assert_eq!(lookups, 1, "a solve outside any run probes the memo once");
    let after = run("example1", 1);
    assert!(!after.memoized);
    assert_eq!(after.counter("lp.memo.hits"), 0);
    assert_eq!(after.counter("lp.memo.misses"), 0);
    assert_eq!(
        after.counter("lp.simplex.pivots"),
        cold.counter("lp.simplex.pivots")
    );
}
