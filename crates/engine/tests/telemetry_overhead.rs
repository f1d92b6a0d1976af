//! Telemetry overhead guards: the flight recorder runs in every build
//! and every configuration, so its cost must stay marginal; the
//! counting allocator's byte accounting is armed on demand (the CLI
//! arms it for `--profile`, `--mem`, `--trace`, `--profile-out` and
//! `--diag-dir` only), so its unit cost must merely stay in the
//! nanoseconds. The EXPERIMENTS.md overhead note is derived from the
//! numbers these tests print under `--release`.
//!
//! The recording flag is process-global, so the tests serialize on a
//! mutex and live in their own test binary.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use aov_engine::{Health, Pipeline};
use aov_trace::recorder::{self, EventKind};

static FLAG_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One ring event is a label copy plus a handful of relaxed atomic
/// stores; a lock or syscall on this path would cost microseconds.
#[test]
fn recorder_event_stays_cheap() {
    let _guard = lock();
    const EVENTS: u64 = 2_000_000;
    recorder::set_recording(true);
    for _ in 0..10_000 {
        recorder::record(EventKind::BudgetTick, "overhead.warmup", 0, 0);
    }
    let t0 = Instant::now();
    for i in 0..EVENTS {
        recorder::record(EventKind::BudgetTick, "overhead.test", i, 0);
    }
    let elapsed = t0.elapsed();
    let ns_per_event = elapsed.as_nanos() as f64 / EVENTS as f64;
    println!("recorder: {ns_per_event:.1} ns/event ({EVENTS} events in {elapsed:?})");
    assert!(
        ns_per_event < 1_000.0,
        "ring event costs {ns_per_event:.0} ns — recording is no longer cheap"
    );
    recorder::clear();
}

/// The counting allocator adds a few relaxed `fetch_add`s to every
/// heap operation; a whole alloc+free round trip (System call included)
/// must stay well under a microsecond.
#[test]
fn counting_allocator_stays_cheap() {
    // Serialized with the timed tests too: on a two-CPU host this loop
    // beside them steals the time they measure.
    let _guard = lock();
    const ROUNDS: u64 = 1_000_000;
    for _ in 0..10_000 {
        std::hint::black_box(Box::new(0u64));
    }
    let t0 = Instant::now();
    for i in 0..ROUNDS {
        std::hint::black_box(Box::new(i));
    }
    let elapsed = t0.elapsed();
    let ns_per_round = elapsed.as_nanos() as f64 / ROUNDS as f64;
    println!("alloc+free: {ns_per_round:.1} ns/round ({ROUNDS} rounds in {elapsed:?})");
    assert!(
        ns_per_round < 2_000.0,
        "counted alloc+free costs {ns_per_round:.0} ns"
    );
}

/// End-to-end guard for the acceptance criterion: Example 1 with the
/// flight recorder armed versus disarmed. Min-of-N wall times are
/// compared (min absorbs scheduler noise far better than the mean); the
/// release-build ratio is recorded in EXPERIMENTS.md, while the
/// assertion here stays generous enough for shared CI containers.
#[test]
fn flight_recorder_overhead_on_example1_is_marginal() {
    let _guard = lock();
    let run = || -> Duration {
        let t0 = Instant::now();
        let report = Pipeline::for_example("example1")
            .unwrap()
            .workers(2)
            .run()
            .expect("example1 runs");
        assert_eq!(report.health(), Health::Ok);
        t0.elapsed()
    };
    let min_of = |n: usize| (0..n).map(|_| run()).min().expect("runs");
    let _warm = run();
    recorder::set_recording(false);
    let off = min_of(5);
    recorder::set_recording(true);
    let on = min_of(5);
    let overhead = (on.as_secs_f64() - off.as_secs_f64()) / off.as_secs_f64();
    println!(
        "example1 min wall: recorder off {off:?}, on {on:?} ({:+.2}%)",
        overhead * 100.0
    );
    // Example 1's wall time swings by double-digit percentages between
    // runs on shared containers, so this comparison cannot resolve the
    // 1% budget — the derived test below does. This bound only catches
    // catastrophic regressions (per-event syscalls, ring contention).
    assert!(
        overhead < 0.50,
        "flight recorder costs {:.1}% of example1 wall time",
        overhead * 100.0
    );
}

/// The <= 1% acceptance budget for the *default* telemetry
/// configuration — the one every plain `aov run` ships with: flight
/// recorder armed, allocator byte accounting disarmed (the CLI arms it
/// only for `--profile`/`--mem`/`--trace`/`--diag-dir` and `bench`,
/// where the caller opted into paying for the numbers).
///
/// Measured in a noise-immune way: the per-event unit cost is timed in
/// a tight loop, multiplied by one real run's event count and compared
/// against that run's wall time. A timed event reads the clock once, as
/// each event of a recorder-only span does (its exit reuses one clock
/// read for the timestamp and the duration), so the product is what the
/// run's events cost. A direct armed-vs-disarmed wall
/// comparison drowns in this container's scheduler noise (±10% between
/// back-to-back runs); its paired medians are recorded in EXPERIMENTS.md
/// instead, and agree with the derived number here. The loop and the
/// run are timed as several pairs, each run right after its loop, and
/// the overhead is the median of the pairs' ratios: a loop and its run
/// share the host's speed of the moment, and one preempted loop or run
/// cannot move the median. A run
/// right after a loop times close to the one solve of a plain `aov`
/// process, its `total_micros`; a run right after another run, caches
/// warm, is about a third faster than either.
///
/// The opt-in byte accounting is *not* asserted against the 1% budget:
/// Example 1 performs ~13.5M allocations in under half a second, so
/// exact per-event accounting (~1-2 ns marginal) costs a measured
/// 3-7% of wall — which is exactly why plain runs disarm it. Its unit
/// cost is printed here and guarded by the loose bound above.
#[test]
fn derived_telemetry_overhead_is_within_budget() {
    let _guard = lock();
    recorder::set_recording(true);
    fn median<T: Ord + Copy>(mut xs: Vec<T>) -> T {
        xs.sort_unstable();
        xs[xs.len() / 2]
    }

    // One pair: the unit cost of a ring event, then a real run's event
    // volume and wall time in the default configuration (byte
    // accounting disarmed, recorder armed).
    const PAIRS: usize = 7;
    const EVENTS: u64 = 400_000;
    for _ in 0..10_000 {
        recorder::record(EventKind::BudgetTick, "overhead.warmup", 0, 0);
    }
    let pair = || {
        let t0 = Instant::now();
        for i in 0..EVENTS {
            recorder::record(EventKind::BudgetTick, "overhead.derived", i, 0);
        }
        let batch = t0.elapsed();
        aov_support::alloc::set_counting(false);
        let events_before = recorder::events_recorded();
        let t0 = Instant::now();
        let report = Pipeline::for_example("example1")
            .unwrap()
            .workers(2)
            .run()
            .expect("example1 runs");
        let wall = t0.elapsed();
        let events = recorder::events_recorded() - events_before;
        aov_support::alloc::set_counting(true);
        assert_eq!(report.health(), Health::Ok);
        (batch, wall, events)
    };
    let pairs: Vec<(Duration, Duration, u64)> = (0..PAIRS).map(|_| pair()).collect();
    let ns_per_event =
        median(pairs.iter().map(|p| p.0).collect()).as_nanos() as f64 / EVENTS as f64;
    let wall = median(pairs.iter().map(|p| p.1).collect());
    let events = median(pairs.iter().map(|p| p.2).collect());
    // Ten stages leave twenty stage events; the rest are solver spans.
    assert!(events >= 50, "the recorder saw the run ({events} events)");

    let telemetry_ns = events as f64 * ns_per_event;
    let ratios = pairs.iter().map(|&(batch, wall, events)| {
        let ns = events as f64 * batch.as_nanos() as f64 / EVENTS as f64;
        // Parts per million, so the median sorts as an integer.
        (ns / wall.as_nanos() as f64 * 1e6) as u64
    });
    let overhead = median(ratios.collect()) as f64 / 1e6;
    println!(
        "default-config overhead: {events} events x {ns_per_event:.1} ns = {:.3} ms \
         of {wall:?} median wall; median pair ratio {:.4}%",
        telemetry_ns / 1e6,
        overhead * 100.0
    );
    assert!(
        overhead < 0.01,
        "flight recorder costs {:.2}% of example1 wall time (budget 1%)",
        overhead * 100.0
    );
}
