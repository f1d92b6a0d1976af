//! Deterministic allocation fingerprints: the counting allocator's
//! per-span attribution must be *exactly* reproducible — same span
//! counts, same allocation counts, same byte totals — no matter which
//! worker count the pipeline is configured with. The count reaches only
//! the machine stage's fan-out, so every traced run enables that stage,
//! and the worker comparisons run Example 2, which has a machine model.
//!
//! The trace sink is process-global, so this lives in its own test
//! binary (the other engine binaries never enable tracing).
//!
//! The fingerprint covers the orthant solves of Problems 1 and 3
//! (`p1.orthant`, `aov.orthant`), the storage-form construction and
//! Problem 3's generator rows. Both problems solve their orthants in
//! one sequential loop per array ordered by lower bound, so which
//! orthants are solved, and what each allocates, is a function of the
//! program alone: Problem 1 prunes Example 1 to 4 orthants, Problem 3
//! solves all 8; on two-array Example 2 they solve 8 and 10.

use std::collections::BTreeMap;
use std::sync::Mutex;

use aov_engine::Pipeline;
use aov_trace::SpanRecord;

/// The trace sink is process-global: the two tests below serialize.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Spans whose (count, allocs, bytes, max_bits) aggregate must be
/// bit-identical across worker counts.
const STABLE_SPANS: [&str; 4] = [
    "p1.orthant",
    "aov.orthant",
    "core.storage_forms_for_dep",
    "aov.generator_rows",
];

#[derive(Debug, PartialEq, Eq, Default, Clone)]
struct Aggregate {
    count: u64,
    allocs: u64,
    bytes: u64,
    max_bits: u64,
}

fn fingerprint(records: &[SpanRecord]) -> BTreeMap<&'static str, Aggregate> {
    let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
    for name in STABLE_SPANS {
        out.insert(name, Aggregate::default());
    }
    for r in records {
        if let Some(name) = STABLE_SPANS.iter().find(|n| **n == r.name) {
            let agg = out.get_mut(name).unwrap();
            agg.count += 1;
            agg.allocs += r.alloc_allocs;
            agg.bytes += r.alloc_bytes;
            agg.max_bits = agg.max_bits.max(r.max_bits);
        }
    }
    out
}

fn traced_run(workers: usize) -> Vec<SpanRecord> {
    traced_example_run("example1", workers)
}

fn traced_example_run(example: &str, workers: usize) -> Vec<SpanRecord> {
    aov_trace::clear();
    aov_trace::set_enabled(true);
    let report = Pipeline::for_example(example)
        .unwrap()
        .workers(workers)
        .memoize(false)
        .machine(true)
        .run()
        .expect("example runs");
    aov_trace::set_enabled(false);
    assert_eq!(report.equivalent, Some(true));
    aov_trace::drain()
}

#[test]
fn fingerprint_is_identical_across_worker_counts() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Warmup run: one-time lazy initialisation (thread-id assignment,
    // counter registration, allocator bookkeeping) must not pollute the
    // first fingerprinted run.
    let _ = traced_run(2);

    let records = traced_run(1);
    let baseline = fingerprint(&records);
    // The fingerprint is meaningful: of Example 1's 8 non-zero sign
    // patterns, Problem 1 solves the 4 whose bound does not exceed its
    // optimum (0, 1) and Problem 3 solves all 8 (its optimum (1, 2)
    // exceeds every bound), each allocating a fresh model. The analysis
    // builds the storage forms once per dependence for both problems, and
    // Problem 3 builds the generator rows of each dependence an orthant
    // reads: on Example 1, every one.
    let ndeps = aov_ir::analysis::dependences(&aov_ir::examples::example1()).len() as u64;
    assert_eq!(baseline["p1.orthant"].count, 4, "{baseline:?}");
    assert_eq!(baseline["aov.orthant"].count, 8, "{baseline:?}");
    assert_eq!(
        baseline["core.storage_forms_for_dep"].count, ndeps,
        "{baseline:?}"
    );
    assert_eq!(baseline["aov.generator_rows"].count, ndeps, "{baseline:?}");
    for (name, agg) in &baseline {
        assert!(agg.allocs > 0 && agg.bytes > 0, "{name}: {baseline:?}");
    }
    // Bit-width growth is charged to the innermost span doing the
    // arithmetic: the pivot loop itself, not its orthant ancestor.
    let lp_bits = records
        .iter()
        .filter(|r| r.name == "lp.simplex")
        .map(|r| r.max_bits)
        .max()
        .unwrap_or(0);
    assert!(lp_bits > 0, "simplex spans must report coefficient widths");

    // The worker count reaches only the machine stage: Example 2's
    // simulations fan out over `workers` threads while tracing.
    let baseline = fingerprint(&traced_example_run("example2", 1));
    for workers in 2..=4 {
        let got = fingerprint(&traced_example_run("example2", workers));
        assert_eq!(
            got, baseline,
            "allocation fingerprint drifted at --workers {workers}"
        );
    }
}

/// Two identical runs in the same process agree exactly — the counting
/// allocator itself adds no nondeterminism (its scope bookkeeping is
/// charged to the spans deterministically).
#[test]
fn fingerprint_is_identical_across_repeat_runs() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _ = traced_run(1); // warmup (see above)
    let first = fingerprint(&traced_run(3));
    let second = fingerprint(&traced_run(3));
    assert_eq!(first, second, "repeat runs must agree");
}

/// Example 2 has two 2-d arrays, so Problems 1 and 3 search each array's
/// 8 nonzero sign patterns on their own. Problem 1's optima (1, 0) leave
/// the 4 one-component patterns per array; Problem 3's (1, 1) is found at
/// the first two-component pattern, after the 4 one-component ones, so 5
/// per array. The fingerprint is the same at every worker count.
#[test]
fn example2_fingerprint_counts_orthants_per_array() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _ = traced_example_run("example2", 1); // warmup (see above)
    let baseline = fingerprint(&traced_example_run("example2", 1));
    assert_eq!(baseline["p1.orthant"].count, 8, "{baseline:?}");
    assert_eq!(baseline["aov.orthant"].count, 10, "{baseline:?}");
    assert_eq!(
        fingerprint(&traced_example_run("example2", 3)),
        baseline,
        "allocation fingerprint drifted at --workers 3"
    );
}
