//! Closed-loop benchmark of the paper pipeline: `.aov` source →
//! dependences → ℛ → Problems 1–3 → storage transform → equivalence.
//!
//! ```text
//! aov-perfbench --workload paper-cold|paper-warm --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root. One process drives one client: each
//! solve starts when the previous one has finished. A run sets up (read,
//! parse and validate example1, example2 and example4 from
//! `examples/*.aov` and build their pipelines; on `paper-warm` also
//! prime the LP memo with one pass), then solves the three programs in
//! passes, each pass in an order shuffled from `--seed`, until
//! `--seconds` have passed and the pass is complete. `setup_s` is the
//! median of repeated set-ups (see [`WARM_SETUPS`] and
//! [`COLD_SETUPS_PER_PASS`]).
//! Every solve is checked against the paper's AOVs (see `expected`),
//! `Health::Ok` and a dynamic equivalence verdict of `true`.
//!
//! * `paper-cold` empties the LP memo before every solve.
//! * `paper-warm` keeps the primed memo; every solve must miss it 0 times.
//!
//! A solve that breaks its workload's memo rule aborts the run (exit 3,
//! no result), so cold and warm numbers never mix.
//!
//! With `--trace 0` the run times `Pipeline::run` with tracing and
//! allocation counting off, as the `aov` CLI runs plain solves. Each
//! solve and set-up is timed between two samples of a fixed reference
//! kernel and reported scaled to the calibration machine's speed (see
//! `reference`); the unscaled medians are shown in the table. With
//! `--trace 1` each solve of a pass is made three times: untraced
//! through `Pipeline::run`, then through the ladder mirrored call by
//! call with counting armed (`layers`), then mirrored again with
//! `aov-trace` armed for the inner layers' self times.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Exit status: 0 every
//! check passed; 1 a check failed (the result line says so); 2 usage or
//! set-up error; 3 a memo guard tripped.

mod expected;
mod layers;
mod reference;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use aov_engine::{EngineError, Health, Pipeline, Report};
use aov_ir::Program;
use aov_lp::memo;
use aov_support::rng::mix;
use aov_support::{alloc, counters, Json, Rng};
use reference::Sampled;

/// The programs of both paper workloads, in canonical order.
const PROGRAMS: [&str; 3] = ["example1", "example2", "example4"];

/// `setup_s` is the median of repeated set-ups. A warm set-up solves a
/// whole cold pass, so a timed `paper-warm` run sets up this many times
/// before it starts solving.
const WARM_SETUPS: usize = 5;

/// A cold set-up takes well under a millisecond, so a timed
/// `paper-cold` run repeats it this many times before every pass: its
/// samples then span the run, as the solves do, and a burst of machine
/// load cannot own them all.
const COLD_SETUPS_PER_PASS: usize = 10;

/// A traced run makes at least this many passes, so the per-program
/// counts can be compared across passes (see [`Determinism`]).
const MIN_TRACED_PASSES: usize = 3;

/// `trace.reconcile` outside this band is flagged: the layer table
/// then does not explain the traced wall.
const RECONCILE_BAND: (f64, f64) = (0.9, 1.1);

/// Ladder stage calls, in ladder order (metric `<layer>_s`).
const STAGES: [&str; 10] = [
    "ir.validate",
    "ir.dependences",
    "schedule.legal_polyhedron",
    "schedule.find_schedule",
    "core.problem1",
    "core.aov",
    "core.problem2",
    "core.storage_transform",
    "core.codegen",
    "interp.equivalence",
];

/// Solver counters reported per pass; they must repeat exactly.
const COUNTS: [&str; 8] = [
    "lp.simplex.pivots",
    "lp.bb.nodes",
    "lp.memo.hits",
    "lp.memo.misses",
    "polyhedra.dd.conversions",
    "polyhedra.param.chambers",
    "polyhedra.param.chamber_splits",
    "polyhedra.fm.eliminations",
];

/// Inner `aov-trace` spans whose self time is reported
/// (metric `<span>.self_s`).
const SELF_SPANS: [&str; 6] = [
    "lp.simplex",
    "lp.canonicalize",
    "lp.memo.lookup",
    "farkas.model_build",
    "p2.chamber",
    "p2.dd.step",
];

struct Args {
    /// `paper-warm` (memo kept warm) rather than `paper-cold`.
    warm: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut warm = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                warm = Some(match value.as_str() {
                    "paper-cold" => false,
                    "paper-warm" => true,
                    _ => return Err(format!("unknown workload {value:?}")),
                });
            }
            "--seed" => seed = value.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        warm: warm.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Why a run stops without a result.
enum Fatal {
    /// Set-up failed: missing or malformed `.aov` files, a failed priming
    /// pass, an unreadable `/proc/self/status`.
    Setup(String),
    /// A cold solve found the memo non-empty, or a warm solve missed it.
    Guard(String),
}

/// One program of the workload, set up.
struct Case {
    name: &'static str,
    source: String,
    program: Program,
    pipeline: Pipeline,
}

/// Reads, parses and validates the programs and builds their pipelines.
fn load() -> Result<Vec<Case>, Fatal> {
    PROGRAMS
        .iter()
        .map(|&name| {
            let path = Path::new("examples").join(format!("{name}.aov"));
            let source = std::fs::read_to_string(&path)
                .map_err(|e| Fatal::Setup(format!("{}: {e}", path.display())))?;
            let program = aov_lang::parse(&source)
                .map_err(|d| Fatal::Setup(format!("{}: {d}", path.display())))?;
            program
                .validate()
                .map_err(|e| Fatal::Setup(format!("{}: {e}", path.display())))?;
            if program.name() != name {
                return Err(Fatal::Setup(format!(
                    "{} declares program {:?}",
                    path.display(),
                    program.name()
                )));
            }
            let pipeline = Pipeline::new(program.clone()).memoize(true).workers(1);
            Ok(Case {
                name,
                source,
                program,
                pipeline,
            })
        })
        .collect()
}

/// Sets up once and returns the cases with the set-up's timing. A warm
/// set-up also empties the memo and primes it with one pass.
fn set_up(warm: bool) -> Result<(Vec<Case>, Sampled), Fatal> {
    let (cases, timing) = reference::time(|| {
        let cases = load()?;
        if warm {
            memo::clear();
            for case in &cases {
                verify(case, &case.pipeline.run())
                    .map_err(|e| Fatal::Setup(format!("priming pass: {e}")))?;
            }
        }
        Ok(cases)
    });
    Ok((cases?, timing))
}

/// The order of the programs in pass `pass`.
fn pass_order(seed: u64, pass: usize, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(mix(seed, pass as u64)).shuffle(&mut order);
    order
}

/// Readies the memo for one solve: a cold solve starts from an empty
/// memo, a warm one from the primed memo as it is.
fn before_solve(warm: bool) -> Result<(), Fatal> {
    if !warm {
        memo::clear();
        let len = memo::len();
        if len != 0 {
            return Err(Fatal::Guard(format!(
                "cold solve starts with {len} memo entries"
            )));
        }
    }
    Ok(())
}

/// A warm solve must be served by the memo alone.
fn after_solve(warm: bool, case: &Case, misses: u64) -> Result<(), Fatal> {
    if warm && misses != 0 {
        return Err(Fatal::Guard(format!(
            "warm solve of {} missed the memo {misses} time(s)",
            case.name
        )));
    }
    Ok(())
}

/// `(array, AOV components)` of a report, in array order.
fn report_aov(r: &Report) -> Vec<(String, Vec<i64>)> {
    r.aov.as_ref().map_or_else(Vec::new, |aov| {
        r.arrays
            .iter()
            .zip(aov.vectors())
            .map(|(a, v)| (a.clone(), v.components().to_vec()))
            .collect()
    })
}

/// A verified solve is healthy, equivalent and finds the paper's AOVs.
fn verify(case: &Case, result: &Result<Report, EngineError>) -> Result<(), String> {
    let r = result.as_ref().map_err(|e| format!("{}: {e}", case.name))?;
    if r.health() != Health::Ok {
        return Err(format!("{}: health {}", case.name, r.health().name()));
    }
    if r.equivalent != Some(true) {
        return Err(format!("{}: equivalent = {:?}", case.name, r.equivalent));
    }
    expected::check(case.name, &report_aov(r))
}

/// Tally of the solves a run attempted.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED: {e}");
                false
            }
        }
    }
}

/// Median (mean of the middle two for even counts); NaN when empty.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile `q` of a sample.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set size (VmHWM) of this process, in MiB.
fn peak_rss_mb() -> Result<f64, Fatal> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| Fatal::Setup(format!("/proc/self/status: {e}")))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| Fatal::Setup("no VmHWM in /proc/self/status".to_string()))
}

/// Metrics in output order: `(name, value, unit)`.
type Metrics = Vec<(String, f64, &'static str)>;

/// Units whose values are whole numbers.
fn is_count(unit: &str) -> bool {
    matches!(unit, "count" | "bytes" | "bits")
}

/// One row of the human-readable metric table.
fn print_metric(name: &str, value: f64, unit: &str) {
    if is_count(unit) {
        println!("{name:<32} {value:>18} {unit}");
    } else {
        println!("{name:<32} {value:>18.6} {unit}");
    }
}

/// The timed run: `Pipeline::run` in a closed loop, end-to-end metrics.
/// Every timing is scaled to the calibration machine's speed by the
/// reference kernel sampled around it (see `reference`).
fn timed(
    args: &Args,
    cases: &[Case],
    mut setups: Vec<Sampled>,
    tally: &mut Tally,
) -> Result<Metrics, Fatal> {
    let warm = args.warm;
    let mut solves: Vec<Vec<Sampled>> = cases.iter().map(|_| Vec::new()).collect();
    let start = Instant::now();
    for pass in 0.. {
        if !warm {
            for _ in 0..COLD_SETUPS_PER_PASS {
                setups.push(set_up(false)?.1);
            }
        }
        for i in pass_order(args.seed, pass, cases.len()) {
            let case = &cases[i];
            before_solve(warm)?;
            let (result, timing) = reference::time(|| case.pipeline.run());
            if let Ok(r) = &result {
                after_solve(warm, case, r.counter("lp.memo.misses"))?;
            }
            if tally.record(verify(case, &result)) {
                solves[i].push(timing);
            }
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let scaled = |v: &[Sampled]| v.iter().map(Sampled::scaled).collect::<Vec<f64>>();
    let all: Vec<f64> = solves.iter().flat_map(|s| scaled(s)).collect();

    let mut m: Metrics = vec![
        ("setup_s".into(), median(&scaled(&setups)), "s"),
        ("solve_s.p50".into(), median(&all), "s"),
    ];
    for (case, s) in cases.iter().zip(&solves) {
        m.push((
            format!("{}.solve_s.p50", case.name),
            median(&scaled(s)),
            "s",
        ));
    }
    m.push((
        "solves_per_s".into(),
        all.len() as f64 / all.iter().sum::<f64>(),
        "1/s",
    ));
    m.push(("peak_rss_mb".into(), peak_rss_mb()?, "MB"));

    // Shown, but not in the result line: p90 needs ten solves beyond
    // it, and failed_frac is 0 whenever the result is correct.
    println!(
        "{:<32} {:>18} unit  ({} solves)",
        "metric",
        "value",
        all.len()
    );
    for (name, value, unit) in &m {
        print_metric(name, *value, unit);
    }
    if all.len() >= 100 {
        print_metric("solve_s.p90", quantile(&all, 0.9), "s");
    } else {
        println!(
            "{:<32} {:>18} s     (needs >= 100 solves)",
            "solve_s.p90", "-"
        );
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    print_metric("failed_frac", failed_frac, "ratio");
    // Unscaled, for reading the host's speed during the run.
    for (case, s) in cases.iter().zip(&solves) {
        let walls: Vec<f64> = s.iter().map(|t| t.wall).collect();
        print_metric(
            &format!("wall.{}.solve_s.p50", case.name),
            median(&walls),
            "s",
        );
    }
    let refs: Vec<f64> = setups
        .iter()
        .chain(solves.iter().flatten())
        .map(|t| t.reference)
        .collect();
    print_metric("reference.sample_s.p50", median(&refs), "s");
    Ok(m)
}

/// Per-program counts that must repeat exactly from solve to solve:
/// the solver counters always, the allocations of the counting-armed
/// mirror once the first pass has paid the process's one-time
/// initialization.
#[derive(Default)]
struct Determinism {
    counts: BTreeMap<&'static str, Vec<u64>>,
    allocs: BTreeMap<&'static str, (u64, u64)>,
    mismatches: Vec<String>,
}

impl Determinism {
    fn counts(&mut self, program: &'static str, solve: &layers::Solve) {
        let got: Vec<u64> = COUNTS.iter().map(|c| solve.counter(c)).collect();
        let want = self.counts.entry(program).or_insert_with(|| got.clone());
        if *want != got {
            self.mismatches
                .push(format!("{program}: counts {got:?}, earlier solve {want:?}"));
        }
    }

    fn allocs(&mut self, program: &'static str, pass: usize, solve: &layers::Solve) {
        let got = (
            solve.spans.iter().map(|s| s.allocs).sum(),
            solve.spans.iter().map(|s| s.alloc_bytes).sum(),
        );
        if pass == 0 {
            return;
        }
        let want = *self.allocs.entry(program).or_insert(got);
        if want != got {
            self.mismatches.push(format!(
                "{program}: (allocs, bytes) {got:?}, earlier pass {want:?}"
            ));
        }
    }
}

/// Checks a mirrored solve against the untraced report of the same pass.
fn verify_mirror(case: &Case, solve: &layers::Solve, untraced: &Report) -> Result<(), String> {
    if !solve.equivalent {
        return Err(format!("{}: traced solve not equivalent", case.name));
    }
    if solve.aov != report_aov(untraced) {
        return Err(format!(
            "{}: traced AOV {:?} differs from untraced {:?}",
            case.name,
            solve.aov,
            report_aov(untraced)
        ));
    }
    expected::check(case.name, &solve.aov)
}

/// The traced run: per-layer metrics (see the module docs).
fn traced(args: &Args, cases: &[Case], tally: &mut Tally) -> Result<(Metrics, bool), Fatal> {
    let warm = args.warm;
    let mut passes: Vec<BTreeMap<String, f64>> = Vec::new();
    let (mut untraced_walls, mut counted_walls, mut span_walls) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut det = Determinism::default();
    let start = Instant::now();
    for pass in 0.. {
        let mut sums: BTreeMap<String, f64> = BTreeMap::new();
        let mut add = |k: &str, v: f64| *sums.entry(k.to_string()).or_insert(0.0) += v;
        for i in pass_order(args.seed, pass, cases.len()) {
            let case = &cases[i];
            let t = Instant::now();
            let parsed = aov_lang::parse(&case.source);
            add("lang.parse_s", t.elapsed().as_secs_f64());
            std::hint::black_box(parsed.is_ok());

            // Untraced, as the timed runs solve.
            before_solve(warm)?;
            alloc::set_counting(false);
            let t = Instant::now();
            let result = case.pipeline.run();
            let secs = t.elapsed().as_secs_f64();
            alloc::set_counting(true);
            if let Ok(r) = &result {
                after_solve(warm, case, r.counter("lp.memo.misses"))?;
            }
            let verified = verify(case, &result);
            let (true, Ok(report)) = (tally.record(verified), &result) else {
                continue;
            };
            untraced_walls.push(secs);

            // Mirrored with counting armed: stage times, counts, allocations.
            before_solve(warm)?;
            let solve = layers::solve(&case.program, 1, &report.check_params);
            let Some(solve) = checked(tally, case, solve, report, warm)? else {
                continue;
            };
            counted_walls.push(solve.wall);
            det.counts(case.name, &solve);
            det.allocs(case.name, pass, &solve);
            for s in &solve.spans {
                add(&format!("{}_s", s.layer), s.secs);
                add("numeric.allocs", s.allocs as f64);
                add("numeric.alloc_bytes", s.alloc_bytes as f64);
            }
            for c in COUNTS {
                add(c, solve.counter(c) as f64);
            }
            add("stage_sum", solve.spans.iter().map(|s| s.secs).sum());
            add("stage_wall", solve.wall);

            // Mirrored with aov-trace armed: inner-layer self times.
            before_solve(warm)?;
            aov_trace::clear();
            aov_trace::set_enabled(true);
            let solve = layers::solve(&case.program, 1, &report.check_params);
            aov_trace::set_enabled(false);
            let flame = aov_trace::flame::FlameTable::build(&aov_trace::drain());
            let Some(solve) = checked(tally, case, solve, report, warm)? else {
                continue;
            };
            span_walls.push(solve.wall);
            det.counts(case.name, &solve);
            for name in SELF_SPANS {
                let self_ns = flame.row(name).map_or(0, |r| r.self_ns);
                add(&format!("{name}.self_s"), self_ns as f64 * 1e-9);
            }
        }
        passes.push(sums);
        if passes.len() >= MIN_TRACED_PASSES && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let per_pass = |k: &str| {
        median(
            &passes
                .iter()
                .map(|p| p.get(k).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    // Counts repeat exactly once the first pass is past; report the last.
    let last = |k: &str| passes.last().and_then(|p| p.get(k).copied()).unwrap_or(0.0);
    let mut m: Metrics = vec![("lang.parse_s".into(), per_pass("lang.parse_s"), "s")];
    for s in STAGES {
        let k = format!("{s}_s");
        m.push((k.clone(), per_pass(&k), "s"));
    }
    for c in COUNTS {
        m.push((c.into(), last(c), "count"));
    }
    let probes = last("lp.memo.hits") + last("lp.memo.misses");
    m.push((
        "lp.memo.hit_rate".into(),
        last("lp.memo.hits") / probes,
        "ratio",
    ));
    for name in SELF_SPANS {
        let k = format!("{name}.self_s");
        m.push((k.clone(), per_pass(&k), "s"));
    }
    m.push(("numeric.allocs".into(), last("numeric.allocs"), "count"));
    m.push((
        "numeric.alloc_bytes".into(),
        last("numeric.alloc_bytes"),
        "bytes",
    ));
    let bits =
        counters::counter("lp.solve.coeff_bits_max").load(std::sync::atomic::Ordering::Relaxed);
    m.push(("lp.solve.coeff_bits_max".into(), bits as f64, "bits"));
    let reconcile = median(
        &passes
            .iter()
            .map(|p| {
                p.get("stage_sum").copied().unwrap_or(0.0)
                    / p.get("stage_wall").copied().unwrap_or(0.0)
            })
            .collect::<Vec<_>>(),
    );
    m.push(("trace.reconcile".into(), reconcile, "ratio"));
    let untraced_p50 = median(&untraced_walls);
    m.push((
        "trace.overhead".into(),
        median(&counted_walls) / untraced_p50,
        "ratio",
    ));
    m.push((
        "trace.span_overhead".into(),
        median(&span_walls) / untraced_p50,
        "ratio",
    ));

    println!(
        "{:<32} {:>18} unit  ({} passes)",
        "metric",
        "value",
        passes.len()
    );
    for (name, value, unit) in &m {
        print_metric(name, *value, unit);
    }
    if !(RECONCILE_BAND.0..=RECONCILE_BAND.1).contains(&reconcile) {
        println!(
            "FLAG: trace.reconcile {reconcile:.4} is outside [{}, {}]: the layer table does not explain the traced wall",
            RECONCILE_BAND.0, RECONCILE_BAND.1
        );
    }
    for e in &det.mismatches {
        eprintln!("NONDETERMINISTIC: {e}");
    }
    Ok((m, det.mismatches.is_empty()))
}

/// Applies the workload's memo guard and the output checks to one
/// mirrored solve; `None` when the solve failed its checks.
fn checked(
    tally: &mut Tally,
    case: &Case,
    solve: Result<layers::Solve, String>,
    untraced: &Report,
    warm: bool,
) -> Result<Option<layers::Solve>, Fatal> {
    if let Ok(s) = &solve {
        after_solve(warm, case, s.counter("lp.memo.misses"))?;
    }
    let outcome = solve
        .as_ref()
        .map_err(|e| format!("{}: {e}", case.name))
        .and_then(|s| verify_mirror(case, s, untraced));
    Ok(tally.record(outcome).then(|| solve.ok()).flatten())
}

/// Sets up, then makes the timed or the traced run.
fn run(args: &Args, tally: &mut Tally) -> Result<(Metrics, bool), Fatal> {
    let reps = if args.warm && !args.trace {
        WARM_SETUPS
    } else {
        1
    };
    let mut setups = Vec::new();
    let mut cases = Vec::new();
    for _ in 0..reps {
        let (c, timing) = set_up(args.warm)?;
        cases = c;
        setups.push(timing);
    }
    if args.trace {
        traced(args, &cases, tally)
    } else {
        Ok((timed(args, &cases, setups, tally)?, true))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("aov-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Plain solves run with allocation counting off, as the CLI runs
    // them; the traced run arms it.
    alloc::set_counting(args.trace);
    let mut tally = Tally::default();
    let (metrics, deterministic) = match run(&args, &mut tally) {
        Ok(r) => r,
        Err(Fatal::Setup(e)) => {
            eprintln!("aov-perfbench: {e}");
            return ExitCode::from(2);
        }
        Err(Fatal::Guard(e)) => {
            eprintln!("aov-perfbench: memo guard: {e}; run aborted");
            return ExitCode::from(3);
        }
    };
    let correct = tally.failed == 0 && deterministic && tally.attempted > 0;
    let metrics = metrics
        .into_iter()
        .fold(Json::obj(), |obj, (name, value, unit)| {
            let value = if is_count(unit) {
                Json::Int(value as i64)
            } else {
                Json::Float(value)
            };
            obj.field(&name, Json::obj().field("value", value).field("unit", unit))
        });
    let result = Json::obj()
        .field("correct", correct)
        .field("attempted", tally.attempted)
        .field("failed", tally.failed)
        .field("metrics", metrics);
    println!("{}", result.to_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
