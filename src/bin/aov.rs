//! The `aov` command line: run the instrumented pipeline on one of the
//! paper's examples or a `.aov` source file and print a JSON report,
//! fuzz the pipeline differentially, inspect written artifacts, or run
//! and query the `aovd` solver daemon.
//!
//! ```text
//! aov <example1|example2|example3|example4|unschedulable|all> [options]
//! aov run FILE.aov [options]
//!
//!   (`unschedulable` is the degradation-ladder demo: a program with no
//!   one-dimensional affine schedule; the run exits 3 with a report
//!   naming the violated dependence)
//!
//!   `aov run` sends a textual program through the identical pipeline;
//!   a syntax or lowering error prints a caret diagnostic and exits 64.
//!
//!   --example NAME     load a built-in example *through the parser*
//!                      (the checked-in examples/NAME.aov corpus file)
//!                      instead of the hand-built constructor; positional
//!                      names keep the hand-built path
//!   --check            parse only: verify each file/example parses and
//!                      that print ∘ parse is a fixed point, then exit
//!                      without running the pipeline
//!
//!   --workers N        threads for the --machine simulations (default:
//!                      available parallelism, capped at 8); reports do
//!                      not depend on it
//!   --memoize          enable the LP memoization cache
//!   --machine          include the §6 simulated-speedup stage
//!   --params A,B       parameter sizes for the equivalence oracle
//!   --runs N           repeat the pipeline N times; the report carries
//!                      the fastest run plus a min/median timing block
//!   --compact          one-line JSON instead of pretty-printed
//!   --trace FILE       write a Chrome trace-event JSON (load it in
//!                      Perfetto or chrome://tracing); the file also
//!                      carries an "aovMetrics" snapshot merging the
//!                      span flame table with the solver counters
//!   --profile          print a per-example flame table and memo
//!                      hit-rate summary to stderr
//!   --mem              with --profile: also print the memory flame
//!                      table (allocations, bytes, peak live bytes and
//!                      max coefficient bit-width per span)
//!   --profile-out FILE write a schema-versioned `aov-profile/1` JSON
//!                      artifact (flame table, counters, identity
//!                      digests) for the run; render it with
//!                      `aov inspect` (single program only)
//!   --diag-dir DIR     write an `aov-diag/1` crash-diagnostic bundle
//!                      into DIR whenever a run degrades or fails: the
//!                      stage ladder, error chain, budget state,
//!                      counters, allocator snapshot and the flight
//!                      recorder's event tail (see `aov inspect`)
//!   --budget-pivots N  cap total simplex pivots per run; exceeding the
//!                      cap degrades the tripping stage (exit 3), it
//!                      never kills the process
//!   --budget-nodes N   cap total branch-and-bound nodes per run
//!   --budget-ms N      wall-clock deadline per run, milliseconds
//!   --chaos SPEC       arm one deterministic fault: site=<path>,
//!                      kind=error|panic|budget[,nth=N][,seed=S]
//!                      (the AOV_CHAOS environment variable takes the
//!                      same spec; the flag wins when both are set)
//!
//!   The flight recorder is always armed. The counting allocator's
//!   byte accounting arms only when one of `--profile`, `--mem`,
//!   `--trace`, `--profile-out` or `--diag-dir` will consume it; plain
//!   runs disarm it — their reports carry frozen alloc columns —
//!   keeping telemetry within its 1%-of-wall budget.
//!
//! aov fuzz [options]
//!
//!   Differential fuzzing: seeded random programs through the full
//!   pipeline. Every report is validated against the report schema, and
//!   each healthy run is re-checked by an independent oracle that
//!   rebuilds the storage transforms from the report's published AOV
//!   vectors and replays both executions through the interpreter.
//!   Mismatching or failing cases are shrunk to a minimal `.aov` repro
//!   plus a crash-diagnostic bundle. Deterministic: a campaign is a
//!   pure function of (--seed, --count, profile).
//!
//!   --seed S           campaign seed (default 1); case i uses
//!                      mix(S, i)
//!   --count N          number of cases (default 100)
//!   --quick            smaller programs, tighter budgets (CI smoke)
//!   --repro-dir DIR    where minimal repros and diag bundles land
//!                      (default fuzz-repros/)
//!   --out FILE         write the campaign summary JSON here
//!                      (default: stdout)
//!   --compact          one-line summary JSON
//!   --budget-pivots N  override the per-case work budget; wall-clock
//!   --budget-nodes N   budgets are refused (their trips are
//!                      nondeterministic)
//!
//!   exit: 0 clean, 1 any mismatch, 2 any failure or schema-invalid
//!   report (degraded cases — unschedulable seeds, budget trips — are
//!   expected and do not gate)
//!
//! aov inspect FILE [--check]
//!
//!   Render an `aov-diag/1` crash-diagnostic bundle (written via
//!   `--diag-dir`) — the error chain, the stage ladder with allocator
//!   columns, the budget state and the flight-recorder timeline tail —
//!   an `aov-profile/1` profile artifact (written via `--profile-out`)
//!   — the flame table with allocator columns and the counter table —
//!   or an `aov-serve/1` transcript (written via `aov client
//!   --transcript`). The schema tag in the file picks the renderer.
//!   With `--check`, validate against the matching schema instead and
//!   exit 0/1.
//!
//! aov --check-trace FILE
//!
//!   Validate a previously written trace: parse the JSON and assert it
//!   contains pipeline root spans. Exit 0 when well-formed.
//!
//! aov --check-report FILE
//!
//!   Validate a previously written pipeline report (healthy or
//!   degraded) against the engine's report schema. Exit 0 when valid.
//! ```
//!
//! Exit status mirrors the report's health:
//!
//! * `0` — every stage ran and dynamic equivalence holds
//! * `1` — pipeline complete but equivalence does not hold
//! * `2` — hard failure: a stage failed with a non-degradable error
//! * `3` — degraded: a budget tripped or a fault was isolated; the
//!   printed report says which stages degraded or were skipped and why
//! * `64` — usage error

use aov_engine::{BudgetSpec, Health, Pipeline};
use aov_fault::chaos;
use aov_support::{Json, ToJson};

/// One program request on the main command line, in the order given.
enum ProgramSpec {
    /// A positional example name — the hand-built constructor path.
    Builtin(String),
    /// `--example NAME` — the checked-in corpus file through the parser.
    Example(String),
    /// `aov run FILE.aov` — a user source file through the parser.
    File(String),
}

impl ProgramSpec {
    /// Display label for reports and error messages.
    fn label(&self) -> &str {
        match self {
            ProgramSpec::Builtin(s) | ProgramSpec::Example(s) | ProgramSpec::File(s) => s,
        }
    }
}

struct Options {
    programs: Vec<ProgramSpec>,
    check_syntax: bool,
    workers: usize,
    memoize: bool,
    machine: bool,
    params: Option<Vec<i64>>,
    runs: usize,
    compact: bool,
    trace: Option<String>,
    profile: bool,
    profile_out: Option<String>,
    mem: bool,
    diag_dir: Option<String>,
    check_trace: Option<String>,
    check_report: Option<String>,
    budget: BudgetSpec,
    chaos: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: aov <example1|example2|example3|example4|unschedulable|all> \
         [--workers N] [--memoize] \
         [--machine] [--params A,B,..] [--runs N] [--compact] \
         [--trace FILE] [--profile] [--profile-out FILE] \
         [--mem] [--diag-dir DIR] \
         [--budget-pivots N] \
         [--budget-nodes N] [--budget-ms N] [--chaos SPEC] \
         [--example NAME] [--check]\n       \
         aov run FILE.aov [same options]\n       \
         aov fuzz [--seed S] [--count N] [--quick] \
         [--repro-dir DIR] [--out FILE] [--compact] [--budget-pivots N] \
         [--budget-nodes N]\n       \
         aov inspect FILE [--check]\n       \
         aovd / aov aovd [--addr A] [--workers N] [--queue N] \
         [--no-memo] [--memo-capacity N] [--pivot-pool N] \
         [--deadline-ms N] [--diag-dir DIR] [--retry-after-ms N]\n       \
         aov client [--addr A] [--example NAME | FILE.aov | --stats | \
         --health | --shutdown] [--memoize] \
         [--budget-pivots N] [--budget-nodes N] [--budget-ms N] \
         [--deadline-ms N] [--chaos SPEC] [--retries N] \
         [--transcript FILE]\n       \
         aov --check-trace FILE\n       \
         aov --check-report FILE\n\n\
         exit codes: 0 ok, 1 inequivalent, 2 failed, \
         3 degraded, 64 usage"
    );
    std::process::exit(64);
}

/// Parses the shared `--budget-*` flags; returns whether `arg` was one.
fn parse_budget_flag(
    budget: &mut BudgetSpec,
    arg: &str,
    it: &mut std::slice::Iter<'_, String>,
) -> bool {
    let slot = match arg {
        "--budget-pivots" => &mut budget.pivots,
        "--budget-nodes" => &mut budget.nodes,
        "--budget-ms" => &mut budget.ms,
        _ => return false,
    };
    match it.next().and_then(|n| n.parse().ok()) {
        Some(n) => *slot = Some(n),
        None => usage(),
    }
    true
}

/// Worker threads for the machine stage by default: available
/// parallelism, capped at 8.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Parses the main command line; under `run_mode` (`aov run …`),
/// positional arguments are `.aov` file paths instead of example names.
fn parse(args: &[String], run_mode: bool) -> Options {
    let mut opts = Options {
        programs: Vec::new(),
        check_syntax: false,
        workers: default_workers(),
        memoize: false,
        machine: false,
        params: None,
        runs: 1,
        compact: false,
        trace: None,
        profile: false,
        profile_out: None,
        mem: false,
        diag_dir: None,
        check_trace: None,
        check_report: None,
        budget: BudgetSpec::default(),
        chaos: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if parse_budget_flag(&mut opts.budget, arg, &mut it) {
            continue;
        }
        match arg.as_str() {
            "--workers" => match it.next().and_then(|w| w.parse().ok()) {
                Some(w) => opts.workers = w,
                None => usage(),
            },
            "--memoize" => opts.memoize = true,
            "--machine" => opts.machine = true,
            "--params" => match it.next() {
                Some(spec) => {
                    let parsed: Option<Vec<i64>> =
                        spec.split(',').map(|s| s.trim().parse().ok()).collect();
                    match parsed {
                        Some(ps) if !ps.is_empty() => opts.params = Some(ps),
                        _ => usage(),
                    }
                }
                None => usage(),
            },
            "--runs" => match it.next().and_then(|r| r.parse().ok()) {
                Some(r) if r >= 1 => opts.runs = r,
                _ => usage(),
            },
            "--compact" => opts.compact = true,
            "--trace" => match it.next() {
                Some(f) => opts.trace = Some(f.clone()),
                None => usage(),
            },
            "--profile" => opts.profile = true,
            "--profile-out" => match it.next() {
                Some(f) => opts.profile_out = Some(f.clone()),
                None => usage(),
            },
            "--mem" => opts.mem = true,
            "--diag-dir" => match it.next() {
                Some(d) => opts.diag_dir = Some(d.clone()),
                None => usage(),
            },
            "--check-trace" => match it.next() {
                Some(f) => opts.check_trace = Some(f.clone()),
                None => usage(),
            },
            "--check-report" => match it.next() {
                Some(f) => opts.check_report = Some(f.clone()),
                None => usage(),
            },
            "--chaos" => match it.next() {
                Some(spec) => opts.chaos = Some(spec.clone()),
                None => usage(),
            },
            "--example" => match it.next() {
                Some(name) => opts.programs.push(ProgramSpec::Example(name.clone())),
                None => usage(),
            },
            "--check" => opts.check_syntax = true,
            "all" if !run_mode => {
                opts.programs
                    .extend((1..=4).map(|k| ProgramSpec::Builtin(format!("example{k}"))));
            }
            name if !name.starts_with('-') => opts.programs.push(if run_mode {
                ProgramSpec::File(name.to_string())
            } else {
                ProgramSpec::Builtin(name.to_string())
            }),
            _ => usage(),
        }
    }
    if opts.programs.is_empty() && opts.check_trace.is_none() && opts.check_report.is_none() {
        usage();
    }
    if opts.check_syntax
        && opts
            .programs
            .iter()
            .any(|s| matches!(s, ProgramSpec::Builtin(_)))
    {
        // --check is a parser-path mode; hand-built names have no
        // source text to check.
        usage();
    }
    if opts.profile_out.is_some() && opts.programs.len() != 1 {
        // One artifact, one program.
        eprintln!("aov: --profile-out expects exactly one program");
        std::process::exit(64);
    }
    opts
}

/// Reads and parses the source behind a parser-path program spec,
/// exiting 64 with a caret diagnostic on any syntax or lowering error.
fn load_source_program(spec: &ProgramSpec) -> (String, aov_ir::Program) {
    let (display, source) = match spec {
        ProgramSpec::Builtin(_) => unreachable!("builtin specs never take the parser path"),
        ProgramSpec::Example(name) => match aov_lang::corpus::source(name) {
            Some(src) => (format!("examples/{name}.aov"), src.to_string()),
            None => {
                eprintln!(
                    "aov: --example {name}: unknown (expected one of {})",
                    aov_lang::corpus::names().collect::<Vec<_>>().join(", ")
                );
                std::process::exit(64);
            }
        },
        ProgramSpec::File(path) => match std::fs::read_to_string(path) {
            Ok(src) => (path.clone(), src),
            Err(e) => {
                eprintln!("aov: {path}: {e}");
                std::process::exit(64);
            }
        },
    };
    match aov_lang::parse(&source) {
        Ok(p) => (display, p),
        Err(d) => {
            eprintln!("{}", d.render(&display));
            std::process::exit(64);
        }
    }
}

/// `--check`: parse every file/example and verify print ∘ parse is a
/// fixed point, without running the pipeline. Exits 64 on the first
/// diagnostic (inside [`load_source_program`]).
fn check_syntax_main(opts: &Options) -> i32 {
    let mut bad = 0;
    for spec in &opts.programs {
        let (display, program) = load_source_program(spec);
        let roundtrip = aov_lang::to_source(&program)
            .map_err(|e| e.to_string())
            .and_then(|src| {
                aov_lang::parse(&src)
                    .map_err(|d| d.to_string())
                    .map(|back| aov_lang::structural_eq(&program, &back))
            });
        match roundtrip {
            Ok(true) => eprintln!(
                "aov: {display}: ok (program {}, {} statement(s))",
                program.name(),
                program.statements().len()
            ),
            Ok(false) => {
                eprintln!("aov: {display}: print ∘ parse is not a fixed point");
                bad += 1;
            }
            Err(e) => {
                eprintln!("aov: {display}: not reprintable: {e}");
                bad += 1;
            }
        }
    }
    i32::from(bad > 0)
}

/// Validates a written pipeline report (healthy or degraded) against
/// [`aov_engine::report_schema`].
fn check_report(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("aov: {path}: {e}");
            return 1;
        }
    };
    let json = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("aov: {path}: invalid JSON: {e}");
            return 1;
        }
    };
    if let Err(errors) = aov_support::schema::validate(&json, &aov_engine::report_schema()) {
        eprintln!("aov: {path}: report schema violations:");
        for e in &errors {
            eprintln!("  {e}");
        }
        return 1;
    }
    let health = match json.get("health") {
        Some(Json::Str(h)) => h.clone(),
        _ => "unknown".to_string(),
    };
    eprintln!("aov: {path}: ok (health {health})");
    0
}

/// Validates a written trace file: parses the JSON back (through
/// `aov_support::json`) and requires at least one `pipeline.*` root span
/// among the trace events.
fn check_trace(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("aov: {path}: {e}");
            return 1;
        }
    };
    let json = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("aov: {path}: invalid JSON: {e}");
            return 1;
        }
    };
    let Some(Json::Arr(events)) = json.get("traceEvents") else {
        eprintln!("aov: {path}: no traceEvents array");
        return 1;
    };
    let pipeline_spans = events
        .iter()
        .filter(|e| matches!(e.get("name"), Some(Json::Str(n)) if n.starts_with("pipeline.")))
        .count();
    if pipeline_spans == 0 {
        eprintln!("aov: {path}: no pipeline root spans in trace");
        return 1;
    }
    eprintln!(
        "aov: {path}: ok ({} events, {pipeline_spans} pipeline spans)",
        events.len()
    );
    0
}

/// String field accessor with a `"?"` fallback for rendering.
fn jstr<'a>(j: &'a Json, key: &str) -> &'a str {
    match j.get(key) {
        Some(Json::Str(s)) => s,
        _ => "?",
    }
}

/// Integer field accessor with a `0` fallback for rendering.
fn jint(j: &Json, key: &str) -> i64 {
    match j.get(key) {
        Some(Json::Int(n)) => *n,
        _ => 0,
    }
}

/// Array field accessor with an empty fallback for rendering.
fn jarr<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    match j.get(key) {
        Some(Json::Arr(a)) => a,
        _ => &[],
    }
}

/// `aov inspect`: render (or, with `--check`, just validate) one
/// written artifact of a kind in [`INSPECT_KINDS`].
fn inspect_main(args: &[String]) -> i32 {
    let mut path: Option<&str> = None;
    let mut check = false;
    for arg in args {
        match arg.as_str() {
            "--check" => check = true,
            p if !p.starts_with('-') && path.is_none() => path = Some(p),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("aov inspect: {path}: {e}");
            return 1;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("aov inspect: {path}: invalid JSON: {e}");
            return 1;
        }
    };
    // The schema tag picks the schema and the renderer. Version gate
    // and schema validation run in both modes; --check just stops
    // after the verdict.
    let tag = match doc.get("schema") {
        Some(Json::Str(v)) => v.clone(),
        other => return unsupported_schema(path, &format!("{other:?}")),
    };
    let Some(&(_, schema, render)) = INSPECT_KINDS.iter().find(|k| k.0 == tag) else {
        return unsupported_schema(path, &format!("{tag:?}"));
    };
    if let Err(errors) = aov_support::schema::validate(&doc, &schema()) {
        eprintln!("aov inspect: {path}: schema violations:");
        for e in &errors {
            eprintln!("  {e}");
        }
        return 1;
    }
    if check {
        eprintln!("aov inspect: {path}: ok ({tag})");
        return 0;
    }
    render(path, &doc);
    0
}

/// A one-document kind `aov inspect` reads: its schema tag, the schema
/// it is validated against, and its renderer.
type InspectKind = (&'static str, fn() -> aov_support::Schema, fn(&str, &Json));

/// Every kind `aov inspect` reads.
const INSPECT_KINDS: [InspectKind; 3] = [
    (
        aov_engine::diag::SCHEMA,
        aov_engine::diag::diag_schema,
        render_bundle,
    ),
    (
        aov_engine::profile::SCHEMA,
        aov_engine::profile::profile_schema,
        render_profile_artifact,
    ),
    (
        aov_serve::protocol::SCHEMA,
        aov_serve::protocol::transcript_schema,
        render_transcript,
    ),
];

/// Refuses a document whose schema tag `aov inspect` does not read,
/// naming every tag it does.
fn unsupported_schema(path: &str, found: &str) -> i32 {
    let tags: Vec<&str> = INSPECT_KINDS.iter().map(|k| k.0).collect();
    eprintln!(
        "aov inspect: {path}: unsupported schema {found} (want one of {})",
        tags.join(", ")
    );
    1
}

/// Human rendering of a validated `aov-serve/1` transcript: one line
/// per captured frame, direction-tagged.
fn render_transcript(path: &str, doc: &Json) {
    let frames = jarr(doc, "frames");
    println!(
        "== {path}: aov-serve/1 transcript, {} frame(s) ==",
        frames.len()
    );
    for f in frames {
        let dir = jstr(f, "dir");
        let arrow = if dir == "send" { "->" } else { "<-" };
        let frame = f.get("frame").cloned().unwrap_or(Json::Null);
        println!("  {arrow} {}", frame.to_compact());
    }
}

/// Human rendering of a validated `aov-profile/1` artifact: identity,
/// the flame table with allocator columns, and the counter table.
fn render_profile_artifact(path: &str, doc: &Json) {
    println!(
        "== {path}: {} (health {}, wall {} µs) ==",
        jstr(doc, "program"),
        jstr(doc, "health"),
        jint(doc, "wall_us")
    );
    if let Some(id) = doc.get("identity") {
        println!(
            "engine {}, program digest {}, flame digest {}",
            jstr(id, "version"),
            jstr(id, "program_digest"),
            jstr(id, "flame_digest")
        );
    }
    let flame = jarr(doc, "flame");
    println!("\nflame ({} span name(s)):", flame.len());
    println!(
        "{:<34} {:>7} {:>12} {:>12} {:>9} {:>12} {:>8}",
        "span", "count", "total µs", "self µs", "allocs", "bytes", "max_bits"
    );
    // Artifact rows arrive in FlameTable order (total time, heaviest
    // first); render preserves it.
    for row in flame {
        println!(
            "{:<34} {:>7} {:>12} {:>12} {:>9} {:>12} {:>8}",
            jstr(row, "name"),
            jint(row, "count"),
            jint(row, "total_ns") / 1000,
            jint(row, "self_ns") / 1000,
            jint(row, "allocs"),
            jint(row, "alloc_bytes"),
            jint(row, "max_bits")
        );
    }
    let counters = jarr(doc, "counters");
    println!("\ncounters ({}):", counters.len());
    for c in counters {
        println!("  {:<40} {:>12}", jstr(c, "name"), jint(c, "count"));
    }
}

/// Human rendering of a validated bundle: identity, budget state, the
/// error chain, the stage ladder with allocator columns, the heaviest
/// allocating stages and the flight-recorder timeline tail.
fn render_bundle(path: &str, doc: &Json) {
    println!(
        "== {path}: {} (health {}) ==",
        jstr(doc, "program"),
        jstr(doc, "health")
    );
    if let Some(id) = doc.get("identity") {
        println!(
            "engine {}, program digest {}",
            jstr(id, "version"),
            jstr(id, "program_digest")
        );
    }
    if let Some(b) = doc.get("budget") {
        let limit = |k: &str| match b.get("limits").and_then(|l| l.get(k)) {
            Some(Json::Int(n)) => n.to_string(),
            _ => "-".to_string(),
        };
        println!(
            "workers {}, budget: pivots {} (spent {}), nodes {} (spent {}), \
             deadline {} ms",
            jint(doc, "workers"),
            limit("pivots"),
            jint(b, "pivots_spent"),
            limit("nodes"),
            jint(b, "nodes_spent"),
            limit("ms")
        );
    }
    match doc.get("error") {
        Some(err @ Json::Obj(_)) => {
            let stage = match err.get("stage") {
                Some(Json::Str(s)) => s.as_str(),
                _ => "?",
            };
            println!("\nerror (stage {stage}):");
            for (depth, link) in jarr(err, "chain").iter().enumerate() {
                if let Json::Str(s) = link {
                    let arrow = if depth == 0 { "" } else { "<- " };
                    println!("  {}{arrow}{s}", "  ".repeat(depth));
                }
            }
        }
        _ => println!("\nerror: none recorded"),
    }
    println!("\nstages:");
    println!(
        "{:<18} {:>8} {:>10} {:>9} {:>12} {:>12} {:>8}  reason",
        "stage", "outcome", "micros", "allocs", "bytes", "peak", "max_bits"
    );
    for s in jarr(doc, "stages") {
        let a = |k: &str| s.get("alloc").map_or(0, |a| jint(a, k));
        println!(
            "{:<18} {:>8} {:>10} {:>9} {:>12} {:>12} {:>8}  {}",
            jstr(s, "name"),
            jstr(s, "outcome"),
            jint(s, "micros"),
            a("allocs"),
            a("bytes"),
            a("peak"),
            a("max_bits"),
            match s.get("reason") {
                Some(Json::Str(r)) => r.as_str(),
                _ => "",
            }
        );
    }
    let mut by_bytes: Vec<(&str, i64)> = jarr(doc, "stages")
        .iter()
        .map(|s| {
            (
                jstr(s, "name"),
                s.get("alloc").map_or(0, |a| jint(a, "bytes")),
            )
        })
        .collect();
    by_bytes.sort_by_key(|entry| std::cmp::Reverse(entry.1));
    println!("\ntop allocation stages:");
    for (name, bytes) in by_bytes.iter().take(3) {
        println!("  {name:<18} {bytes:>12} bytes");
    }
    if let Some(events) = doc.get("events") {
        let ring = jarr(events, "ring");
        let tail = &ring[ring.len().saturating_sub(20)..];
        println!(
            "\ntimeline tail ({} of {} recorded events):",
            tail.len(),
            jint(events, "recorded")
        );
        for e in tail {
            println!(
                "  {:>14} ns  t{:<2} {:<12} {:<26} a={} b={}",
                jint(e, "t_ns"),
                jint(e, "thread"),
                jstr(e, "kind"),
                jstr(e, "label"),
                jint(e, "a"),
                jint(e, "b")
            );
        }
    }
}

/// `aov fuzz`: run a differential fuzzing campaign (see [`aov::fuzz`]).
fn fuzz_main(args: &[String]) -> i32 {
    let mut seed: u64 = 1;
    let mut count: usize = 100;
    let mut quick = false;
    let mut repro_dir: Option<String> = None;
    let mut out: Option<String> = None;
    let mut compact = false;
    let mut budget = BudgetSpec::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if parse_budget_flag(&mut budget, arg, &mut it) {
            continue;
        }
        match arg.as_str() {
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => usage(),
            },
            "--count" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => count = n,
                None => usage(),
            },
            "--quick" => quick = true,
            "--repro-dir" => match it.next() {
                Some(d) => repro_dir = Some(d.clone()),
                None => usage(),
            },
            "--out" => match it.next() {
                Some(f) => out = Some(f.clone()),
                None => usage(),
            },
            "--compact" => compact = true,
            _ => usage(),
        }
    }
    if budget.ms.is_some() {
        eprintln!(
            "aov fuzz: wall-clock budgets are nondeterministic; use --budget-pivots/--budget-nodes"
        );
        std::process::exit(64);
    }
    let mut cfg = if quick {
        aov::fuzz::FuzzConfig::quick(seed, count)
    } else {
        aov::fuzz::FuzzConfig::new(seed, count)
    };
    if let Some(p) = budget.pivots {
        cfg.budget.pivots = Some(p);
    }
    if let Some(n) = budget.nodes {
        cfg.budget.nodes = Some(n);
    }
    if let Some(dir) = repro_dir {
        cfg.repro_dir = dir.into();
    }
    // The oracle re-executes every healthy case through the
    // interpreter; per-event allocator accounting would dominate.
    aov_support::alloc::set_counting(false);
    eprintln!(
        "aov fuzz: seed {seed}, {count} case(s){}",
        if quick { ", quick" } else { "" }
    );
    let summary = aov::fuzz::run(&cfg, |case| {
        if case.verdict != aov::fuzz::Verdict::Ok {
            eprintln!(
                "aov fuzz: case {} ({}): {} — {}{}",
                case.index,
                case.program,
                case.verdict.name(),
                case.detail,
                case.repro
                    .as_ref()
                    .map_or(String::new(), |p| format!(" [repro {}]", p.display()))
            );
        }
    });
    eprintln!(
        "aov fuzz: {} ok, {} degraded, {} mismatch, {} failed, {} schema violation(s) in {} µs",
        summary.count(aov::fuzz::Verdict::Ok),
        summary.count(aov::fuzz::Verdict::Degraded),
        summary.count(aov::fuzz::Verdict::Mismatch),
        summary.count(aov::fuzz::Verdict::Failed),
        summary.schema_violations(),
        summary.total_micros
    );
    for (label, verdict) in [
        ("ok", aov::fuzz::Verdict::Ok),
        ("degraded", aov::fuzz::Verdict::Degraded),
    ] {
        if let Some((min, median, max)) = summary.timing(verdict) {
            eprintln!("aov fuzz: {label:<8} case wall µs: min {min}, median {median}, max {max}");
        }
    }
    let doc = summary.to_json();
    let text = if compact {
        let mut line = doc.to_compact();
        line.push('\n');
        line
    } else {
        doc.to_pretty()
    };
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("aov fuzz: cannot write {path}: {e}");
                return 2;
            }
            eprintln!("aov fuzz: summary written to {path}");
        }
        None => {
            use std::io::Write;
            let _ = std::io::stdout().write_all(text.as_bytes());
        }
    }
    summary.exit_code()
}

/// `aov aovd`: the persistent solver daemon. Binds, prints the
/// resolved address (CI captures it from the `listening on` line), and
/// serves until a `shutdown` frame or SIGTERM asks it to drain; both
/// paths complete queued and in-flight requests before exiting.
fn aovd_main(args: &[String]) -> i32 {
    let mut cfg = aov_serve::server::ServerConfig {
        addr: "127.0.0.1:7401".to_string(),
        ..aov_serve::server::ServerConfig::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => cfg.addr = a.clone(),
                None => usage(),
            },
            "--workers" => match it.next().and_then(|w| w.parse().ok()) {
                Some(w) => cfg.workers = w,
                None => usage(),
            },
            "--queue" => match it.next().and_then(|q| q.parse().ok()) {
                Some(q) => cfg.queue_limit = q,
                None => usage(),
            },
            "--no-memo" => cfg.memo = false,
            "--memo-capacity" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => cfg.memo_capacity = n,
                None => usage(),
            },
            "--pivot-pool" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => cfg.pivot_pool = Some(n),
                None => usage(),
            },
            "--deadline-ms" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => cfg.default_deadline_ms = Some(n),
                None => usage(),
            },
            "--diag-dir" => match it.next() {
                Some(d) => cfg.diag_dir = Some(d.into()),
                None => usage(),
            },
            "--retry-after-ms" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => cfg.retry_after_ms = n,
                None => usage(),
            },
            _ => usage(),
        }
    }
    // Daemon-level chaos comes from the environment only: there is no
    // --chaos flag here, mirroring how requests may not arm engine
    // sites either.
    if let Err(e) = chaos::install_from_env() {
        eprintln!("aovd: AOV_CHAOS: {e}");
        return 64;
    }
    let sigterm = aov_serve::server::sigterm_flag();
    let server = match aov_serve::server::Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("aovd: cannot start: {e}");
            return 2;
        }
    };
    println!("aovd: listening on {}", server.addr());
    loop {
        if sigterm.load(std::sync::atomic::Ordering::SeqCst) {
            eprintln!("aovd: SIGTERM, draining");
            server.drain();
        }
        if server.draining() {
            server.shutdown();
            eprintln!("aovd: drained cleanly");
            return 0;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

/// `aov client`: one request to a running `aovd`, with retry + backoff.
/// Exit code mirrors the daemon's verdict: a report's own `exit_code`,
/// 2 for error frames and transport failures, 0 for the plain frames.
fn client_main(args: &[String]) -> i32 {
    let mut cfg = aov_serve::client::ClientConfig::default();
    let mut options = aov_serve::protocol::SolveOptions::default();
    let mut program: Option<(String, bool)> = None; // (text, is_example)
    let mut plain: Option<&str> = None;
    let mut transcript_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if parse_budget_flag(&mut options.budget, arg, &mut it) {
            continue;
        }
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => cfg.addr = a.clone(),
                None => usage(),
            },
            "--example" => match it.next() {
                Some(name) => program = Some((name.clone(), true)),
                None => usage(),
            },
            "--stats" => plain = Some("stats"),
            "--health" => plain = Some("health"),
            "--shutdown" => plain = Some("shutdown"),
            "--memoize" => options.memoize = true,
            "--deadline-ms" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => options.deadline_ms = Some(n),
                None => usage(),
            },
            "--chaos" => match it.next() {
                Some(spec) => options.chaos = Some(spec.clone()),
                None => usage(),
            },
            "--retries" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => cfg.retries = n,
                None => usage(),
            },
            "--transcript" => match it.next() {
                Some(f) => transcript_path = Some(f.clone()),
                None => usage(),
            },
            path if !path.starts_with('-') => match std::fs::read_to_string(path) {
                Ok(text) => program = Some((text, false)),
                Err(e) => {
                    eprintln!("aov client: {path}: {e}");
                    return 2;
                }
            },
            _ => usage(),
        }
    }
    let request = match (plain, &program) {
        (Some(kind), _) => aov_serve::protocol::plain_frame(kind, 1),
        (None, Some((text, is_example))) => {
            aov_serve::protocol::solve_frame(1, (text.as_str(), *is_example), &options)
        }
        (None, None) => usage(),
    };
    let mut transcript = aov_serve::client::Transcript::default();
    let outcome = aov_serve::client::call(&cfg, &request, Some(&mut transcript));
    if let Some(path) = &transcript_path {
        if let Err(e) = std::fs::write(path, format!("{}\n", transcript.to_json().to_pretty())) {
            eprintln!("aov client: cannot write transcript {path}: {e}");
        }
    }
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.frame.to_pretty());
            if outcome.overloaded_retries > 0 {
                eprintln!(
                    "aov client: {} attempt(s), {} shed with overloaded",
                    outcome.attempts, outcome.overloaded_retries
                );
            }
            match outcome.frame.get("type") {
                Some(Json::Str(t)) if t == "report" => match outcome.frame.get("exit_code") {
                    Some(Json::Int(code)) => i32::try_from(*code).unwrap_or(2),
                    _ => 2,
                },
                Some(Json::Str(t)) if t == "error" => 2,
                _ => 0,
            }
        }
        Err(e) => {
            eprintln!("aov client: {e}");
            2
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("inspect") {
        std::process::exit(inspect_main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("fuzz") {
        std::process::exit(fuzz_main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("aovd") {
        std::process::exit(aovd_main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("client") {
        std::process::exit(client_main(&args[1..]));
    }
    let run_mode = args.first().map(String::as_str) == Some("run");
    let opts = parse(if run_mode { &args[1..] } else { &args }, run_mode);

    if let Some(path) = &opts.check_trace {
        std::process::exit(check_trace(path));
    }
    if let Some(path) = &opts.check_report {
        std::process::exit(check_report(path));
    }
    if opts.check_syntax {
        std::process::exit(check_syntax_main(&opts));
    }

    // Arm chaos injection: the --chaos flag wins over AOV_CHAOS.
    match &opts.chaos {
        Some(spec) => match chaos::ChaosSpec::parse(spec) {
            Ok(parsed) => chaos::install(parsed),
            Err(e) => {
                eprintln!("aov: --chaos: {e}");
                std::process::exit(64);
            }
        },
        None => {
            if let Err(e) = chaos::install_from_env() {
                eprintln!("aov: AOV_CHAOS: {e}");
                std::process::exit(64);
            }
        }
    }

    // Telemetry arming policy: the flight recorder always runs (its
    // ring feeds crash bundles and costs well under 1% of a run), but
    // the counting allocator's byte accounting only pays for itself
    // when something consumes the numbers — a flame table, a trace
    // file, or a crash bundle. Plain runs disarm it: Example 1 makes
    // ~27M heap operations in under half a second, so even a
    // nanosecond of per-event accounting busts the 1% telemetry
    // budget (see EXPERIMENTS.md for the measurements).
    let wants_alloc_telemetry = opts.profile
        || opts.mem
        || opts.trace.is_some()
        || opts.diag_dir.is_some()
        || opts.profile_out.is_some();
    if !wants_alloc_telemetry {
        aov_support::alloc::set_counting(false);
    }

    let tracing = opts.trace.is_some() || opts.profile || opts.profile_out.is_some();
    if tracing {
        aov_trace::set_enabled(true);
    }

    let mut reports = Vec::new();
    let mut all_records: Vec<aov_trace::SpanRecord> = Vec::new();
    let mut any_degraded = false;
    let mut any_inequivalent = false;
    for spec in &opts.programs {
        let name = &spec.label().to_string();
        // Program resolution runs inside the loop so the parser's
        // `lang.parse`/`lang.lower` spans land in --profile/--trace.
        let mut pipeline = match spec {
            ProgramSpec::Builtin(name) => match Pipeline::for_example(name) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("aov: {e}");
                    std::process::exit(64);
                }
            },
            parser_path => Pipeline::new(load_source_program(parser_path).1),
        };
        pipeline = pipeline
            .workers(opts.workers)
            .memoize(opts.memoize)
            .machine(opts.machine)
            .runs(opts.runs)
            .budget(opts.budget);
        if let Some(ps) = &opts.params {
            pipeline = pipeline.check_params(ps.clone());
        }
        if let Some(dir) = &opts.diag_dir {
            pipeline = pipeline.diag_dir(dir.clone());
        }
        match pipeline.run() {
            Ok(report) => {
                if tracing {
                    let records = aov_trace::drain();
                    if opts.profile {
                        print_profile(name, &records, &report, opts.mem);
                    }
                    if let Some(path) = &opts.profile_out {
                        let doc = aov_engine::profile::build_profile(
                            &report,
                            &records,
                            &pipeline.program_digest(),
                        );
                        if let Err(e) = std::fs::write(path, format!("{}\n", doc.to_pretty())) {
                            eprintln!("aov: cannot write profile {path}: {e}");
                            std::process::exit(1);
                        }
                        eprintln!("aov: {name}: profile artifact written to {path}");
                    }
                    all_records.extend(records);
                }
                if let Some(path) = &report.diag_path {
                    eprintln!("aov: {name}: diagnostic bundle written to {path}");
                }
                match report.health() {
                    Health::Ok => {}
                    Health::Degraded | Health::Failed => {
                        any_degraded = true;
                        for stage in report.stages.iter().filter(|s| s.outcome.class() != "ok") {
                            eprintln!(
                                "aov: {name}: {} {}: {}",
                                stage.name,
                                stage.outcome.class(),
                                stage.outcome.reason().unwrap_or("")
                            );
                        }
                    }
                }
                any_inequivalent |= report.equivalent == Some(false);
                reports.push(report.to_json());
            }
            Err(e) => {
                // Hard failure: non-degradable error (illegal schedule
                // override, unsupported program, stage abort).
                eprintln!("aov: {name}: {e}");
                if let Some(dir) = &opts.diag_dir {
                    eprintln!("aov: {name}: diagnostic bundle written into {dir}");
                }
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = &opts.trace {
        let metrics =
            aov_trace::metrics::snapshot(&all_records, &aov_support::counters::snapshot());
        let doc = aov_trace::chrome::chrome_trace(&all_records).field("aovMetrics", metrics);
        if let Err(e) = std::fs::write(path, doc.to_pretty()) {
            eprintln!("aov: cannot write trace {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("aov: trace written to {path} ({} spans)", all_records.len());
    }

    let json = if reports.len() == 1 {
        reports.pop().unwrap()
    } else {
        Json::Arr(reports)
    };
    let text = if opts.compact {
        let mut line = json.to_compact();
        line.push('\n');
        line
    } else {
        json.to_pretty()
    };
    // Ignore broken pipes (e.g. `aov … | head`).
    use std::io::Write;
    let _ = std::io::stdout().write_all(text.as_bytes());
    std::process::exit(if any_degraded {
        3
    } else if any_inequivalent {
        1
    } else {
        0
    });
}

/// Per-example profile: flame table plus the run's memo economics;
/// `mem` adds the allocator/numeric-growth columns.
fn print_profile(
    name: &str,
    records: &[aov_trace::SpanRecord],
    report: &aov_engine::Report,
    mem: bool,
) {
    eprintln!("== profile: {name} ({} spans) ==", records.len());
    let table = aov_trace::flame::FlameTable::build(records);
    eprint!("{}", table.render());
    if mem {
        eprintln!("-- memory --");
        eprint!("{}", table.render_mem());
    }
    let hits = report.counter("lp.memo.hits");
    let misses = report.counter("lp.memo.misses");
    match report.memo_hit_rate() {
        Some(rate) => eprintln!(
            "memo: {hits} hits / {} lookups ({:.1}% hit rate)",
            hits + misses,
            rate * 100.0
        ),
        None => eprintln!("memo: no lookups"),
    }
    eprintln!();
}
