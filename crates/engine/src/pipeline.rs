//! The instrumented end-to-end pipeline.
//!
//! A [`Pipeline`] runs one program through the paper's full tool chain —
//! dependence analysis, the legal-schedule polyhedron, Problems 1/2/3,
//! the storage transformation, code generation and the dynamic
//! equivalence oracle — as named stages. Every stage records its
//! wall-clock time and the delta of every global solver counter
//! (`lp.simplex.pivots`, `polyhedra.fm.eliminations`, …), so a single
//! run doubles as a profile of where the analysis effort goes. When
//! [`aov-trace`](aov_trace) is enabled, each stage also opens a root
//! span (`pipeline.<stage>`) under which every solver span nests — the
//! CLI's `--trace`/`--profile` flags build on this.
//!
//! Problems 1 and 3 solve each array's sign orthants in one sequential loop
//! ordered by lower bound, so a run's answers, counters and allocations
//! do not depend on the configured worker count (which only the
//! machine-model stage uses).
//!
//! # Degradation ladder
//!
//! Stages form a ladder rather than a chain: each one records a
//! [`StageOutcome`], and a recoverable failure (budget trip, worker
//! panic, injected fault, unschedulable program, no vector found)
//! *degrades* the run instead of aborting it. A program with no 1-D
//! affine schedule still gets its AOV-only stages; an AOV solver that
//! runs out of budget falls back to the schedule-independent UOV
//! baseline; downstream stages that genuinely need a missing artifact
//! are `Skipped` with a reason. Only invalid requests (unknown example,
//! wrong parameter count, illegal schedule override) abort the run with
//! a hard [`EngineError`]. [`Report::health`] summarizes the ladder.

use std::cell::OnceCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use aov_core::problems::{self, OvResult, DEFAULT_SEARCH_RADIUS};
use aov_core::transform::StorageTransform;
use aov_core::{codegen, uov, CoreError};
use aov_fault::{AovError, Budget};
use aov_interp::exec::Instances;
use aov_interp::validate::matches_reference;
use aov_interp::InterpError;
use aov_ir::{analysis, examples, Dependence, Program};
use aov_machine::experiments::{example2_points, example3_points, SpeedupPoint};
use aov_machine::MachineConfig;
use aov_polyhedra::PolyhedraError;
use aov_schedule::{legal, scheduler, Analysis, Schedule};
use aov_support::context::{self, Context, Tally};
use aov_support::{Json, ToJson};

/// Errors from running a pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A solver stage failed.
    Core(CoreError),
    /// No legal one-dimensional affine schedule exists.
    Schedule(String),
    /// The request is outside the engine's fragment (unknown program,
    /// wrong parameter count, …).
    Unsupported(String),
    /// A fault at the service layer, before any stage ran (the `aovd`
    /// daemon's `serve.*` chaos probes and worker panics).
    Service(String),
}

impl EngineError {
    /// Whether the degradation ladder may continue past this error.
    /// Solver incapacity and runtime faults (budgets, panics, injected
    /// errors) degrade; invalid requests (unknown program, wrong
    /// parameters, illegal schedule override) abort the run.
    fn is_degradable(&self) -> bool {
        matches!(self, EngineError::Core(_))
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Core(e) => write!(f, "solver error: {e}"),
            EngineError::Schedule(m) => write!(f, "scheduling error: {m}"),
            EngineError::Unsupported(m) => write!(f, "unsupported: {m}"),
            EngineError::Service(m) => write!(f, "service fault: {m}"),
        }
    }
}

impl std::error::Error for EngineError {
    /// Exposes the wrapped solver error so diagnostic bundles can walk
    /// the full `source()` chain down to the budget trip or panic.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}

impl From<scheduler::ScheduleError> for EngineError {
    fn from(e: scheduler::ScheduleError) -> Self {
        EngineError::Core(CoreError::from(e))
    }
}

/// Per-stage verdict in the degradation ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageOutcome {
    /// The stage completed normally.
    Ok,
    /// The stage hit a recoverable failure: it either delivered a weaker
    /// result (e.g. the UOV fallback) or no result, but the pipeline
    /// carried on. The reason says what happened.
    Degraded { reason: String },
    /// The stage did not run because a prerequisite degraded.
    Skipped { reason: String },
    /// The stage failed hard; the run was aborted after recording it.
    Failed { error: String },
}

impl StageOutcome {
    /// Stable machine-readable class (`ok`/`degraded`/`skipped`/`failed`).
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            StageOutcome::Ok => "ok",
            StageOutcome::Degraded { .. } => "degraded",
            StageOutcome::Skipped { .. } => "skipped",
            StageOutcome::Failed { .. } => "failed",
        }
    }

    /// The reason/error text, when there is one.
    #[must_use]
    pub fn reason(&self) -> Option<&str> {
        match self {
            StageOutcome::Ok => None,
            StageOutcome::Degraded { reason } | StageOutcome::Skipped { reason } => Some(reason),
            StageOutcome::Failed { error } => Some(error),
        }
    }
}

/// Whole-run verdict, derived from the stage outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Every stage completed normally.
    Ok,
    /// At least one stage degraded or was skipped; the report carries
    /// partial results and the per-stage reasons.
    Degraded,
    /// A stage failed hard.
    Failed,
}

impl Health {
    /// Stable machine-readable name (`ok`/`degraded`/`failed`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Health::Ok => "ok",
            Health::Degraded => "degraded",
            Health::Failed => "failed",
        }
    }
}

/// One executed stage: its name, wall-clock time and the solver-counter
/// increments it caused.
#[derive(Debug, Clone)]
pub struct StageReport {
    pub name: &'static str,
    pub micros: u128,
    /// `(counter name, increment)` for every counter the stage moved in
    /// its run (a max counter's entry is the rise of the run's mark).
    pub counters: Vec<(String, u64)>,
    /// Stage-specific payload (vectors, schedule text, code, …).
    pub detail: Json,
    /// Where the stage landed on the degradation ladder.
    pub outcome: StageOutcome,
    /// Heap allocations the stage performed, its fan-out workers
    /// included (charged to the stage's telemetry context).
    pub allocs: u64,
    /// Bytes allocated while the stage ran.
    pub alloc_bytes: u64,
    /// Peak live heap bytes observed during the stage (absolute, not a
    /// delta: the high-water of total live memory while it ran).
    pub alloc_peak: u64,
    /// Rise of the run's numeric-growth high-water mark (max
    /// coefficient bit-width, see [`aov_support::alloc::record_bits`])
    /// caused by this stage. `0` means the stage did not widen any
    /// coefficient beyond what earlier stages of the run already
    /// reached; the cumulative sum across stages is the run's maximum.
    pub max_bits: u64,
    /// The `source()` chain of the error behind a `Degraded`/`Failed`
    /// outcome, outermost first; empty for `Ok`/`Skipped` stages.
    pub error_chain: Vec<String>,
}

impl ToJson for StageReport {
    fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| Json::obj().field("name", k.as_str()).field("count", *v))
            .collect::<Vec<_>>();
        let mut json = Json::obj()
            .field("name", self.name)
            .field("outcome", self.outcome.class());
        if let Some(reason) = self.outcome.reason() {
            json = json.field("reason", reason);
        }
        if !self.error_chain.is_empty() {
            json = json.field(
                "error_chain",
                self.error_chain
                    .iter()
                    .map(|e| Json::from(e.as_str()))
                    .collect::<Vec<_>>(),
            );
        }
        json.field("micros", self.micros as i64)
            .field("counters", counters)
            .field(
                "alloc",
                Json::obj()
                    .field("allocs", clamped_int(self.allocs))
                    .field("bytes", clamped_int(self.alloc_bytes))
                    .field("peak", clamped_int(self.alloc_peak))
                    .field("max_bits", clamped_int(self.max_bits)),
            )
            .field("detail", self.detail.clone())
    }
}

/// A `u64` as a [`Json::Int`], saturating instead of wrapping negative.
fn clamped_int(v: u64) -> Json {
    Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Min/median of one timing metric across repeated runs (lower
/// nearest-rank median, so values stay exact microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    pub min: u128,
    pub median: u128,
}

impl Stat {
    /// Aggregates a non-empty sample.
    ///
    /// # Panics
    ///
    /// On an empty sample.
    #[must_use]
    pub fn of(mut sample: Vec<u128>) -> Stat {
        sample.sort_unstable();
        Stat {
            min: sample[0],
            median: sample[(sample.len() - 1) / 2],
        }
    }
}

impl ToJson for Stat {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("min", self.min as i64)
            .field("median", self.median as i64)
    }
}

/// Timing aggregation over repeated pipeline runs (see
/// [`Pipeline::runs`]): min/median of the total and of every stage.
/// Min is the noise-resistant headline (best observed run, warm caches
/// included); median shows how typical that best case is.
#[derive(Debug, Clone)]
pub struct RunTiming {
    /// Number of repetitions aggregated.
    pub runs: usize,
    /// Whole-pipeline wall clock, microseconds.
    pub total_micros: Stat,
    /// Per-stage wall clock, microseconds, in stage order.
    pub stages: Vec<(&'static str, Stat)>,
}

impl ToJson for RunTiming {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("runs", self.runs)
            .field("total_micros", self.total_micros.to_json())
            .field(
                "stages",
                self.stages
                    .iter()
                    .map(|(name, stat)| {
                        Json::obj()
                            .field("name", *name)
                            .field("micros", stat.to_json())
                    })
                    .collect::<Vec<_>>(),
            )
    }
}

/// Budget limits a pipeline run executes under (`None` = unlimited).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetSpec {
    /// Max simplex pivots across the whole run.
    pub pivots: Option<u64>,
    /// Max branch-and-bound nodes across the whole run.
    pub nodes: Option<u64>,
    /// Wall-clock deadline in milliseconds. Unlike the work limits,
    /// wall-clock trips are inherently nondeterministic.
    pub ms: Option<u64>,
}

impl BudgetSpec {
    fn to_budget(self) -> Budget {
        Budget::new(self.pivots, self.nodes, self.ms)
    }

    fn field_of(v: Option<u64>) -> Json {
        v.map_or(Json::Null, |n| Json::Int(n as i64))
    }
}

impl ToJson for BudgetSpec {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("pivots", Self::field_of(self.pivots))
            .field("nodes", Self::field_of(self.nodes))
            .field("ms", Self::field_of(self.ms))
    }
}

/// The result of a full pipeline run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Program name (`example1` … `example4`).
    pub program: String,
    /// The configured worker count (see [`Pipeline::workers`]).
    pub workers: usize,
    /// Whether LP memoization was on.
    pub memoized: bool,
    /// Executed stages, in order.
    pub stages: Vec<StageReport>,
    /// Problem 1 result: the shortest OV per array under the schedule
    /// the `schedule` stage settled on (found or overridden). `None`
    /// when the stage degraded or was skipped.
    pub ov: Option<OvResult>,
    /// Problem 3 result: the AOV per array, in array order — or the UOV
    /// fallback (see [`Report::aov_source`]). `None` when the stage
    /// degraded with no fallback.
    pub aov: Option<OvResult>,
    /// Which solver produced [`Report::aov`]: `"generators"` names the
    /// paper's exact Problem 3 solver, which reads Theorem 1 off the
    /// generators of ℛ (see [`problems::aov_budgeted`]), `"uov"` the
    /// schedule-independent fallback.
    pub aov_source: Option<&'static str>,
    /// Names of the arrays, aligned with [`Report::aov`].
    pub arrays: Vec<String>,
    /// Transformed pseudo-code under the AOV storage mapping; `None`
    /// when codegen was skipped.
    pub code: Option<String>,
    /// Dynamic equivalence verdict (original vs transformed+scheduled);
    /// `None` when the check could not run.
    pub equivalent: Option<bool>,
    /// Parameter values used by the equivalence oracle.
    pub check_params: Vec<i64>,
    /// Total wall-clock across stages.
    pub total_micros: u128,
    /// Counter values charged to *this run's* telemetry context — never
    /// another run's, concurrent or earlier, in the same process.
    pub counters: Vec<(String, u64)>,
    /// Min/median timing across repetitions; `None` for single runs
    /// (the default), so one-run reports keep their historical shape.
    pub timing: Option<RunTiming>,
    /// The budget configuration the run executed under.
    pub budget: BudgetSpec,
    /// Path of the crash-diagnostic bundle this run wrote, when a
    /// degraded run had a `--diag-dir` configured.
    pub diag_path: Option<String>,
}

impl Report {
    /// The stage with the given name, if it ran.
    pub fn stage(&self, name: &str) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// A minimal report for unit tests of artifact builders.
    #[cfg(test)]
    pub(crate) fn empty_for_test(program: &str) -> Report {
        Report {
            program: program.to_string(),
            workers: 1,
            memoized: false,
            stages: Vec::new(),
            ov: None,
            aov: None,
            aov_source: None,
            arrays: Vec::new(),
            code: None,
            equivalent: None,
            check_params: Vec::new(),
            total_micros: 0,
            counters: Vec::new(),
            timing: None,
            budget: BudgetSpec::default(),
            diag_path: None,
        }
    }

    /// Whole-run verdict: `Failed` if any stage failed hard, `Degraded`
    /// if any stage degraded or was skipped, `Ok` otherwise.
    #[must_use]
    pub fn health(&self) -> Health {
        let mut health = Health::Ok;
        for s in &self.stages {
            match s.outcome {
                StageOutcome::Failed { .. } => return Health::Failed,
                StageOutcome::Degraded { .. } | StageOutcome::Skipped { .. } => {
                    health = Health::Degraded;
                }
                StageOutcome::Ok => {}
            }
        }
        health
    }

    /// Sum of one counter across all stages.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.stages
            .iter()
            .flat_map(|s| &s.counters)
            .filter(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// One per-run counter (0 when it never moved during this run).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// LP-memo hit rate for this run, `None` when no lookups happened
    /// (memoization off, or no LP reached the cache).
    pub fn memo_hit_rate(&self) -> Option<f64> {
        let hits = self.counter("lp.memo.hits");
        let total = hits + self.counter("lp.memo.misses");
        #[allow(clippy::cast_precision_loss)]
        (total > 0).then(|| hits as f64 / total as f64)
    }
}

impl ToJson for Report {
    fn to_json(&self) -> Json {
        let vectors = match &self.aov {
            Some(aov) => Json::Arr(
                self.arrays
                    .iter()
                    .zip(aov.vectors())
                    .map(|(name, v)| {
                        Json::obj().field("array", name.as_str()).field(
                            "vector",
                            v.components()
                                .iter()
                                .map(|&c| Json::Int(c))
                                .collect::<Vec<_>>(),
                        )
                    })
                    .collect::<Vec<_>>(),
            ),
            None => Json::Null,
        };
        let code = match &self.code {
            Some(code) => Json::Arr(code.lines().map(Json::from).collect::<Vec<_>>()),
            None => Json::Null,
        };
        let mut json = Json::obj()
            .field("program", self.program.as_str())
            .field("workers", self.workers)
            .field("memoized", self.memoized)
            .field("health", self.health().name())
            .field("total_micros", self.total_micros as i64)
            .field("aov", vectors)
            .field("aov_source", self.aov_source.map_or(Json::Null, Json::from))
            .field(
                "objective",
                self.aov
                    .as_ref()
                    .map_or(Json::Null, |a| Json::Int(a.objective())),
            )
            .field("equivalent", self.equivalent.map_or(Json::Null, Json::Bool))
            .field(
                "check_params",
                self.check_params
                    .iter()
                    .map(|&p| Json::Int(p))
                    .collect::<Vec<_>>(),
            )
            .field("code", code)
            .field("budget", self.budget.to_json())
            .field(
                "counters",
                self.counters
                    .iter()
                    .map(|(k, v)| Json::obj().field("name", k.as_str()).field("count", *v))
                    .collect::<Vec<_>>(),
            )
            .field(
                "memo",
                Json::obj()
                    .field("hits", self.counter("lp.memo.hits"))
                    .field("misses", self.counter("lp.memo.misses"))
                    .field(
                        "hit_rate",
                        self.memo_hit_rate().map_or(Json::Null, Json::Float),
                    ),
            )
            .field("stages", self.stages.to_json());
        if let Some(timing) = &self.timing {
            json = json.field("timing", timing.to_json());
        }
        if let Some(path) = &self.diag_path {
            json = json.field("diag_path", path.as_str());
        }
        json
    }
}

/// Structural schema of [`Report::to_json`] — degraded and healthy
/// reports alike must match it. `aov --check-report` and the CI
/// chaos-smoke step validate emitted documents against this shape, so
/// no fault class may produce an unparseable or truncated report.
pub fn report_schema() -> aov_support::schema::Schema {
    use aov_support::schema::Schema;
    let counters = counters_schema();
    let aov_entry = Schema::object([
        ("array", Schema::Str, true),
        ("vector", Schema::array(Schema::Int), true),
    ]);
    let stage = stage_schema();
    let budget = Schema::object([
        ("pivots", Schema::nullable(Schema::Int), true),
        ("nodes", Schema::nullable(Schema::Int), true),
        ("ms", Schema::nullable(Schema::Int), true),
    ]);
    Schema::object([
        ("program", Schema::Str, true),
        ("workers", Schema::Int, true),
        ("memoized", Schema::Bool, true),
        ("health", Schema::Str, true),
        ("total_micros", Schema::Int, true),
        ("aov", Schema::nullable(Schema::array(aov_entry)), true),
        ("aov_source", Schema::nullable(Schema::Str), true),
        ("objective", Schema::nullable(Schema::Int), true),
        ("equivalent", Schema::nullable(Schema::Bool), true),
        ("check_params", Schema::array(Schema::Int), true),
        ("code", Schema::nullable(Schema::array(Schema::Str)), true),
        ("budget", budget, true),
        ("counters", counters, true),
        (
            "memo",
            Schema::object([
                ("hits", Schema::Int, true),
                ("misses", Schema::Int, true),
                ("hit_rate", Schema::nullable(Schema::Num), true),
            ]),
            true,
        ),
        ("stages", Schema::array(stage), true),
        ("timing", Schema::Any, false),
        ("diag_path", Schema::Str, false),
    ])
}

/// Schema of one `counters` array (`[{name, count}]`); shared by the
/// run report and the diagnostic bundle.
pub(crate) fn counters_schema() -> aov_support::schema::Schema {
    use aov_support::schema::Schema;
    Schema::array(Schema::object([
        ("name", Schema::Str, true),
        ("count", Schema::Int, true),
    ]))
}

/// Schema of one [`StageReport`] JSON object; shared by the run report
/// and the diagnostic bundle (whose `stages` array is the same shape).
pub(crate) fn stage_schema() -> aov_support::schema::Schema {
    use aov_support::schema::Schema;
    Schema::object([
        ("name", Schema::Str, true),
        ("outcome", Schema::Str, true),
        ("reason", Schema::Str, false),
        ("error_chain", Schema::array(Schema::Str), false),
        ("micros", Schema::Int, true),
        ("counters", counters_schema(), true),
        (
            "alloc",
            Schema::object([
                ("allocs", Schema::Int, true),
                ("bytes", Schema::Int, true),
                ("peak", Schema::Int, true),
                ("max_bits", Schema::Int, true),
            ]),
            true,
        ),
        ("detail", Schema::Any, true),
    ])
}

/// A configured pipeline over one program.
#[derive(Debug, Clone)]
pub struct Pipeline {
    program: Program,
    workers: usize,
    memoize: bool,
    machine: bool,
    params: Option<Vec<i64>>,
    runs: usize,
    schedule_override: Option<Schedule>,
    budget: BudgetSpec,
    diag_dir: Option<std::path::PathBuf>,
    session: u64,
}

impl Pipeline {
    /// A sequential pipeline over `program` with the machine-model stage
    /// off and default equivalence-check parameter sizes.
    pub fn new(program: Program) -> Self {
        Pipeline {
            program,
            workers: 1,
            memoize: false,
            machine: false,
            params: None,
            runs: 1,
            schedule_override: None,
            budget: BudgetSpec::default(),
            diag_dir: None,
            session: 0,
        }
    }

    /// A pipeline over one of the paper's named examples
    /// (`example1` … `example4`), or the `unschedulable` demo program
    /// that exercises the degradation ladder end to end.
    ///
    /// # Errors
    ///
    /// [`EngineError::Unsupported`] for an unknown name.
    pub fn for_example(name: &str) -> Result<Self, EngineError> {
        let program = match name {
            "example1" => examples::example1(),
            "example2" => examples::example2(),
            "example3" => examples::example3(),
            "example4" => examples::example4(),
            "unschedulable" => examples::unschedulable(),
            other => {
                return Err(EngineError::Unsupported(format!(
                    "unknown example {other:?} (expected example1..example4 or unschedulable)"
                )))
            }
        };
        Ok(Pipeline::new(program))
    }

    /// FNV-1a digest of the program IR — the identity stamped into diag
    /// bundles and `aov-profile/1` artifacts, so either document can be
    /// matched to the exact input that produced it.
    #[must_use]
    pub fn program_digest(&self) -> String {
        aov_support::digest::fnv1a_hex(format!("{:?}", self.program).as_bytes())
    }

    /// Worker threads for the machine-model speedup stage (`<= 1`
    /// means sequential), the only stage that spreads over threads. Its
    /// workers charge the stage, so the answers and counters of a run do
    /// not depend on it; the stage's allocations grow only by what
    /// starting the threads costs.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Whether this run's LPs probe the process-global memo
    /// ([`aov_lp::memo`]): an LP canonically equal to one solved before,
    /// in this run or an earlier memoized one, is then served from it.
    /// The flag is the run context's; `true` also turns on the root's
    /// ([`context::memoize_root`]), for solves outside any run.
    pub fn memoize(mut self, on: bool) -> Self {
        self.memoize = on;
        self
    }

    /// Enables the machine-model speedup stage (§6 of the paper;
    /// simulated only for `example2` and `example3`).
    pub fn machine(mut self, on: bool) -> Self {
        self.machine = on;
        self
    }

    /// Overrides the parameter sizes for the dynamic equivalence check.
    pub fn check_params(mut self, params: Vec<i64>) -> Self {
        self.params = Some(params);
        self
    }

    /// Caps one run's simplex pivots, branch-and-bound nodes and wall
    /// clock. Exceeding a cap degrades the tripping stage; work caps
    /// trip deterministically, deadlines do not. A cap the run never
    /// reaches changes nothing in its report but the echoed `budget`.
    pub fn budget(mut self, spec: BudgetSpec) -> Self {
        self.budget = spec;
        self
    }

    /// Writes a crash-diagnostic bundle (`aov-diag/1`, see
    /// [`crate::diag`]) into `dir` whenever a run lands anywhere but
    /// [`Health::Ok`] — including hard failures, whose partial stage
    /// ladder is preserved — or completes healthy but with dynamic
    /// equivalence refuted. The directory is created on demand.
    pub fn diag_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.diag_dir = Some(dir.into());
        self
    }

    /// Attributes this run to a session (0 = none, the default). A
    /// session-attributed run shares the process-global flight-recorder
    /// ring with concurrent runs instead of clearing it, stamps its
    /// events with `id`, and filters its crash bundles down to its own
    /// timeline — this is how the `aovd` daemon keeps one request's
    /// bundle from carrying a neighbor's events.
    pub fn session(mut self, id: u64) -> Self {
        self.session = id;
        self
    }

    /// Repeats the whole pipeline `runs` times (`<= 1` means once).
    /// The returned report is the *fastest* run, with a
    /// [`RunTiming`] min/median summary attached so single-run noise
    /// stops polluting timing comparisons. Results are identical across
    /// repetitions; only timings (and cache warmth) vary.
    pub fn runs(mut self, runs: usize) -> Self {
        self.runs = runs.max(1);
        self
    }

    /// Pins the `schedule` stage to a caller-provided schedule instead
    /// of searching. The schedule must be legal for the program —
    /// Problem 1 then reports the shortest OVs *under that schedule*
    /// (this is how the figure suite reproduces Figure 3's row-parallel
    /// scenario through the instrumented pipeline).
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule_override = Some(schedule);
        self
    }

    /// Runs every stage and collects the instrumented report; with
    /// [`Pipeline::runs`] `> 1`, repeats and returns the fastest run
    /// plus a min/median timing summary.
    ///
    /// # Errors
    ///
    /// Only hard failures (invalid request) abort with [`EngineError`];
    /// recoverable faults degrade the report instead — see
    /// [`Report::health`].
    pub fn run(&self) -> Result<Report, EngineError> {
        if self.runs <= 1 {
            return self.run_once();
        }
        let mut reports: Vec<Report> = Vec::with_capacity(self.runs);
        for _ in 0..self.runs {
            reports.push(self.run_once()?);
        }
        let stage_names: Vec<&'static str> = reports[0].stages.iter().map(|s| s.name).collect();
        let timing = RunTiming {
            runs: self.runs,
            total_micros: Stat::of(reports.iter().map(|r| r.total_micros).collect()),
            stages: stage_names
                .iter()
                .map(|&name| {
                    let sample = reports
                        .iter()
                        .map(|r| r.stage(name).map_or(0, |s| s.micros))
                        .collect();
                    (name, Stat::of(sample))
                })
                .collect(),
        };
        let best = reports
            .into_iter()
            .min_by_key(|r| r.total_micros)
            .expect("at least one run");
        Ok(Report {
            timing: Some(timing),
            ..best
        })
    }

    /// One full pass over every stage of the ladder, plus the
    /// crash-diagnostic hook: any run that lands off [`Health::Ok`]
    /// (including hard failures, whose partial ladder survives) writes
    /// an `aov-diag/1` bundle when a [`Pipeline::diag_dir`] is set.
    fn run_once(&self) -> Result<Report, EngineError> {
        let check_params = self.resolved_params()?;
        if self.memoize {
            context::memoize_root();
        }
        // Session-free runs own the process: a fresh flight-recorder
        // ring per run, so a crash bundle carries this run's event
        // tail, not a previous run's. Session-attributed runs share
        // the ring with concurrent neighbors — they must not clear it;
        // their events are stamped instead and bundles filter on the
        // stamp.
        if self.session == 0 {
            aov_trace::recorder::clear();
        }
        let run = Context::child(
            (self.session != 0).then_some(self.session),
            Some(self.memoize),
        );
        let entered = run.enter();
        // A fresh budget per run: repeated runs each get the full
        // allowance, and the deadline clock starts here.
        let budget = self.budget.to_budget();
        let mut stages: Vec<StageReport> = Vec::new();
        let t_start = Instant::now();
        let out = self.ladder(&budget, &check_params, &mut stages);
        let total_micros = t_start.elapsed().as_micros();
        drop(entered);
        let run_counters = run.counters();
        drop(run);
        match out {
            Ok(out) => {
                let mut report = Report {
                    program: self.program.name().to_string(),
                    workers: self.workers,
                    memoized: self.memoize,
                    arrays: self
                        .program
                        .arrays()
                        .iter()
                        .map(|a| a.name().to_string())
                        .collect(),
                    ov: out.ov,
                    aov: out.aov,
                    aov_source: out.aov_source,
                    code: out.code,
                    equivalent: out.equivalent,
                    check_params,
                    total_micros,
                    counters: run_counters,
                    stages,
                    timing: None,
                    budget: self.budget,
                    diag_path: None,
                };
                // Refuted equivalence is as diagnosable as a degraded
                // run: the transform executed but changed semantics, so
                // the bundle hook fires for it too (the fuzz harness
                // leans on this to capture mismatch evidence).
                if report.health() != Health::Ok || report.equivalent == Some(false) {
                    report.diag_path = self.write_diag(
                        &report.stages,
                        &budget,
                        &report.counters,
                        report.health(),
                        None,
                    );
                }
                Ok(report)
            }
            Err(e) => {
                // Hard failure: there is no report, but the partial
                // ladder, the recorder ring and the budget state still
                // describe what happened.
                self.write_diag(&stages, &budget, &run_counters, Health::Failed, Some(&e));
                Err(e)
            }
        }
    }

    /// Writes the crash-diagnostic bundle when a `--diag-dir` is
    /// configured, returning its path. I/O problems are swallowed into
    /// a counter — a failing diagnostic write must never mask the run's
    /// own verdict.
    fn write_diag(
        &self,
        stages: &[StageReport],
        budget: &Budget,
        run_counters: &[(String, u64)],
        health: Health,
        error: Option<&EngineError>,
    ) -> Option<String> {
        let dir = self.diag_dir.as_ref()?;
        match crate::diag::write_bundle(
            dir,
            &self.program,
            self.workers,
            health,
            stages,
            budget,
            self.budget,
            run_counters,
            error,
            self.session,
        ) {
            Ok(path) => {
                aov_support::static_counter!("engine.diag.bundles").add(1);
                Some(path.display().to_string())
            }
            Err(_) => {
                aov_support::static_counter!("engine.diag.write_failed").add(1);
                None
            }
        }
    }

    /// The stage ladder proper. Stage reports land in `stages`, which
    /// outlives an early hard-failure return so crash bundles keep the
    /// partial ladder.
    fn ladder(
        &self,
        budget: &Budget,
        check_params: &[i64],
        stages: &mut Vec<StageReport>,
    ) -> Result<LadderOut, EngineError> {
        let p = &self.program;

        run_stage(stages, "ir", || {
            p.validate()
                .map_err(|e| EngineError::Unsupported(format!("invalid program: {e}")))?;
            done(
                (),
                Json::obj()
                    .field("statements", p.statements().len())
                    .field("arrays", p.arrays().len())
                    .field("params", p.params().len()),
            )
        })?;

        let deps: Option<Vec<Dependence>> = run_stage(stages, "dependences", || {
            let deps = analysis::dependences(p);
            let detail = Json::obj().field("count", deps.len());
            done(deps, detail)
        })?;
        let shared = SharedAnalysis {
            p,
            deps: deps.as_deref(),
            cell: OnceCell::new(),
        };

        run_stage(stages, "legal_schedule", || {
            let a = shared.get()?;
            done(
                (),
                Json::obj()
                    .field("space_dim", a.space().dim())
                    .field("constraints", a.legal().constraints().len()),
            )
        })?;

        let sched: Option<Schedule> = run_stage(stages, "schedule", || {
            let a = shared.get()?;
            let (sched, overridden) = match &self.schedule_override {
                Some(s) => {
                    if !a.is_legal(s) {
                        return Err(EngineError::Schedule(
                            "overridden schedule violates a dependence".to_string(),
                        ));
                    }
                    (s.clone(), true)
                }
                None => match a.schedule(budget) {
                    Ok(s) => (s, false),
                    // No 1-D affine schedule: degrade with a diagnostic
                    // naming the violated dependence; the AOV-only
                    // stages still run.
                    Err(scheduler::ScheduleError::Infeasible) => {
                        return Err(EngineError::Core(CoreError::Fault(
                            AovError::Unschedulable {
                                detail: legal::unschedulable_diagnostic(a),
                            },
                        )))
                    }
                    Err(e) => return Err(e.into()),
                },
            };
            let detail = Json::obj()
                .field("theta", sched.display(p).to_string())
                .field("overridden", overridden);
            done(sched, detail)
        })?;

        let ov: Option<OvResult> = match &sched {
            None => skip_stage(stages, "problem1", "no schedule to optimize against"),
            Some(s) => run_stage(stages, "problem1", || {
                let ov = problems::ov_for_schedule_budgeted(shared.get()?, s, budget)?;
                let detail = ov_detail(p, &ov);
                done(ov, detail)
            })?,
        };

        let aov_pair: Option<(OvResult, &'static str)> = run_stage(stages, "aov", || {
            match shared.get().and_then(|a| problems::aov_budgeted(a, budget)) {
                Ok(aov) => {
                    let detail = ov_detail(p, &aov);
                    done((aov, "generators"), detail)
                }
                Err(e) => {
                    let e = EngineError::Core(e);
                    if !e.is_degradable() {
                        return Err(e);
                    }
                    // Exact solver unavailable: degrade to the
                    // schedule-independent UOV baseline. The
                    // fallback is deliberately unbudgeted — it must
                    // stay reachable when the budget is spent — and
                    // needs only the dependences, so it also stays
                    // reachable when the linearization failed.
                    let Some(deps) = shared
                        .deps
                        .or_else(|| shared.get().ok().map(Analysis::deps))
                    else {
                        return Err(e);
                    };
                    match uov::shortest_uov_all(p, deps, DEFAULT_SEARCH_RADIUS) {
                        Ok(u) => {
                            let detail = ov_detail(p, &u).field("fallback", "uov");
                            Ok((
                                (u, "uov"),
                                detail,
                                StageOutcome::Degraded {
                                    reason: format!("{e}; fell back to schedule-independent UOVs"),
                                },
                            ))
                        }
                        Err(_) => Err(e),
                    }
                }
            }
        })?;
        let (aov, aov_source) = match aov_pair {
            Some((a, src)) => (Some(a), Some(src)),
            None => (None, None),
        };

        let sched2: Option<Schedule> = match &aov {
            None => skip_stage(
                stages,
                "problem2",
                "no occupancy vectors to schedule against",
            ),
            Some(aov_r) => run_stage(stages, "problem2", || {
                let sched2 = problems::best_schedule_for_ov_budgeted(
                    shared.get()?,
                    aov_r.vectors(),
                    budget,
                )?;
                let detail = Json::obj().field("theta", sched2.display(p).to_string());
                done(sched2, detail)
            })?,
        };

        let transforms: Option<Vec<StorageTransform>> = match &aov {
            None => skip_stage(stages, "storage_transform", "no occupancy vectors to apply"),
            Some(aov_r) => run_stage(stages, "storage_transform", || {
                let transforms = p
                    .arrays()
                    .iter()
                    .enumerate()
                    .zip(aov_r.vectors())
                    .map(|((aidx, _), v)| StorageTransform::new(p, aov_ir::ArrayId(aidx), v))
                    .collect::<Result<Vec<_>, _>>()?;
                let detail = transforms
                    .iter()
                    .map(|t| {
                        Json::obj()
                            .field("array", t.array_name())
                            .field("dims", t.transformed_dim())
                            .field("modulation", t.modulation())
                    })
                    .collect::<Vec<_>>();
                done(transforms, Json::Arr(detail))
            })?,
        };

        let code: Option<String> = match &transforms {
            None => skip_stage(stages, "codegen", "no storage transform to print"),
            Some(ts) => run_stage(stages, "codegen", || {
                let code = codegen::transformed_code(p, ts);
                let detail = Json::obj().field("lines", code.lines().count());
                done(code, detail)
            })?,
        };

        let equivalent: Option<bool> = match (&transforms, &sched, &sched2) {
            (None, _, _) => skip_stage(stages, "equivalence", "no storage transform to validate"),
            (Some(_), None, None) => {
                skip_stage(stages, "equivalence", "no schedule to execute under")
            }
            (Some(ts), s1, s2) => run_stage(stages, "equivalence", || {
                // The AOV must work under every available schedule: the
                // dependence-only one and the storage-constrained one
                // from Problem 2. Both runs share one lowering of the
                // instances and compare against the schedule-free
                // reference values. At a certified AOV the two are the
                // same schedule, interpreted once for both verdicts.
                let interp = |e: InterpError| EngineError::Unsupported(format!("equivalence: {e}"));
                let instances = Instances::new(p, check_params).map_err(interp)?;
                let reference = instances.reference().map_err(interp)?;
                let run = |s: &Schedule| {
                    let _span = aov_trace::span!("equivalence.interpret");
                    matches_reference(&instances, &reference, s, ts).map_err(interp)
                };
                let found = s1.as_ref().map(run).transpose()?;
                let best = match s2 {
                    Some(s) if s1.as_ref() == Some(s) => found,
                    s2 => s2.as_ref().map(run).transpose()?,
                };
                let mut detail = Json::obj();
                if let Some(ok) = found {
                    detail = detail.field("under_found_schedule", ok);
                }
                if let Some(ok) = best {
                    detail = detail.field("under_best_schedule", ok);
                }
                let verdict = found.unwrap_or(true) && best.unwrap_or(true);
                done(verdict, detail)
            })?,
        };

        if self.machine {
            self.machine_stage(stages)?;
        }

        Ok(LadderOut {
            ov,
            aov,
            aov_source,
            code,
            equivalent,
        })
    }

    /// The §6 simulated-speedup stage (Figures 15/16); a no-op detail
    /// for programs without a machine model.
    fn machine_stage(&self, stages: &mut Vec<StageReport>) -> Result<(), EngineError> {
        let name = self.program.name().to_string();
        let workers = self.workers;
        run_stage(stages, "machine", move || {
            let cfg = MachineConfig::scaled_down();
            let procs = [1, 2, 4, 8];
            let points: Option<Vec<SpeedupPoint>> = match name.as_str() {
                "example2" => Some(fan_out_points(
                    &procs,
                    workers,
                    &example2_points(&cfg, 64, 64),
                )),
                "example3" => Some(fan_out_points(
                    &procs,
                    workers,
                    &example3_points(&cfg, 12, 24, 24),
                )),
                _ => None,
            };
            let detail = match &points {
                None => Json::obj().field("simulated", false),
                Some(pts) => Json::obj().field("simulated", true).field(
                    "speedups",
                    pts.iter()
                        .map(|pt| {
                            Json::obj()
                                .field("procs", pt.procs)
                                .field("original", pt.original)
                                .field("transformed", pt.transformed)
                        })
                        .collect::<Vec<_>>(),
                ),
            };
            done((), detail)
        })?;
        Ok(())
    }

    /// Parameter sizes for the equivalence oracle: the caller's override,
    /// or per-example defaults compatible with each program's
    /// `param_min` bounds.
    fn resolved_params(&self) -> Result<Vec<i64>, EngineError> {
        let want = self.program.params().len();
        if let Some(ps) = &self.params {
            if ps.len() != want {
                return Err(EngineError::Unsupported(format!(
                    "{} takes {} parameter(s), got {}",
                    self.program.name(),
                    want,
                    ps.len()
                )));
            }
            return Ok(ps.clone());
        }
        Ok(match self.program.name() {
            "example3" => vec![4, 4, 4],
            "example4" => vec![6],
            _ => vec![8; want],
        })
    }
}

/// The run's one [`Analysis`], built on first use: by the
/// `legal_schedule` stage, or — when an injected fault knocked that stage
/// out before it built the analysis — by the first later stage that
/// needs it, so every stage records the outcome it would on its own.
/// Never cached beyond one run: a cold run must measure it.
struct SharedAnalysis<'a> {
    p: &'a Program,
    /// The `dependences` stage's output (`None` when it degraded).
    deps: Option<&'a [Dependence]>,
    cell: OnceCell<Result<Analysis<'a>, PolyhedraError>>,
}

impl<'a> SharedAnalysis<'a> {
    fn get(&self) -> Result<&Analysis<'a>, CoreError> {
        self.cell
            .get_or_init(|| match self.deps {
                Some(deps) => Analysis::with_deps(self.p, deps),
                None => Analysis::new(self.p),
            })
            .as_ref()
            .map_err(|e| CoreError::Polyhedra(e.clone()))
    }
}

/// What the stage ladder hands back to [`Pipeline::run_once`] for the
/// final report (everything else lives in the stage reports).
struct LadderOut {
    ov: Option<OvResult>,
    aov: Option<OvResult>,
    aov_source: Option<&'static str>,
    code: Option<String>,
    equivalent: Option<bool>,
}

/// Shorthand for a stage body that completed normally.
fn done<T>(value: T, detail: Json) -> Result<(T, Json, StageOutcome), EngineError> {
    Ok((value, detail, StageOutcome::Ok))
}

/// Records a `Skipped` stage and yields no value.
fn skip_stage<T>(stages: &mut Vec<StageReport>, name: &'static str, reason: &str) -> Option<T> {
    stages.push(StageReport {
        name,
        micros: 0,
        counters: Vec::new(),
        detail: Json::Null,
        outcome: StageOutcome::Skipped {
            reason: reason.to_string(),
        },
        allocs: 0,
        alloc_bytes: 0,
        alloc_peak: 0,
        max_bits: 0,
        error_chain: Vec::new(),
    });
    None
}

/// Walks an error's `source()` chain into display strings, outermost
/// first. Consecutive identical links (transparent wrappers whose
/// `Display` just forwards) collapse into one.
pub(crate) fn error_chain_of(e: &dyn std::error::Error) -> Vec<String> {
    let mut chain = vec![e.to_string()];
    let mut cur = e.source();
    while let Some(next) = cur {
        chain.push(next.to_string());
        cur = next.source();
    }
    chain.dedup();
    chain
}

/// Maps each processor count to its speedup point, in input order, over
/// `workers` scoped threads (`<= 1` means sequential), worker `w` taking
/// every `threads`-th count from the `w`-th. Each worker enters the
/// calling thread's telemetry context, so the stage is charged for every
/// point whatever the worker count.
fn fan_out_points(
    procs: &[usize],
    workers: usize,
    point: &(dyn Fn(usize) -> SpeedupPoint + Sync),
) -> Vec<SpeedupPoint> {
    let threads = workers.min(procs.len());
    if threads <= 1 {
        return procs.iter().map(|&p| point(p)).collect();
    }
    let ctx = context::current();
    let mut per_worker: Vec<std::vec::IntoIter<SpeedupPoint>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let ctx = &ctx;
                s.spawn(move || {
                    let _entered = ctx.enter();
                    let mine = procs.iter().skip(w).step_by(threads);
                    mine.map(|&p| point(p)).collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .map(Vec::into_iter)
            .collect()
    });
    (0..procs.len())
        .map(|k| {
            per_worker[k % threads]
                .next()
                .expect("every point simulated")
        })
        .collect()
}

/// Runs `f` as the named stage of the ladder: opens the
/// `pipeline.<name>` span, fires the chaos probe, isolates panics,
/// times the body and charges it to a child telemetry context of the
/// run, whose tally becomes the stage's counters. A degradable error
/// (solver incapacity, budget trip, worker panic, injected fault)
/// records a `Degraded` outcome and returns `Ok(None)` so the pipeline
/// continues; a hard error records `Failed` and aborts the run.
fn run_stage<T>(
    stages: &mut Vec<StageReport>,
    name: &'static str,
    f: impl FnOnce() -> Result<(T, Json, StageOutcome), EngineError>,
) -> Result<Option<T>, EngineError> {
    use aov_support::alloc;
    use aov_trace::recorder::{self, EventKind};

    let site = format!("pipeline.{name}");
    // A full span when tracing; with tracing off the stage's own
    // StageEnter/StageExit events are its ring record, so a lite span
    // would only repeat them.
    let _span = aov_trace::hot_span!(site.clone());
    recorder::record(EventKind::StageEnter, name, stages.len() as u64, 0);
    let stage = Context::child(None, None);
    let entered = stage.enter();
    // Per-stage peak: reset the high-water to the current live level so
    // `alloc_peak` reports the peak *during* this stage (still an
    // absolute live-byte level, not a delta).
    alloc::reset_peak();
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        aov_fault::chaos::tick(&site).map_err(|e| EngineError::Core(CoreError::Fault(e)))?;
        f()
    }))
    .unwrap_or_else(|payload| {
        Err(EngineError::Core(CoreError::Fault(AovError::from_panic(
            &site,
            payload.as_ref(),
        ))))
    });
    let micros = t0.elapsed().as_micros();
    drop(entered);
    let alloc_peak = alloc::stats().peak.max(0) as u64;
    let Tally {
        counters,
        allocs,
        bytes: alloc_bytes,
        max_bits,
    } = stage.finish();
    let (value, detail, outcome, error_chain, hard_error) = match result {
        Ok((value, detail, outcome)) => (Some(value), detail, outcome, Vec::new(), None),
        Err(e) => {
            let error_chain = error_chain_of(&e);
            let (outcome, hard_error) = if e.is_degradable() {
                let reason = e.to_string();
                (StageOutcome::Degraded { reason }, None)
            } else {
                let error = e.to_string();
                (StageOutcome::Failed { error }, Some(e))
            };
            (None, Json::Null, outcome, error_chain, hard_error)
        }
    };
    let outcome_code = match outcome {
        StageOutcome::Ok => 0,
        StageOutcome::Degraded { .. } => 1,
        StageOutcome::Skipped { .. } => 2,
        StageOutcome::Failed { .. } => 3,
    };
    // Close the stage window (a = micros, b = outcome/error class
    // ordinal). The stage's counters travel in its `StageReport`, which a
    // crash bundle carries next to the ring tail.
    let micros_u64 = u64::try_from(micros).unwrap_or(u64::MAX);
    recorder::record(EventKind::StageExit, name, micros_u64, outcome_code);
    stages.push(StageReport {
        name,
        micros,
        counters,
        detail,
        outcome,
        allocs,
        alloc_bytes,
        alloc_peak,
        max_bits,
        error_chain,
    });
    hard_error.map_or(Ok(value), Err)
}

/// Shared detail payload for the occupancy-vector stages.
fn ov_detail(p: &Program, ov: &OvResult) -> Json {
    let vectors = p
        .arrays()
        .iter()
        .zip(ov.vectors())
        .map(|(a, v)| {
            Json::obj().field("array", a.name()).field(
                "vector",
                v.components()
                    .iter()
                    .map(|&c| Json::Int(c))
                    .collect::<Vec<_>>(),
            )
        })
        .collect::<Vec<_>>();
    Json::obj()
        .field("objective", ov.objective())
        .field("vectors", vectors)
}

/// Convenience: run the instrumented pipeline on a named example.
///
/// # Errors
///
/// As for [`Pipeline::run`].
pub fn run_example(name: &str) -> Result<Report, EngineError> {
    Pipeline::for_example(name)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_example_is_rejected() {
        assert!(matches!(
            Pipeline::for_example("example9"),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn wrong_param_count_is_rejected() {
        let p = Pipeline::for_example("example1")
            .unwrap()
            .check_params(vec![5]);
        assert!(matches!(p.run(), Err(EngineError::Unsupported(_))));
    }

    #[test]
    fn healthy_run_is_all_ok() {
        let report = run_example("example1").expect("example1 runs");
        assert_eq!(report.health(), Health::Ok);
        for s in &report.stages {
            assert_eq!(s.outcome, StageOutcome::Ok, "stage {}", s.name);
        }
        assert_eq!(report.aov_source, Some("generators"));
        assert_eq!(report.equivalent, Some(true));
        let json = report.to_json();
        assert_eq!(json.get("health"), Some(&Json::from("ok")));
    }

    #[test]
    fn single_run_has_no_timing_summary() {
        let report = run_example("example1").expect("example1 runs");
        assert!(report.timing.is_none());
        assert!(report.to_json().get("timing").is_none());
    }

    #[test]
    fn repeated_runs_attach_min_median_timing() {
        let report = Pipeline::for_example("example1")
            .unwrap()
            .runs(3)
            .run()
            .expect("example1 runs");
        let timing = report.timing.as_ref().expect("timing for runs > 1");
        assert_eq!(timing.runs, 3);
        assert!(timing.total_micros.min <= timing.total_micros.median);
        assert_eq!(timing.stages.len(), report.stages.len());
        for (name, stat) in &timing.stages {
            assert!(stat.min <= stat.median, "{name}: min > median");
        }
        // The report is the fastest of the three runs.
        assert_eq!(report.total_micros, timing.total_micros.min);
        let json = report.to_json();
        let t = json.get("timing").expect("timing in JSON");
        assert_eq!(t.get("runs"), Some(&Json::Int(3)));
        assert!(t.get("total_micros").and_then(|s| s.get("min")).is_some());
    }

    #[test]
    fn stat_median_is_lower_nearest_rank() {
        let s = Stat::of(vec![40, 10, 30, 20]);
        assert_eq!(s.min, 10);
        assert_eq!(s.median, 20);
        let s = Stat::of(vec![7]);
        assert_eq!((s.min, s.median), (7, 7));
    }

    #[test]
    fn schedule_override_drives_problem1() {
        // Figure 3's scenario: the row-parallel schedule Θ(i,j) = j of
        // Example 1 admits the shorter OV (0, 1).
        let p = examples::example1();
        let row = aov_schedule::Schedule::uniform_for(
            &p,
            &[aov_linalg::AffineExpr::from_i64(&[0, 1, 0, 0], 0)],
        );
        let report = Pipeline::new(p).with_schedule(row).run().expect("runs");
        let ov = report.ov.as_ref().expect("problem1 ran");
        assert_eq!(ov.vector_for("A").unwrap().components(), [0, 1]);
        let detail = &report.stage("schedule").expect("schedule stage").detail;
        assert_eq!(detail.get("overridden"), Some(&Json::Bool(true)));
        // The AOV is schedule-independent and unchanged by the override.
        let aov = report.aov.as_ref().expect("aov ran");
        assert_eq!(aov.vector_for("A").unwrap().components(), [1, 2]);
    }

    #[test]
    fn equivalence_reuses_the_found_schedule_unless_overridden() {
        // The reference values come from the dataflow, not from a run
        // under some schedule, so the equivalence stage solves no LP or
        // ILP, whether or not the schedule was overridden.
        let nodes = |r: &Report| {
            let stage = r.stage("equivalence").expect("equivalence ran");
            let lp: Vec<_> = stage
                .counters
                .iter()
                .filter(|(k, _)| k.starts_with("lp."))
                .collect();
            assert!(lp.is_empty(), "equivalence moved {lp:?}");
            let node = stage.counters.iter().find(|(k, _)| k == "lp.bb.nodes");
            node.map_or(0, |(_, v)| *v)
        };
        let found = run_example("example1").expect("example1 runs");
        assert_eq!(found.equivalent, Some(true));
        assert_eq!(nodes(&found), 0);
        let p = examples::example1();
        let row = aov_schedule::Schedule::uniform_for(
            &p,
            &[aov_linalg::AffineExpr::from_i64(&[0, 1, 0, 0], 0)],
        );
        let overridden = Pipeline::new(p).with_schedule(row).run().expect("runs");
        assert_eq!(overridden.equivalent, Some(true));
        assert_eq!(nodes(&overridden), 0);
    }

    #[test]
    fn illegal_schedule_override_is_rejected() {
        let p = examples::example1();
        let bad = aov_schedule::Schedule::uniform_for(
            &p,
            &[aov_linalg::AffineExpr::from_i64(&[-1, 1, 0, 0], 0)],
        );
        assert!(matches!(
            Pipeline::new(p).with_schedule(bad).run(),
            Err(EngineError::Schedule(_))
        ));
    }

    #[test]
    fn report_json_has_stage_timings_and_outcomes() {
        let report = run_example("example1").expect("example1 runs");
        let json = report.to_json();
        let Some(Json::Arr(stages)) = json.get("stages") else {
            panic!("stages array missing");
        };
        assert!(
            stages.len() >= 9,
            "expected all stages, got {}",
            stages.len()
        );
        for s in stages {
            assert!(s.get("micros").is_some(), "stage without timing: {s:?}");
            assert_eq!(s.get("outcome"), Some(&Json::from("ok")));
        }
    }

    /// A one-pivot budget trips in the `schedule` stage; the ladder
    /// still produces a structured report: Problem 1 skipped, the AOV
    /// stage degraded to the UOV fallback, storage/codegen live.
    #[test]
    fn exhausted_budget_degrades_to_uov() {
        let report = Pipeline::for_example("example1")
            .unwrap()
            .budget(BudgetSpec {
                pivots: Some(1),
                ..BudgetSpec::default()
            })
            .run()
            .expect("degraded, not failed");
        assert_eq!(report.health(), Health::Degraded);
        assert_eq!(
            report.stage("schedule").unwrap().outcome.class(),
            "degraded"
        );
        assert_eq!(report.stage("problem1").unwrap().outcome.class(), "skipped");
        assert_eq!(report.stage("aov").unwrap().outcome.class(), "degraded");
        // Example 1's UOV is (0,3) — longer than the AOV (1,2), but
        // valid without any solver budget.
        assert_eq!(report.aov_source, Some("uov"));
        let aov = report.aov.as_ref().expect("uov fallback");
        assert_eq!(aov.vector_for("A").unwrap().components(), [0, 3]);
        assert_eq!(
            report.stage("storage_transform").unwrap().outcome.class(),
            "ok"
        );
        assert_eq!(report.stage("codegen").unwrap().outcome.class(), "ok");
        // No schedule survived, so the dynamic check cannot run.
        assert_eq!(
            report.stage("equivalence").unwrap().outcome.class(),
            "skipped"
        );
        assert_eq!(report.equivalent, None);
        // The reason names the budget resource and trip site.
        let reason = report
            .stage("schedule")
            .unwrap()
            .outcome
            .reason()
            .unwrap()
            .to_string();
        assert!(reason.contains("pivot limit"), "reason: {reason}");
    }

    /// Budget trips must be deterministic: same budget, same trip site
    /// and same report shape for any worker count. The count reaches only
    /// the machine stage's fan-out, so these are `--machine` runs of
    /// Example 2, which has a machine model. It spends 25 pivots (9 in
    /// the scheduler), so a cap of 20 trips inside Problem 1, and the
    /// machine stage still simulates the schedule.
    #[test]
    fn budget_trip_is_worker_invariant() {
        let outcome_of = |workers: usize| {
            let r = Pipeline::for_example("example2")
                .unwrap()
                .workers(workers)
                .machine(true)
                .budget(BudgetSpec {
                    pivots: Some(20),
                    ..BudgetSpec::default()
                })
                .run()
                .expect("structured report");
            (
                r.health(),
                r.stages
                    .iter()
                    .map(|s| (s.name, s.outcome.clone()))
                    .collect::<Vec<_>>(),
                r.stage("machine").map(|s| s.detail.clone()),
            )
        };
        let seq = outcome_of(1);
        assert_eq!(seq.0, Health::Degraded, "{seq:?}");
        let trip = seq.1.iter().find(|(name, _)| *name == "problem1");
        let reason = trip.and_then(|(_, outcome)| outcome.reason());
        assert!(
            reason.is_some_and(|r| r.contains("pivot limit 20")),
            "the trip is reported: {seq:?}"
        );
        let simulated = seq.2.as_ref().and_then(|d| d.get("speedups"));
        assert!(simulated.is_some(), "{seq:?}");
        for workers in 2..=4 {
            assert_eq!(seq, outcome_of(workers), "workers = {workers}");
        }
    }
}
