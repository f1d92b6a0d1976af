//! The daemon's telemetry plane: latency histograms per phase and
//! verdict, rolling request-rate windows, worker states, the
//! `aov-svcmetrics/1` metrics document, and the `aov-access/1`
//! structured access log.
//!
//! Everything here follows one measurement-integrity discipline:
//! artifacts are schema-versioned and validated (`aov inspect --check`), quantiles come from a real
//! distribution ([`aov_support::histogram`]) rather than a sample
//! vector, and recording is lock-free — a relaxed `fetch_add` per
//! phase — so the telemetry never becomes the contention point it is
//! supposed to diagnose.
//!
//! # Phases and verdicts
//!
//! Each request's wall time is decomposed into [`Phase`]s
//! (queue-wait → solve → serialize, plus the admission walk and the
//! end-to-end total); each *completed* request also lands its
//! end-to-end latency in one [`Verdict`] histogram, so "p99 of faults"
//! and "p99 of clean solves" stay separable.
//!
//! # Rolling windows
//!
//! Request, shed, and memo-hit rates over the last 1 s / 10 s / 60 s
//! come from a ring of per-second epoch counters: bumping is two
//! relaxed atomic ops, reading sums the slots whose epoch stamp is
//! still inside the window. Slots recycle lazily as the clock enters
//! them — no timer thread, no locks.
//!
//! # Access log
//!
//! One compact JSON line per request (`aov-access/1`): who asked for
//! what, what the admission layer decided, where the time went, and
//! what it did to the memo tier. Size-based rotation keeps the file
//! bounded: when a write would exceed the cap the current file moves
//! to `<path>.1` (replacing the previous rollover) and a fresh file
//! starts.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use aov_support::histogram::{Histogram, Snapshot};
use aov_support::schema::Schema;
use aov_support::Json;

/// Schema tag of the metrics document the `metrics` verb returns.
pub const SVCMETRICS_SCHEMA: &str = "aov-svcmetrics/1";

/// Schema tag of one access-log line.
pub const ACCESS_SCHEMA: &str = "aov-access/1";

/// Default access-log rotation threshold (bytes).
pub const ACCESS_LOG_MAX_BYTES: u64 = 8 * 1024 * 1024;

/// A request's measured phases, in display order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Admission walk: parse, chaos probes, pool/queue checks.
    Admission = 0,
    /// Enqueue to worker pickup.
    QueueWait = 1,
    /// The pipeline run itself.
    Solve = 2,
    /// Report-frame construction and the socket write.
    Serialize = 3,
    /// First byte of the request to last byte of the response.
    EndToEnd = 4,
}

/// Stable lower-snake phase names (metrics document, `aov top`).
pub const PHASE_NAMES: [&str; 5] = [
    "admission",
    "queue_wait",
    "solve",
    "serialize",
    "end_to_end",
];

/// How a request ultimately resolved, for latency attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Verdict {
    /// A report with `health: ok` (including refuted equivalence).
    Ok = 0,
    /// A report with degraded or failed ladder health.
    Degraded = 1,
    /// Shed: queue/pool overload, expired deadline, or draining.
    Overloaded = 2,
    /// Faulted: service-layer fault, parse or malformed request.
    Fault = 3,
}

/// Stable lower-snake verdict names (metrics document, `aov top`).
pub const VERDICT_NAMES: [&str; 4] = ["ok", "degraded", "overloaded", "fault"];

/// Counter kinds tracked by the rolling windows.
#[derive(Debug, Clone, Copy)]
#[repr(usize)]
pub enum WindowKind {
    /// Solve requests reaching admission.
    Requests = 0,
    /// Requests shed without solving (overloaded/deadline/draining).
    Shed = 1,
    /// Cross-request memo hits.
    MemoHits = 2,
}

const WINDOW_KINDS: usize = 3;

/// Ring length in one-second epochs. 128 comfortably covers the 60 s
/// lookback; older slots recycle lazily as the clock re-enters them.
const WINDOW_RING: usize = 128;

struct EpochSlot {
    /// Which second this slot currently counts (`u64::MAX` = never).
    epoch: AtomicU64,
    counts: [AtomicU64; WINDOW_KINDS],
}

/// Rolling 1 s / 10 s / 60 s counters over a ring of epoch slots.
pub struct Windows {
    start: Instant,
    slots: Vec<EpochSlot>,
}

impl Windows {
    fn new(start: Instant) -> Windows {
        Windows {
            start,
            slots: (0..WINDOW_RING)
                .map(|_| EpochSlot {
                    epoch: AtomicU64::new(u64::MAX),
                    counts: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
                })
                .collect(),
        }
    }

    fn epoch_now(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    /// Adds `n` to `kind`'s counter for the current second.
    pub fn bump(&self, kind: WindowKind, n: u64) {
        if n == 0 {
            return;
        }
        let epoch = self.epoch_now();
        let slot = &self.slots[(epoch as usize) % WINDOW_RING];
        let seen = slot.epoch.load(Ordering::Acquire);
        if seen != epoch {
            // First writer into a recycled slot resets it. A racing
            // bump between the claim and the resets can misplace a
            // count at the epoch boundary — rates are estimates, the
            // histograms are the exact record.
            if slot
                .epoch
                .compare_exchange(seen, epoch, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                for c in &slot.counts {
                    c.store(0, Ordering::Relaxed);
                }
            }
        }
        slot.counts[kind as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Sum of `kind` over the last `window_secs` whole seconds
    /// (including the current, still-filling one).
    #[must_use]
    pub fn sum(&self, kind: WindowKind, window_secs: u64) -> u64 {
        let now = self.epoch_now();
        let floor = now.saturating_sub(window_secs.saturating_sub(1).min(WINDOW_RING as u64 - 1));
        self.slots
            .iter()
            .filter(|s| {
                let e = s.epoch.load(Ordering::Acquire);
                e != u64::MAX && e >= floor && e <= now
            })
            .map(|s| s.counts[kind as usize].load(Ordering::Relaxed))
            .sum()
    }

    fn json(&self, kind: WindowKind) -> Json {
        Json::obj()
            .field("s1", self.sum(kind, 1))
            .field("s10", self.sum(kind, 10))
            .field("s60", self.sum(kind, 60))
    }
}

/// Worker states surfaced by `stats` and `metrics`.
pub mod worker_state {
    /// Waiting on the queue.
    pub const IDLE: u8 = 0;
    /// Running a job.
    pub const SOLVING: u8 = 1;
    /// Supervisor restarting the loop after an escaped panic.
    pub const RESTARTING: u8 = 2;

    /// Stable name for a state code.
    #[must_use]
    pub fn name(state: u8) -> &'static str {
        match state {
            SOLVING => "solving",
            RESTARTING => "restarting",
            _ => "idle",
        }
    }
}

/// The daemon's whole telemetry surface — one instance per server,
/// shared by reference across connection and worker threads.
pub struct Telemetry {
    start: Instant,
    phases: [Histogram; PHASE_NAMES.len()],
    verdicts: [Histogram; VERDICT_NAMES.len()],
    /// Rolling request/shed/memo-hit rate windows.
    pub windows: Windows,
    worker_states: Vec<AtomicU8>,
}

impl Telemetry {
    /// Fresh telemetry for a daemon with `workers` solver threads.
    #[must_use]
    pub fn new(workers: usize) -> Telemetry {
        let start = Instant::now();
        Telemetry {
            start,
            phases: [
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
            ],
            verdicts: [
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
            ],
            windows: Windows::new(start),
            worker_states: (0..workers)
                .map(|_| AtomicU8::new(worker_state::IDLE))
                .collect(),
        }
    }

    /// Milliseconds since the daemon started.
    #[must_use]
    pub fn uptime_ms(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Records one phase latency (nanoseconds). One relaxed
    /// `fetch_add`.
    #[inline]
    pub fn record_phase(&self, phase: Phase, nanos: u64) {
        self.phases[phase as usize].record(nanos);
    }

    /// Records a request's end-to-end latency under its verdict.
    #[inline]
    pub fn record_verdict(&self, verdict: Verdict, nanos: u64) {
        self.verdicts[verdict as usize].record(nanos);
    }

    /// Sets worker `idx`'s state (out-of-range indices are ignored).
    pub fn set_worker_state(&self, idx: usize, state: u8) {
        if let Some(s) = self.worker_states.get(idx) {
            s.store(state, Ordering::Relaxed);
        }
    }

    /// Per-worker `{id, state}` rows.
    #[must_use]
    pub fn workers_json(&self) -> Json {
        Json::Arr(
            self.worker_states
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj()
                        .field("id", id)
                        .field("state", worker_state::name(s.load(Ordering::Relaxed)))
                })
                .collect(),
        )
    }

    /// The `windows` block of the metrics document.
    #[must_use]
    pub fn windows_json(&self) -> Json {
        Json::obj()
            .field("requests", self.windows.json(WindowKind::Requests))
            .field("shed", self.windows.json(WindowKind::Shed))
            .field("memo_hits", self.windows.json(WindowKind::MemoHits))
    }

    /// The `phases` block: one histogram summary per phase.
    #[must_use]
    pub fn phases_json(&self) -> Json {
        Json::Arr(
            PHASE_NAMES
                .iter()
                .zip(self.phases.iter())
                .map(|(name, h)| histogram_json(name, &h.snapshot()))
                .collect(),
        )
    }

    /// The `verdicts` block: end-to-end latency split by outcome.
    #[must_use]
    pub fn verdicts_json(&self) -> Json {
        Json::Arr(
            VERDICT_NAMES
                .iter()
                .zip(self.verdicts.iter())
                .map(|(name, h)| histogram_json(name, &h.snapshot()))
                .collect(),
        )
    }

    /// Snapshot of one phase's histogram.
    #[cfg(test)]
    pub fn phase_snapshot(&self, phase: Phase) -> Snapshot {
        self.phases[phase as usize].snapshot()
    }
}

/// One histogram as a metrics-document entry: deterministic quantiles
/// plus the sparse bucket array the quantiles were derived from, so a
/// consumer can re-derive or merge across scrapes.
#[must_use]
pub fn histogram_json(name: &str, snap: &Snapshot) -> Json {
    Json::obj()
        .field("name", name)
        .field("count", snap.count())
        .field("p50_ns", snap.quantile(0.50))
        .field("p90_ns", snap.quantile(0.90))
        .field("p99_ns", snap.quantile(0.99))
        .field("p999_ns", snap.quantile(0.999))
        .field("max_ns", snap.max_value())
        .field(
            "buckets",
            Json::Arr(
                snap.nonzero_buckets()
                    .into_iter()
                    .map(|(i, c)| {
                        Json::Arr(vec![
                            Json::Int(i64::try_from(i).unwrap_or(i64::MAX)),
                            Json::Int(i64::try_from(c).unwrap_or(i64::MAX)),
                        ])
                    })
                    .collect(),
            ),
        )
}

fn histogram_entry_schema() -> Schema {
    Schema::object([
        ("name", Schema::Str, true),
        ("count", Schema::Int, true),
        ("p50_ns", Schema::Int, true),
        ("p90_ns", Schema::Int, true),
        ("p99_ns", Schema::Int, true),
        ("p999_ns", Schema::Int, true),
        ("max_ns", Schema::Int, true),
        ("buckets", Schema::array(Schema::array(Schema::Int)), true),
    ])
}

fn window_schema() -> Schema {
    Schema::object([
        ("s1", Schema::Int, true),
        ("s10", Schema::Int, true),
        ("s60", Schema::Int, true),
    ])
}

/// Structural schema of the `aov-svcmetrics/1` document, registered
/// with `aov inspect --check`.
#[must_use]
pub fn svcmetrics_schema() -> Schema {
    Schema::object([
        ("schema", Schema::Str, true),
        ("uptime_ms", Schema::Int, true),
        ("draining", Schema::Bool, true),
        ("queue_depth", Schema::Int, true),
        ("inflight", Schema::Int, true),
        ("served", Schema::Int, true),
        ("overloaded", Schema::Int, true),
        ("faults", Schema::Int, true),
        ("worker_restarts", Schema::Int, true),
        (
            "workers",
            Schema::array(Schema::object([
                ("id", Schema::Int, true),
                ("state", Schema::Str, true),
            ])),
            true,
        ),
        (
            "memo",
            Schema::object([
                ("entries", Schema::Int, true),
                ("hits", Schema::Int, true),
                ("misses", Schema::Int, true),
                ("evictions", Schema::Int, true),
            ]),
            true,
        ),
        (
            "windows",
            Schema::object([
                ("requests", window_schema(), true),
                ("shed", window_schema(), true),
                ("memo_hits", window_schema(), true),
            ]),
            true,
        ),
        ("phases", Schema::array(histogram_entry_schema()), true),
        ("verdicts", Schema::array(histogram_entry_schema()), true),
    ])
}

/// Structural schema of one `aov-access/1` log line, registered with
/// `aov inspect --check` (which validates every line of the file).
#[must_use]
pub fn access_schema() -> Schema {
    Schema::object([
        ("schema", Schema::Str, true),
        ("ts_ms", Schema::Int, true),
        ("id", Schema::Int, true),
        ("session", Schema::Int, true),
        ("program", Schema::Str, true),
        ("digest", Schema::Str, true),
        ("outcome", Schema::Str, true),
        ("exit_code", Schema::nullable(Schema::Int), true),
        (
            "phases",
            Schema::object([
                ("queue_wait_us", Schema::Int, true),
                ("solve_us", Schema::Int, true),
                ("serialize_us", Schema::Int, true),
                ("total_us", Schema::Int, true),
            ]),
            true,
        ),
        ("knobs", Schema::Any, true),
        (
            "memo",
            Schema::object([("hits", Schema::Int, true), ("misses", Schema::Int, true)]),
            true,
        ),
    ])
}

/// Everything one access-log line records about a request.
#[derive(Debug)]
pub struct AccessRecord<'a> {
    /// Client-chosen frame id.
    pub id: i64,
    /// Session id (0 when the request was shed before assignment).
    pub session: u64,
    /// Display name of the program (`examples/x.aov` or `<request>`).
    pub program: &'a str,
    /// FNV-1a digest of the program source.
    pub digest: &'a str,
    /// Verdict or error code (`ok`, `degraded`, `overloaded`,
    /// `deadline`, `parse`, `bad_request`, `fault`, `shutting_down`).
    pub outcome: &'a str,
    /// The report's exit code; `None` for shed/faulted requests.
    pub exit_code: Option<i32>,
    pub queue_wait_ns: u64,
    pub solve_ns: u64,
    pub serialize_ns: u64,
    pub total_ns: u64,
    /// The request's knobs (workers, memoize, budget, deadline_ms).
    pub knobs: Json,
    /// Memo-tier hits of this request's own run (its report's
    /// `lp.memo.hits`; 0 when the run failed without a report).
    pub memo_hits: u64,
    pub memo_misses: u64,
}

fn ns_to_us(ns: u64) -> u64 {
    ns / 1_000
}

impl AccessRecord<'_> {
    /// The `aov-access/1` line for this record.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let ts_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        Json::obj()
            .field("schema", ACCESS_SCHEMA)
            .field("ts_ms", ts_ms)
            .field("id", self.id)
            .field("session", self.session)
            .field("program", self.program)
            .field("digest", self.digest)
            .field("outcome", self.outcome)
            .field(
                "exit_code",
                self.exit_code
                    .map_or(Json::Null, |c| Json::Int(i64::from(c))),
            )
            .field(
                "phases",
                Json::obj()
                    .field("queue_wait_us", ns_to_us(self.queue_wait_ns))
                    .field("solve_us", ns_to_us(self.solve_ns))
                    .field("serialize_us", ns_to_us(self.serialize_ns))
                    .field("total_us", ns_to_us(self.total_ns)),
            )
            .field("knobs", self.knobs.clone())
            .field(
                "memo",
                Json::obj()
                    .field("hits", self.memo_hits)
                    .field("misses", self.memo_misses),
            )
    }
}

struct AccessLogInner {
    file: Option<File>,
    written: u64,
}

/// The structured access log: one `aov-access/1` JSON line per
/// request, size-rotated to `<path>.1`.
pub struct AccessLog {
    path: PathBuf,
    max_bytes: u64,
    inner: Mutex<AccessLogInner>,
}

impl AccessLog {
    /// Opens (appending) the log at `path`, rotating once a write
    /// would push the file past `max_bytes`.
    ///
    /// # Errors
    ///
    /// File creation/open errors.
    pub fn open(path: &Path, max_bytes: u64) -> std::io::Result<AccessLog> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let written = file.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(AccessLog {
            path: path.to_path_buf(),
            max_bytes: max_bytes.max(1024),
            inner: Mutex::new(AccessLogInner {
                file: Some(file),
                written,
            }),
        })
    }

    /// Appends one record. Write errors are swallowed: losing a log
    /// line must never fail a request.
    pub fn append(&self, record: &AccessRecord<'_>) {
        let mut line = record.to_json().to_compact();
        line.push('\n');
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if inner.written > 0 && inner.written + line.len() as u64 > self.max_bytes {
            // Size rotation: current file becomes `<path>.1` (replacing
            // the previous rollover), a fresh file takes its place.
            inner.file = None;
            let mut rolled = self.path.as_os_str().to_owned();
            rolled.push(".1");
            let _ = std::fs::rename(&self.path, PathBuf::from(rolled));
            inner.written = 0;
            inner.file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)
                .ok();
        }
        let wrote = match inner.file.as_mut() {
            Some(f) => f.write_all(line.as_bytes()).is_ok() && f.flush().is_ok(),
            None => false,
        };
        if wrote {
            inner.written += line.len() as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aov_support::schema;

    fn sample_record<'a>(knobs: &'a Json) -> AccessRecord<'a> {
        let _ = knobs;
        AccessRecord {
            id: 7,
            session: 3,
            program: "examples/example1.aov",
            digest: "deadbeefdeadbeef",
            outcome: "ok",
            exit_code: Some(0),
            queue_wait_ns: 120_000,
            solve_ns: 5_400_000,
            serialize_ns: 80_000,
            total_ns: 5_700_000,
            knobs: knobs.clone(),
            memo_hits: 2,
            memo_misses: 1,
        }
    }

    #[test]
    fn access_lines_validate_against_their_schema() {
        let knobs = Json::obj().field("workers", 2).field("memoize", true);
        let line = sample_record(&knobs).to_json();
        schema::validate(&line, &access_schema()).expect("access line validates");
        // A shed request has no exit code — still valid (nullable).
        let mut shed = sample_record(&knobs);
        shed.exit_code = None;
        shed.outcome = "overloaded";
        schema::validate(&shed.to_json(), &access_schema()).expect("shed line validates");
    }

    #[test]
    fn metrics_document_shape_validates() {
        let t = Telemetry::new(2);
        t.record_phase(Phase::Solve, 1_500_000);
        t.record_phase(Phase::EndToEnd, 2_000_000);
        t.record_verdict(Verdict::Ok, 2_000_000);
        t.windows.bump(WindowKind::Requests, 1);
        t.set_worker_state(1, worker_state::SOLVING);
        let doc = Json::obj()
            .field("schema", SVCMETRICS_SCHEMA)
            .field("uptime_ms", t.uptime_ms())
            .field("draining", false)
            .field("queue_depth", 0)
            .field("inflight", 1)
            .field("served", 1)
            .field("overloaded", 0)
            .field("faults", 0)
            .field("worker_restarts", 0)
            .field("workers", t.workers_json())
            .field(
                "memo",
                Json::obj()
                    .field("entries", 0)
                    .field("hits", 0)
                    .field("misses", 0)
                    .field("evictions", 0),
            )
            .field("windows", t.windows_json())
            .field("phases", t.phases_json())
            .field("verdicts", t.verdicts_json());
        schema::validate(&doc, &svcmetrics_schema()).expect("metrics doc validates");
        // The solve phase saw one sample: its p50 must be nonzero.
        let solve = t.phase_snapshot(Phase::Solve);
        assert_eq!(solve.count(), 1);
        assert!(solve.quantile(0.5) > 0);
    }

    #[test]
    fn windows_roll_counts_into_rate_buckets() {
        let t = Telemetry::new(1);
        for _ in 0..5 {
            t.windows.bump(WindowKind::Requests, 1);
        }
        t.windows.bump(WindowKind::Shed, 2);
        assert_eq!(t.windows.sum(WindowKind::Requests, 1), 5);
        assert_eq!(t.windows.sum(WindowKind::Requests, 60), 5);
        assert_eq!(t.windows.sum(WindowKind::Shed, 10), 2);
        assert_eq!(t.windows.sum(WindowKind::MemoHits, 60), 0);
    }

    #[test]
    fn access_log_rotates_at_the_size_cap() {
        let dir = std::env::temp_dir().join(format!("aov-accesslog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.jsonl");
        let log = AccessLog::open(&path, 1_024).expect("open");
        let knobs = Json::obj().field("workers", 2);
        // Each line is a few hundred bytes; enough of them must spill
        // over the 1 KiB cap (floored at 1024) into a rollover file.
        for _ in 0..32 {
            log.append(&sample_record(&knobs));
        }
        let rolled = dir.join("access.jsonl.1");
        assert!(rolled.exists(), "rotation must produce {rolled:?}");
        assert!(
            std::fs::metadata(&path).unwrap().len() <= 1_024 + 512,
            "active file stays near the cap"
        );
        // Every surviving line in both files is valid aov-access/1.
        for p in [&path, &rolled] {
            let body = std::fs::read_to_string(p).unwrap();
            for line in body.lines().filter(|l| !l.trim().is_empty()) {
                let doc = Json::parse(line).expect("line parses");
                schema::validate(&doc, &access_schema()).expect("line validates");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Not a correctness test: the EXPERIMENTS.md access-log overhead
    // number comes from here. Run with
    //   cargo test -p aov-serve --release -- --ignored \
    //     measure_access_append_cost --nocapture
    #[test]
    #[ignore = "measurement, run explicitly"]
    fn measure_access_append_cost() {
        let dir = std::env::temp_dir().join(format!("aov-access-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = AccessLog::open(&dir.join("bench.jsonl"), u64::MAX).unwrap();
        let knobs = Json::obj().field("workers", 2).field("memoize", true);
        let n: u32 = 10_000;
        let start = std::time::Instant::now();
        for i in 0..n {
            log.append(&AccessRecord {
                id: i64::from(i),
                session: u64::from(i),
                program: "example1",
                digest: "0123456789abcdef",
                outcome: "ok",
                exit_code: Some(0),
                queue_wait_ns: 12_000,
                solve_ns: 3_400_000,
                serialize_ns: 96_000,
                total_ns: 3_600_000,
                knobs: knobs.clone(),
                memo_hits: 3,
                memo_misses: 1,
            });
        }
        let elapsed = start.elapsed();
        println!(
            "access append: {n} lines in {elapsed:?} -> {:.0} ns/line",
            elapsed.as_nanos() as f64 / f64::from(n)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
