//! The `aovd` daemon: a hermetic thread-pool TCP server speaking
//! [`aov-serve/1`](crate::protocol) — engineered for robustness under
//! hostile load rather than raw throughput.
//!
//! # Architecture
//!
//! One nonblocking accept loop hands each connection to a detached
//! reader thread. Readers parse frames, answer cheap requests
//! (`stats`, `health`, `shutdown`) inline, and push `solve` jobs onto
//! a **bounded queue** guarded by admission control; a fixed pool of
//! supervised worker threads pops jobs and runs them through the
//! existing [`Pipeline`]. Responses go out through a per-connection
//! writer mutex as single buffered writes — no torn frames, even when
//! several workers answer one client.
//!
//! # Admission control
//!
//! A request is rejected **before any solver work** when:
//!
//! * the queue is full, or the in-flight pivot pool (when configured)
//!   cannot cover the request's pivot budget — a structured
//!   `overloaded` error with a `retry_after_ms` hint;
//! * the daemon is draining — `shutting_down`;
//! * its source does not parse — `parse`, with the caret diagnostic.
//!
//! A request whose client deadline passes while queued is dropped at
//! dequeue (`deadline` error) without solving; the remaining deadline
//! is folded into the solve's wall-clock budget, so an admitted
//! request can never run past the moment its client stopped caring.
//!
//! # Supervision
//!
//! Every job runs under `catch_unwind`. A panicking or budget-tripped
//! solve degrades to the pipeline's ladder semantics (writing an
//! `aov-diag/1` bundle when a diag dir is configured) or, for faults
//! at the service layer (`serve.*` chaos probes), produces a
//! structured `fault` error plus a service bundle — the daemon keeps
//! serving either way. A panic escaping the per-job guard poisons the
//! worker loop; the supervising wrapper restarts it and counts the
//! restart in `stats`.
//!
//! # Sessions
//!
//! Each solve gets a process-unique session id, stamped into every
//! flight-recorder event it records (including fan-out workers, via
//! span-context adoption) — so one request's crash bundle carries only
//! its own timeline even though the ring is process-global. The id is
//! assigned at *admission* (not dequeue), so a `watch`ing connection
//! can tail a session's events while the solve is still queued.
//!
//! # Telemetry
//!
//! Every request is decomposed into phases (admission, queue-wait,
//! solve, serialize, end-to-end) recorded into lock-free latency
//! histograms, and its end-to-end latency lands under its verdict
//! (ok/degraded/overloaded/fault). The `metrics` verb returns the
//! whole plane as an `aov-svcmetrics/1` document; the `watch` verb
//! streams flight-recorder events live off a persistent ring cursor;
//! `--access-log` appends one `aov-access/1` line per request. See
//! [`crate::telemetry`].

use std::collections::VecDeque;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use aov_engine::{diag, Health, Pipeline};
use aov_fault::chaos::{self, ChaosSpec, FaultKind};
use aov_support::{digest, Json, ToJson as _};
use aov_trace::recorder;

use crate::protocol::{self, code, RequestKind, SolveOptions};
use crate::telemetry::{self, AccessLog, AccessRecord, Phase, Telemetry, Verdict, WindowKind};

/// Pivot-pool charge for a request that declared no pivot budget.
/// Deliberately generous: unbudgeted requests are the minority tenant,
/// and overcharging them sheds load earlier, not later.
pub const DEFAULT_REQUEST_PIVOTS: u64 = 100_000;

/// How the daemon is configured at startup.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (the daemon prints the
    /// resolved address).
    pub addr: String,
    /// Solver worker threads popping the shared queue.
    pub workers: usize,
    /// Bounded request-queue depth; beyond it requests shed as
    /// `overloaded`.
    pub queue_limit: usize,
    /// Arms the shared cross-request memo tier.
    pub memo: bool,
    /// LRU bound for the memo tier (0 = unbounded).
    pub memo_capacity: usize,
    /// Total pivots admitted in flight at once (None = unlimited).
    /// Requests charge their declared pivot budget, or
    /// [`DEFAULT_REQUEST_PIVOTS`] when they declared none.
    pub pivot_pool: Option<u64>,
    /// Deadline applied to requests that declared none.
    pub default_deadline_ms: Option<u64>,
    /// Where crash-diagnostic bundles go (None = no bundles).
    pub diag_dir: Option<PathBuf>,
    /// The hint stamped into `overloaded` rejections.
    pub retry_after_ms: u64,
    /// Structured access log: one `aov-access/1` line per request
    /// (None = no log).
    pub access_log: Option<PathBuf>,
    /// Size-rotation threshold for the access log.
    pub access_log_max_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_limit: 16,
            memo: true,
            memo_capacity: 0,
            pivot_pool: None,
            default_deadline_ms: None,
            diag_dir: None,
            retry_after_ms: 25,
            access_log: None,
            access_log_max_bytes: telemetry::ACCESS_LOG_MAX_BYTES,
        }
    }
}

/// One admitted solve waiting for (or holding) a worker.
struct Job {
    id: i64,
    program: aov_ir::Program,
    display: String,
    options: SolveOptions,
    /// Pivots charged against the admission pool, released at
    /// completion.
    pool_charge: u64,
    deadline: Option<Instant>,
    out: Arc<Mutex<TcpStream>>,
    /// Session id assigned at admission (flight-recorder attribution).
    session: u64,
    /// FNV-1a digest of the program source (access-log identity).
    digest: String,
    /// When the request line arrived (end-to-end anchor).
    received_at: Instant,
    /// When admission pushed the job (queue-wait anchor).
    enqueued_at: Instant,
    /// Set once the final response frame for this job went out — the
    /// signal a same-connection `watch` stream keys its shutdown on.
    done: Arc<AtomicBool>,
}

struct Shared {
    cfg: ServerConfig,
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    /// Set once: stop admitting, drain, exit.
    draining: AtomicBool,
    /// Remaining admission pool (i64::MAX when unconfigured).
    pivot_pool: AtomicI64,
    next_session: AtomicU64,
    served: AtomicU64,
    overloaded: AtomicU64,
    faults: AtomicU64,
    worker_restarts: AtomicU64,
    inflight: AtomicU64,
    /// Histograms, rate windows, worker states, uptime.
    telemetry: Telemetry,
    /// Structured per-request evidence, when configured.
    access_log: Option<AccessLog>,
}

impl Shared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Nanoseconds since `start`, saturating.
fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The request's knobs as recorded in access-log lines.
fn knobs_json(options: &SolveOptions) -> Json {
    let mut budget = Json::obj();
    if let Some(p) = options.budget.pivots {
        budget = budget.field("pivots", p);
    }
    if let Some(n) = options.budget.nodes {
        budget = budget.field("nodes", n);
    }
    if let Some(ms) = options.budget.ms {
        budget = budget.field("ms", ms);
    }
    let mut knobs = Json::obj()
        .field("workers", options.workers)
        .field("memoize", options.memoize)
        .field("budget", budget);
    if let Some(ms) = options.deadline_ms {
        knobs = knobs.field("deadline_ms", ms);
    }
    if let Some(chaos) = &options.chaos {
        knobs = knobs.field("chaos", chaos.as_str());
    }
    knobs
}

/// Writes one frame as a single line. The whole line goes out in one
/// buffered write under the connection's writer lock — a concurrent
/// frame can interleave between lines, never inside one. Returns
/// whether the write reached the socket (a `watch` stream stops when
/// its client hangs up).
fn send(out: &Arc<Mutex<TcpStream>>, frame: &Json) -> bool {
    let mut line = frame.to_compact();
    line.push('\n');
    let mut stream = out.lock().unwrap_or_else(PoisonError::into_inner);
    stream.write_all(line.as_bytes()).is_ok() && stream.flush().is_ok()
}

/// A running daemon. Dropping the handle does **not** stop it; call
/// [`Server::shutdown`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    worker_handles: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, arms the memo tier per config, and spawns the accept
    /// loop plus the worker pool.
    ///
    /// # Errors
    ///
    /// Socket bind errors.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        if cfg.memo {
            aov_lp::memo::set_enabled(true);
            aov_lp::memo::set_capacity(cfg.memo_capacity);
        }
        let workers = cfg.workers.max(1);
        let access_log = match &cfg.access_log {
            Some(path) => Some(AccessLog::open(path, cfg.access_log_max_bytes)?),
            None => None,
        };
        let shared = Arc::new(Shared {
            pivot_pool: AtomicI64::new(
                cfg.pivot_pool
                    .map_or(i64::MAX, |p| i64::try_from(p).unwrap_or(i64::MAX)),
            ),
            cfg,
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            draining: AtomicBool::new(false),
            next_session: AtomicU64::new(1),
            served: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            telemetry: Telemetry::new(workers),
            access_log,
        });
        let accept_handle = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        let worker_handles = (0..workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || supervise_worker(&shared, idx))
            })
            .collect();
        Ok(Server {
            shared,
            addr,
            accept_handle: Some(accept_handle),
            worker_handles,
        })
    }

    /// The resolved listen address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a drain was requested (SIGTERM, `shutdown` frame, or
    /// [`Server::shutdown`]).
    #[must_use]
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::Relaxed)
    }

    /// Requests a drain without blocking: stop accepting and admitting;
    /// queued and in-flight work still completes.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::Relaxed);
        self.shared.cv.notify_all();
    }

    /// Drains and blocks until every queued and in-flight request has
    /// been answered and all daemon threads exited.
    pub fn shutdown(mut self) {
        self.drain();
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        if shared.draining.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                std::thread::spawn(move || {
                    // A connection-level panic must never take the
                    // accept loop (or the process) with it.
                    let _ = catch_unwind(AssertUnwindSafe(|| serve_connection(&shared, stream)));
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Reads frames off one connection until EOF. Each line is processed
/// under its own `catch_unwind`, so a `serve.accept` panic injection
/// surfaces as a structured `fault` frame and the connection (and
/// daemon) keep going.
fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let out = Arc::new(Mutex::new(write_half));
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        let result = catch_unwind(AssertUnwindSafe(|| process_line(shared, &line, &out)));
        if let Err(panic) = result {
            shared.faults.fetch_add(1, Ordering::Relaxed);
            let msg = panic_message(&panic);
            send(
                &out,
                &protocol::error_frame(0, code::FAULT, &format!("connection fault: {msg}"), None),
            );
        }
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic".to_string()
    }
}

/// Parses and dispatches one request line (the admission path).
fn process_line(shared: &Arc<Shared>, line: &str, out: &Arc<Mutex<TcpStream>>) {
    // Chaos probe: the connection/admission layer. An injected error
    // rejects this frame; an injected panic is caught one level up.
    if let Err(e) = chaos::tick("serve.accept") {
        shared.faults.fetch_add(1, Ordering::Relaxed);
        send(
            out,
            &protocol::error_frame(0, code::FAULT, &e.to_string(), None),
        );
        return;
    }
    let request = match protocol::parse_request(line) {
        Ok(r) => r,
        Err((code, message)) => {
            send(out, &protocol::error_frame(0, &code, &message, None));
            return;
        }
    };
    let id = request.id;
    match request.kind {
        RequestKind::Health => {
            send(
                out,
                &protocol::plain_frame("health", id).field(
                    "status",
                    if shared.draining.load(Ordering::Relaxed) {
                        "draining"
                    } else {
                        "ok"
                    },
                ),
            );
        }
        RequestKind::Stats => {
            send(out, &stats_frame(shared, id));
        }
        RequestKind::Shutdown => {
            send(
                out,
                &protocol::plain_frame("shutdown", id).field("ok", true),
            );
            shared.draining.store(true, Ordering::Relaxed);
            shared.cv.notify_all();
        }
        RequestKind::Metrics => {
            send(out, &protocol::metrics_frame(id, svcmetrics_doc(shared)));
        }
        RequestKind::Watch { session, for_ms } => watch_stream(shared, id, session, for_ms, out),
        RequestKind::Solve {
            source,
            display,
            options,
            watch,
        } => admit_solve(shared, id, &source, display, options, watch, out),
    }
}

fn stats_frame(shared: &Shared, id: i64) -> Json {
    protocol::plain_frame("stats", id)
        .field("queue_depth", shared.lock_queue().len())
        .field("inflight", shared.inflight.load(Ordering::Relaxed))
        .field("served", shared.served.load(Ordering::Relaxed))
        .field("overloaded", shared.overloaded.load(Ordering::Relaxed))
        .field("faults", shared.faults.load(Ordering::Relaxed))
        .field(
            "worker_restarts",
            shared.worker_restarts.load(Ordering::Relaxed),
        )
        .field("draining", shared.draining.load(Ordering::Relaxed))
        .field("uptime_ms", shared.telemetry.uptime_ms())
        .field("workers", shared.telemetry.workers_json())
        .field("memo", protocol::memo_json(&aov_lp::memo::stats()))
}

/// Builds the `aov-svcmetrics/1` document the `metrics` verb returns.
fn svcmetrics_doc(shared: &Shared) -> Json {
    let t = &shared.telemetry;
    Json::obj()
        .field("schema", telemetry::SVCMETRICS_SCHEMA)
        .field("uptime_ms", t.uptime_ms())
        .field("draining", shared.draining.load(Ordering::Relaxed))
        .field("queue_depth", shared.lock_queue().len())
        .field("inflight", shared.inflight.load(Ordering::Relaxed))
        .field("served", shared.served.load(Ordering::Relaxed))
        .field("overloaded", shared.overloaded.load(Ordering::Relaxed))
        .field("faults", shared.faults.load(Ordering::Relaxed))
        .field(
            "worker_restarts",
            shared.worker_restarts.load(Ordering::Relaxed),
        )
        .field("workers", t.workers_json())
        .field("memo", protocol::memo_json(&aov_lp::memo::stats()))
        .field("windows", t.windows_json())
        .field("phases", t.phases_json())
        .field("verdicts", t.verdicts_json())
}

/// Streams flight-recorder events to this connection until the client
/// hangs up, the `for_ms` horizon passes, or the daemon drains. The
/// cursor survives ring wraparound; every batch carries the honest
/// count of events the subscriber lost to overwrites.
fn watch_stream(
    shared: &Arc<Shared>,
    id: i64,
    session: u64,
    for_ms: Option<u64>,
    out: &Arc<Mutex<TcpStream>>,
) {
    let mut cursor = recorder::Cursor::new();
    if !send(
        out,
        &protocol::plain_frame("watch", id)
            .field("session", session)
            .field("status", "ok"),
    ) {
        return;
    }
    let horizon = for_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let mut sent = 0u64;
    let mut dropped_total = 0u64;
    let reason = loop {
        let batch = cursor.poll();
        dropped_total += batch.dropped;
        let events: Vec<recorder::Event> = batch
            .events
            .into_iter()
            .filter(|e| session == 0 || e.session == session)
            .collect();
        if !events.is_empty() || batch.dropped > 0 {
            sent += events.len() as u64;
            if !send(out, &protocol::events_frame(id, &events, batch.dropped)) {
                return; // client gone; nobody left to tell why
            }
        }
        if shared.draining.load(Ordering::Relaxed) {
            break "draining";
        }
        if horizon.is_some_and(|h| Instant::now() >= h) {
            break "deadline";
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    send(
        out,
        &protocol::watch_end_frame(id, reason, sent, dropped_total),
    );
}

/// The follow-a-solve stream: after admission queued `session`, tail
/// its events on the admitting connection until the worker's final
/// frame went out (`done`), then flush and close the stream.
fn follow_session(
    id: i64,
    session: u64,
    done: &AtomicBool,
    mut cursor: recorder::Cursor,
    out: &Arc<Mutex<TcpStream>>,
) {
    let mut sent = 0u64;
    let mut dropped_total = 0u64;
    loop {
        // Read the flag before polling: events recorded before `done`
        // was set are visible to this (or the final) poll, so the
        // stream never ends with undelivered events still readable.
        let finished = done.load(Ordering::Acquire);
        let batch = cursor.poll();
        dropped_total += batch.dropped;
        let events: Vec<recorder::Event> = batch
            .events
            .into_iter()
            .filter(|e| e.session == session)
            .collect();
        if !events.is_empty() || batch.dropped > 0 {
            sent += events.len() as u64;
            if !send(out, &protocol::events_frame(id, &events, batch.dropped)) {
                return;
            }
        }
        if finished {
            break;
        }
        // A followed solve takes a few milliseconds and shares the ring
        // with every concurrent session, so a slower poll lets a small
        // ring (64 slots) lap its events before they are read.
        std::thread::sleep(Duration::from_millis(1));
    }
    send(
        out,
        &protocol::watch_end_frame(id, "done", sent, dropped_total),
    );
}

/// Telemetry for a request shed at admission: the whole request was
/// the admission walk, so that span doubles as its end-to-end
/// latency, attributed to the `overloaded` verdict for load-shedding
/// outcomes and `fault` for malformed/faulted ones.
fn record_shed(
    shared: &Shared,
    id: i64,
    outcome: &str,
    received_at: Instant,
    source: &str,
    display: &str,
    options: &SolveOptions,
) {
    let total_ns = ns_since(received_at);
    shared.telemetry.record_phase(Phase::Admission, total_ns);
    shared.telemetry.record_phase(Phase::EndToEnd, total_ns);
    let verdict = if matches!(
        outcome,
        code::OVERLOADED | code::DEADLINE | code::SHUTTING_DOWN
    ) {
        shared.telemetry.windows.bump(WindowKind::Shed, 1);
        Verdict::Overloaded
    } else {
        Verdict::Fault
    };
    shared.telemetry.record_verdict(verdict, total_ns);
    if let Some(log) = &shared.access_log {
        log.append(&AccessRecord {
            id,
            session: 0,
            program: display,
            digest: &digest::fnv1a_hex(source.as_bytes()),
            outcome,
            exit_code: None,
            queue_wait_ns: 0,
            solve_ns: 0,
            serialize_ns: 0,
            total_ns,
            knobs: knobs_json(options),
            memo_hits: 0,
            memo_misses: 0,
        });
    }
}

/// Rejects a solve at admission: the error frame, plus — when the
/// request asked to `watch` — the immediate `watch_end` the client is
/// owed so its stream terminates instead of waiting on a session that
/// will never run.
fn reject(out: &Arc<Mutex<TcpStream>>, id: i64, watch: bool, frame: &Json) {
    send(out, frame);
    if watch {
        send(out, &protocol::watch_end_frame(id, "rejected", 0, 0));
    }
}

/// The admission policy: shed load *before* any solver work.
fn admit_solve(
    shared: &Arc<Shared>,
    id: i64,
    source: &str,
    display: String,
    options: SolveOptions,
    watch: bool,
    out: &Arc<Mutex<TcpStream>>,
) {
    let received_at = Instant::now();
    shared.telemetry.windows.bump(WindowKind::Requests, 1);
    if shared.draining.load(Ordering::Relaxed) {
        record_shed(
            shared,
            id,
            code::SHUTTING_DOWN,
            received_at,
            source,
            &display,
            &options,
        );
        reject(
            out,
            id,
            watch,
            &protocol::error_frame(id, code::SHUTTING_DOWN, "daemon is draining", None),
        );
        return;
    }
    // Request-scoped chaos is restricted to the service layer: letting
    // a tenant arm engine sites would fault its neighbors' solves.
    if let Some(spec) = &options.chaos {
        match ChaosSpec::parse(spec) {
            Ok(parsed) if !parsed.site.starts_with("serve.") => {
                record_shed(
                    shared,
                    id,
                    code::BAD_REQUEST,
                    received_at,
                    source,
                    &display,
                    &options,
                );
                reject(
                    out,
                    id,
                    watch,
                    &protocol::error_frame(
                        id,
                        code::BAD_REQUEST,
                        &format!(
                            "chaos site {:?} is not request-scoped: only serve.* sites may be \
                             injected per request (arm engine sites via AOV_CHAOS on the daemon)",
                            parsed.site
                        ),
                        None,
                    ),
                );
                return;
            }
            Ok(_) => {}
            Err(e) => {
                record_shed(
                    shared,
                    id,
                    code::BAD_REQUEST,
                    received_at,
                    source,
                    &display,
                    &options,
                );
                reject(
                    out,
                    id,
                    watch,
                    &protocol::error_frame(id, code::BAD_REQUEST, &format!("chaos: {e}"), None),
                );
                return;
            }
        }
    }
    let program = match aov_lang::parse(source) {
        Ok(p) => p,
        Err(d) => {
            record_shed(
                shared,
                id,
                code::PARSE,
                received_at,
                source,
                &display,
                &options,
            );
            reject(
                out,
                id,
                watch,
                &protocol::error_frame(id, code::PARSE, &d.render(&display), None),
            );
            return;
        }
    };
    // Request-scoped serve.accept injection fires here, at the
    // admission layer. All three kinds are absorbed locally (the panic
    // under its own catch) so every injection leaves the same evidence:
    // a structured `fault` frame plus a service bundle.
    let accept_fault = match catch_unwind(AssertUnwindSafe(|| {
        fire_request_chaos(&options, "serve.accept")
    })) {
        Ok(Ok(())) => None,
        Ok(Err(msg)) => Some(msg),
        Err(panic) => Some(format!("admission panic: {}", panic_message(&panic))),
    };
    if let Some(msg) = accept_fault {
        shared.faults.fetch_add(1, Ordering::Relaxed);
        write_service_diag(shared, &program, &options, &msg);
        record_shed(
            shared,
            id,
            code::FAULT,
            received_at,
            source,
            &display,
            &options,
        );
        reject(
            out,
            id,
            watch,
            &protocol::error_frame(id, code::FAULT, &msg, None),
        );
        return;
    }
    let deadline = options
        .deadline_ms
        .or(shared.cfg.default_deadline_ms)
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    // Admission pool: charge the declared pivot budget up front.
    let pool_charge = options.budget.pivots.unwrap_or(DEFAULT_REQUEST_PIVOTS);
    let charge = i64::try_from(pool_charge).unwrap_or(i64::MAX);
    if shared.pivot_pool.fetch_sub(charge, Ordering::AcqRel) < charge {
        shared.pivot_pool.fetch_add(charge, Ordering::AcqRel);
        shared.overloaded.fetch_add(1, Ordering::Relaxed);
        record_shed(
            shared,
            id,
            code::OVERLOADED,
            received_at,
            source,
            &display,
            &options,
        );
        reject(
            out,
            id,
            watch,
            &protocol::error_frame(
                id,
                code::OVERLOADED,
                "in-flight pivot pool exhausted",
                Some(shared.cfg.retry_after_ms),
            ),
        );
        return;
    }
    // Session assigned here — before the queue — so a same-connection
    // watch can subscribe to it while the job is still waiting.
    let session = shared.next_session.fetch_add(1, Ordering::Relaxed);
    let done = Arc::new(AtomicBool::new(false));
    let job = Job {
        id,
        digest: digest::fnv1a_hex(source.as_bytes()),
        program,
        display,
        options,
        pool_charge,
        deadline,
        out: Arc::clone(out),
        session,
        received_at,
        enqueued_at: Instant::now(),
        done: Arc::clone(&done),
    };
    // The follow cursor must exist before a worker can pick the job
    // up, or the session's first events could be recorded unseen.
    let follow_cursor = watch.then(recorder::Cursor::new);
    {
        let mut queue = shared.lock_queue();
        if queue.len() >= shared.cfg.queue_limit {
            drop(queue);
            shared.pivot_pool.fetch_add(charge, Ordering::AcqRel);
            shared.overloaded.fetch_add(1, Ordering::Relaxed);
            record_shed(
                shared,
                id,
                code::OVERLOADED,
                received_at,
                source,
                &job.display,
                &job.options,
            );
            reject(
                out,
                id,
                watch,
                &protocol::error_frame(
                    id,
                    code::OVERLOADED,
                    "request queue full",
                    Some(shared.cfg.retry_after_ms),
                ),
            );
            return;
        }
        queue.push_back(job);
    }
    shared
        .telemetry
        .record_phase(Phase::Admission, ns_since(received_at));
    shared.cv.notify_one();
    if let Some(cursor) = follow_cursor {
        follow_session(id, session, &done, cursor, out);
    }
}

/// The worker supervisor: re-enters the worker loop whenever a panic
/// escapes the per-job isolation, so a poisoned worker restarts
/// instead of silently shrinking the pool.
fn supervise_worker(shared: &Arc<Shared>, idx: usize) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_loop(shared, idx))) {
            Ok(()) => {
                // Clean drain exit.
                shared
                    .telemetry
                    .set_worker_state(idx, telemetry::worker_state::IDLE);
                return;
            }
            Err(_) => {
                shared.worker_restarts.fetch_add(1, Ordering::Relaxed);
                shared
                    .telemetry
                    .set_worker_state(idx, telemetry::worker_state::RESTARTING);
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, idx: usize) {
    loop {
        shared
            .telemetry
            .set_worker_state(idx, telemetry::worker_state::IDLE);
        let job = {
            let mut queue = shared.lock_queue();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.draining.load(Ordering::Relaxed) {
                    return;
                }
                let (guard, _) = shared
                    .cv
                    .wait_timeout(queue, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner);
                queue = guard;
            }
        };
        shared
            .telemetry
            .set_worker_state(idx, telemetry::worker_state::SOLVING);
        shared
            .telemetry
            .record_phase(Phase::QueueWait, ns_since(job.enqueued_at));
        shared.inflight.fetch_add(1, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| process_job(shared, &job)));
        if let Err(panic) = outcome {
            // A service-layer panic (e.g. injected at serve.request):
            // structured error to the client, service bundle to disk,
            // daemon lives on.
            shared.faults.fetch_add(1, Ordering::Relaxed);
            let msg = format!("worker panic: {}", panic_message(&panic));
            write_service_diag(shared, &job.program, &job.options, &msg);
            send(
                &job.out,
                &protocol::error_frame(job.id, code::FAULT, &msg, None),
            );
            finish_job_telemetry(shared, &job, code::FAULT, None, 0, 0, 0, 0, 0);
        }
        // Whatever the path, the job's final frame is out: release a
        // same-connection follow stream.
        job.done.store(true, Ordering::Release);
        shared.inflight.fetch_sub(1, Ordering::Relaxed);
        shared.served.fetch_add(1, Ordering::Relaxed);
        shared.pivot_pool.fetch_add(
            i64::try_from(job.pool_charge).unwrap_or(i64::MAX),
            Ordering::AcqRel,
        );
    }
}

/// End-of-job telemetry shared by every completion path: end-to-end
/// phase + verdict histograms, the shed window for drops, and the
/// access-log line.
#[allow(clippy::too_many_arguments)]
fn finish_job_telemetry(
    shared: &Shared,
    job: &Job,
    outcome: &str,
    exit_code: Option<i32>,
    queue_wait_ns: u64,
    solve_ns: u64,
    serialize_ns: u64,
    memo_hits: u64,
    memo_misses: u64,
) {
    let total_ns = ns_since(job.received_at);
    shared.telemetry.record_phase(Phase::EndToEnd, total_ns);
    let verdict = match outcome {
        "ok" => Verdict::Ok,
        "degraded" | "failed" => Verdict::Degraded,
        code::DEADLINE => {
            shared.telemetry.windows.bump(WindowKind::Shed, 1);
            Verdict::Overloaded
        }
        _ => Verdict::Fault,
    };
    shared.telemetry.record_verdict(verdict, total_ns);
    shared
        .telemetry
        .windows
        .bump(WindowKind::MemoHits, memo_hits);
    if let Some(log) = &shared.access_log {
        log.append(&AccessRecord {
            id: job.id,
            session: job.session,
            program: &job.display,
            digest: &job.digest,
            outcome,
            exit_code,
            queue_wait_ns,
            solve_ns,
            serialize_ns,
            total_ns,
            knobs: knobs_json(&job.options),
            memo_hits,
            memo_misses,
        });
    }
}

fn write_service_diag(
    shared: &Shared,
    program: &aov_ir::Program,
    options: &SolveOptions,
    message: &str,
) {
    if let Some(dir) = &shared.cfg.diag_dir {
        let _ = diag::write_service_bundle(
            dir,
            program,
            options.workers.max(1),
            options.budget,
            message,
            0, // the fault preempted session assignment; keep the tail
        );
    }
}

/// Fires a request-scoped `serve.*` chaos spec at `site`, mimicking
/// the global injector's fault kinds: `error`/`budget` reject the
/// request with a structured message, `panic` unwinds into the
/// supervised catch above.
fn fire_request_chaos(options: &SolveOptions, site: &str) -> Result<(), String> {
    let Some(spec) = &options.chaos else {
        return Ok(());
    };
    let Ok(parsed) = ChaosSpec::parse(spec) else {
        return Ok(()); // rejected at admission; unreachable here
    };
    if parsed.site != site {
        return Ok(());
    }
    match parsed.kind {
        FaultKind::Error => Err(format!("chaos error injected at {site}")),
        FaultKind::Budget => Err(format!("chaos budget trip injected at {site}")),
        FaultKind::Panic => panic!("chaos panic injected at {site}"),
    }
}

/// Runs one admitted job through the pipeline and answers the client.
fn process_job(shared: &Arc<Shared>, job: &Job) {
    let queue_wait_ns = ns_since(job.enqueued_at);
    // Drop-before-solving: a request whose client deadline passed while
    // it sat in the queue gets a deadline error, not a solve.
    let remaining = match job.deadline {
        Some(deadline) => {
            let now = Instant::now();
            if now >= deadline {
                send(
                    &job.out,
                    &protocol::error_frame(
                        job.id,
                        code::DEADLINE,
                        "deadline expired while queued",
                        None,
                    ),
                );
                finish_job_telemetry(shared, job, code::DEADLINE, None, queue_wait_ns, 0, 0, 0, 0);
                return;
            }
            Some(deadline.duration_since(now))
        }
        None => None,
    };
    // Chaos probes: the request pickup and memo-arming layers. Errors
    // reject with a structured frame + service bundle; panics unwind
    // into the worker's catch.
    for site in ["serve.request", "serve.memo"] {
        if site == "serve.memo" && !shared.cfg.memo {
            continue;
        }
        let fault = match chaos::tick(site) {
            Err(e) => Some(e.to_string()),
            Ok(()) => fire_request_chaos(&job.options, site).err(),
        };
        if let Some(msg) = fault {
            shared.faults.fetch_add(1, Ordering::Relaxed);
            write_service_diag(shared, &job.program, &job.options, &msg);
            send(
                &job.out,
                &protocol::error_frame(job.id, code::FAULT, &msg, None),
            );
            finish_job_telemetry(shared, job, code::FAULT, None, queue_wait_ns, 0, 0, 0, 0);
            return;
        }
    }
    // Fold the remaining client deadline into the solve's wall-clock
    // budget: the tighter constraint wins.
    let mut budget = job.options.budget;
    if let Some(remaining) = remaining {
        let remaining_ms = u64::try_from(remaining.as_millis())
            .unwrap_or(u64::MAX)
            .max(1);
        budget.ms = Some(budget.ms.map_or(remaining_ms, |ms| ms.min(remaining_ms)));
    }
    let session = job.session;
    let mut pipeline = Pipeline::new(job.program.clone())
        .workers(job.options.workers.max(1))
        .memoize(job.options.memoize && shared.cfg.memo)
        .budget(budget)
        .session(session);
    if let Some(dir) = &shared.cfg.diag_dir {
        pipeline = pipeline.diag_dir(dir.clone());
    }
    let solve_start = Instant::now();
    let result = pipeline.run();
    let solve_ns = ns_since(solve_start);
    shared.telemetry.record_phase(Phase::Solve, solve_ns);
    match result {
        Ok(report) => {
            // The run's own memo economics, exact under concurrency.
            let memo_hits = report.counter("lp.memo.hits");
            let memo_misses = report.counter("lp.memo.misses");
            // The CLI's exit-code contract, mirrored per frame.
            let exit_code = match report.health() {
                Health::Degraded | Health::Failed => 3,
                Health::Ok if report.equivalent == Some(false) => 1,
                Health::Ok => 0,
            };
            let serialize_start = Instant::now();
            send(
                &job.out,
                &protocol::report_frame(
                    job.id,
                    session,
                    exit_code,
                    report.health().name(),
                    report.to_json(),
                ),
            );
            let serialize_ns = ns_since(serialize_start);
            shared
                .telemetry
                .record_phase(Phase::Serialize, serialize_ns);
            finish_job_telemetry(
                shared,
                job,
                report.health().name(),
                Some(exit_code),
                queue_wait_ns,
                solve_ns,
                serialize_ns,
                memo_hits,
                memo_misses,
            );
        }
        Err(e) => {
            // Hard failure: the pipeline already wrote its bundle
            // (partial ladder included) when a diag dir is configured.
            shared.faults.fetch_add(1, Ordering::Relaxed);
            send(
                &job.out,
                &protocol::error_frame(job.id, code::FAULT, &format!("{}: {e}", job.display), None),
            );
            finish_job_telemetry(
                shared,
                job,
                code::FAULT,
                None,
                queue_wait_ns,
                solve_ns,
                0,
                0,
                0,
            );
        }
    }
}

/// Installs a SIGTERM handler that sets (and returns) a process-global
/// flag — the only async-signal-safe thing a handler may do. The
/// `aovd` main loop polls the flag and drains. On non-unix targets the
/// flag simply never fires.
pub fn sigterm_flag() -> &'static AtomicBool {
    static FLAG: AtomicBool = AtomicBool::new(false);
    #[cfg(unix)]
    {
        use std::sync::Once;
        static INSTALL: Once = Once::new();
        INSTALL.call_once(|| {
            extern "C" {
                fn signal(signum: i32, handler: usize) -> usize;
            }
            extern "C" fn on_sigterm(_: i32) {
                FLAG.store(true, Ordering::SeqCst);
            }
            const SIGTERM: i32 = 15;
            // SAFETY: installing a handler that only stores to a
            // static atomic is async-signal-safe; the cast matches the
            // C `void (*)(int)` ABI.
            unsafe {
                signal(SIGTERM, on_sigterm as *const () as usize);
            }
        });
    }
    &FLAG
}
