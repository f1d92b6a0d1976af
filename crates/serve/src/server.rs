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
//! flight-recorder event it records, so one request's crash bundle
//! carries only its own timeline even though the ring is process-global.
//! The report frame echoes the id.

use std::collections::VecDeque;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use aov_engine::{diag, Health, Pipeline};
use aov_fault::chaos::{self, ChaosSpec, FaultKind};
use aov_support::{Json, ToJson as _};

use crate::protocol::{self, code, RequestKind, SolveOptions};

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
}

/// Worker states surfaced by `stats`.
mod worker_state {
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
    /// When the daemon started (`uptime_ms` in `stats`).
    started: Instant,
    /// One [`worker_state`] code per solver worker.
    worker_states: Vec<AtomicU8>,
}

impl Shared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn set_worker_state(&self, idx: usize, state: u8) {
        self.worker_states[idx].store(state, Ordering::Relaxed);
    }
}

/// Writes one frame as a single line. The whole line goes out in one
/// buffered write under the connection's writer lock — a concurrent
/// frame can interleave between lines, never inside one. A client that
/// hung up loses the frame; the daemon carries on.
fn send(out: &Arc<Mutex<TcpStream>>, frame: &Json) {
    let mut line = frame.to_compact();
    line.push('\n');
    let mut stream = out.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.flush());
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
            started: Instant::now(),
            worker_states: (0..workers)
                .map(|_| AtomicU8::new(worker_state::IDLE))
                .collect(),
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
        RequestKind::Solve {
            source,
            display,
            options,
        } => admit_solve(shared, id, &source, display, options, out),
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
        .field(
            "uptime_ms",
            u64::try_from(shared.started.elapsed().as_millis()).unwrap_or(u64::MAX),
        )
        .field(
            "workers",
            Json::Arr(
                shared
                    .worker_states
                    .iter()
                    .enumerate()
                    .map(|(id, s)| {
                        Json::obj()
                            .field("id", id)
                            .field("state", worker_state::name(s.load(Ordering::Relaxed)))
                    })
                    .collect(),
            ),
        )
        .field("memo", protocol::memo_json(&aov_lp::memo::stats()))
}

/// The admission policy: shed load *before* any solver work.
fn admit_solve(
    shared: &Arc<Shared>,
    id: i64,
    source: &str,
    display: String,
    options: SolveOptions,
    out: &Arc<Mutex<TcpStream>>,
) {
    if shared.draining.load(Ordering::Relaxed) {
        send(
            out,
            &protocol::error_frame(id, code::SHUTTING_DOWN, "daemon is draining", None),
        );
        return;
    }
    // Request-scoped chaos is restricted to the service layer: letting
    // a tenant arm engine sites would fault its neighbors' solves.
    if let Some(spec) = &options.chaos {
        match ChaosSpec::parse(spec) {
            Ok(parsed) if !parsed.site.starts_with("serve.") => {
                send(
                    out,
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
                send(
                    out,
                    &protocol::error_frame(id, code::BAD_REQUEST, &format!("chaos: {e}"), None),
                );
                return;
            }
        }
    }
    let program = match aov_lang::parse(source) {
        Ok(p) => p,
        Err(d) => {
            send(
                out,
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
        send(out, &protocol::error_frame(id, code::FAULT, &msg, None));
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
        send(
            out,
            &protocol::error_frame(
                id,
                code::OVERLOADED,
                "in-flight pivot pool exhausted",
                Some(shared.cfg.retry_after_ms),
            ),
        );
        return;
    }
    let job = Job {
        id,
        program,
        display,
        options,
        pool_charge,
        deadline,
        out: Arc::clone(out),
        session: shared.next_session.fetch_add(1, Ordering::Relaxed),
    };
    {
        let mut queue = shared.lock_queue();
        if queue.len() >= shared.cfg.queue_limit {
            drop(queue);
            shared.pivot_pool.fetch_add(charge, Ordering::AcqRel);
            shared.overloaded.fetch_add(1, Ordering::Relaxed);
            send(
                out,
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
    shared.cv.notify_one();
}

/// The worker supervisor: re-enters the worker loop whenever a panic
/// escapes the per-job isolation, so a poisoned worker restarts
/// instead of silently shrinking the pool.
fn supervise_worker(shared: &Arc<Shared>, idx: usize) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_loop(shared, idx))) {
            Ok(()) => {
                // Clean drain exit.
                shared.set_worker_state(idx, worker_state::IDLE);
                return;
            }
            Err(_) => {
                shared.worker_restarts.fetch_add(1, Ordering::Relaxed);
                shared.set_worker_state(idx, worker_state::RESTARTING);
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, idx: usize) {
    loop {
        shared.set_worker_state(idx, worker_state::IDLE);
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
        shared.set_worker_state(idx, worker_state::SOLVING);
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
        }
        shared.inflight.fetch_sub(1, Ordering::Relaxed);
        shared.served.fetch_add(1, Ordering::Relaxed);
        shared.pivot_pool.fetch_add(
            i64::try_from(job.pool_charge).unwrap_or(i64::MAX),
            Ordering::AcqRel,
        );
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
    let mut pipeline = Pipeline::new(job.program.clone())
        .memoize(job.options.memoize && shared.cfg.memo)
        .budget(budget)
        .session(job.session);
    if let Some(dir) = &shared.cfg.diag_dir {
        pipeline = pipeline.diag_dir(dir.clone());
    }
    match pipeline.run() {
        Ok(report) => {
            // The CLI's exit-code contract, mirrored per frame.
            let exit_code = match report.health() {
                Health::Degraded | Health::Failed => 3,
                Health::Ok if report.equivalent == Some(false) => 1,
                Health::Ok => 0,
            };
            send(
                &job.out,
                &protocol::report_frame(
                    job.id,
                    job.session,
                    exit_code,
                    report.health().name(),
                    report.to_json(),
                ),
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
