//! Live solve progress (`--progress`).
//!
//! Long solves (example3 runs for a minute) are silent by default: the
//! flight recorder and counters see everything, but nothing reaches the
//! terminal until the report prints. A [`ProgressSampler`] is a small
//! sampler thread that wakes on a fixed interval, reads the always-on
//! telemetry the solvers already maintain — the
//! [recorder](aov_trace::recorder) ring for the current stage and span,
//! the live process-wide [`aov_support::counters::snapshot`] (runs in
//! flight included) for pivot and vertex totals — and emits one stderr
//! heartbeat line per tick:
//!
//! ```text
//! [progress 12.0s] stage=legal_schedule span=p2.vertex_enum pivots=1086 (+0/s) vertices=19732 (+1849/s)
//! ```
//!
//! The sampler is strictly read-only and out-of-band: ring snapshots
//! are seqlock reads and counter cells relaxed atomic loads; the only
//! locks it takes are the counter registry and the run contexts' child
//! lists, which the solver threads touch only when a run or stage
//! starts or finishes. Its cost is a handful of microseconds per tick
//! on the sampler thread and *zero* instructions on the solver threads.
//! When `--progress` is not given, no thread starts and no code runs at
//! all.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use aov_trace::recorder::{self, EventKind};

/// Counters worth a rate column on the heartbeat: the simplex pivot
/// count (LP effort) and the double-description vertex count
/// (polyhedral effort).
const RATE_COUNTERS: [(&str, &str); 2] = [
    ("pivots", "lp.simplex.pivots"),
    ("vertices", "polyhedra.dd.vertices"),
];

/// Live process-wide values of [`RATE_COUNTERS`].
fn rate_counters() -> [u64; RATE_COUNTERS.len()] {
    let snap = aov_support::counters::snapshot();
    RATE_COUNTERS.map(|(_, name)| snap.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v))
}

/// A running heartbeat thread; construct with [`ProgressSampler::start`],
/// stop by dropping (or explicitly via [`ProgressSampler::finish`]).
///
/// Shutdown is a condvar notification, not a polled flag: the sampler
/// blocks in one `wait_timeout` per tick, so a run shorter than the
/// interval never wakes the thread at all, and `finish` interrupts a
/// pending wait immediately instead of waiting out a sleep slice. A
/// full start/finish round-trip (spawn, one blocked wait, notify,
/// join) measures ~17µs. Note one cost the sampler cannot avoid: on a
/// previously single-threaded run (`--workers 1`), spawning *any*
/// thread permanently disables glibc malloc's single-threaded fast
/// path, which an allocation-bound solve feels as a double-digit
/// slowdown — a no-op `spawn(..).join()` reproduces it exactly.
/// Multi-worker runs already pay that; see EXPERIMENTS.md.
pub struct ProgressSampler {
    shared: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Tracks the current stage and span labels across ring snapshots.
///
/// Stage events are rare next to span events: on a busy solve a
/// `StageEnter` scrolls out of the 4096-slot ring within a second, so a
/// per-snapshot scan would lose the stage almost immediately. The
/// tracker instead folds in only events newer than the last one it has
/// seen — the stage sticks until its `StageExit` arrives. The span is
/// simply the label of the newest `SpanEnter` (spans churn far too fast
/// to pair enters with exits across the window; the most recent entry
/// names the work accurately enough for a once-a-second line).
struct LabelTracker {
    next_seq: u64,
    stage: Option<String>,
    span: Option<String>,
}

impl LabelTracker {
    fn new() -> LabelTracker {
        LabelTracker {
            next_seq: 0,
            stage: None,
            span: None,
        }
    }

    fn update(&mut self, events: &[recorder::Event]) {
        for e in events {
            if e.seq < self.next_seq {
                continue;
            }
            self.next_seq = e.seq + 1;
            match e.kind {
                EventKind::StageEnter => self.stage = Some(e.label.clone()),
                EventKind::StageExit => self.stage = None,
                EventKind::SpanEnter => self.span = Some(e.label.clone()),
                _ => {}
            }
        }
    }
}

impl ProgressSampler {
    /// Starts the heartbeat, one line per `interval`. `budget_ms`, when
    /// given, is appended to each line as `elapsed/budget`.
    #[must_use]
    pub fn start(interval: Duration, budget_ms: Option<u64>) -> ProgressSampler {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("aov-progress".to_string())
            .spawn(move || {
                let t0 = Instant::now();
                let mut last_tick = t0;
                let mut last = rate_counters();
                let mut labels = LabelTracker::new();
                let (stopped, cvar) = &*thread_shared;
                let mut stopped = stopped.lock().expect("progress flag poisoned");
                loop {
                    // One blocking wait per tick; finish() notifies the
                    // condvar so shutdown never waits out the interval.
                    let tick_due = last_tick + interval;
                    loop {
                        if *stopped {
                            return;
                        }
                        let now = Instant::now();
                        if now >= tick_due {
                            break;
                        }
                        stopped = cvar
                            .wait_timeout(stopped, tick_due - now)
                            .expect("progress flag poisoned")
                            .0;
                    }
                    let now = Instant::now();
                    let dt = now.duration_since(last_tick).as_secs_f64().max(1e-9);
                    last_tick = now;
                    labels.update(&recorder::snapshot());
                    let mut line = format!("[progress {:.1}s]", t0.elapsed().as_secs_f64());
                    line.push_str(&format!(
                        " stage={}",
                        labels.stage.as_deref().unwrap_or("-")
                    ));
                    line.push_str(&format!(" span={}", labels.span.as_deref().unwrap_or("-")));
                    let now_counts = rate_counters();
                    for (i, (short, _)) in RATE_COUNTERS.iter().enumerate() {
                        let cur = now_counts[i];
                        let rate = (cur.saturating_sub(last[i])) as f64 / dt;
                        line.push_str(&format!(" {short}={cur} (+{rate:.0}/s)"));
                        last[i] = cur;
                    }
                    if let Some(ms) = budget_ms {
                        line.push_str(&format!(
                            " budget={:.1}s/{:.1}s",
                            t0.elapsed().as_secs_f64(),
                            ms as f64 / 1e3
                        ));
                    }
                    eprintln!("{line}");
                }
            })
            .expect("spawn progress sampler");
        ProgressSampler {
            shared,
            handle: Some(handle),
        }
    }

    /// Stops the heartbeat and joins the thread.
    pub fn finish(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let (stopped, cvar) = &*self.shared;
        if let Ok(mut flag) = stopped.lock() {
            *flag = true;
        }
        cvar.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ProgressSampler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_tracker_follows_stage_and_span() {
        let ev = |seq, kind, label: &str| recorder::Event {
            seq,
            t_ns: 0,
            thread: 0,
            session: 0,
            kind,
            label: label.to_string(),
            a: 0,
            b: 0,
        };
        let mut t = LabelTracker::new();
        t.update(&[
            ev(0, EventKind::StageEnter, "problem1"),
            ev(1, EventKind::StageExit, "problem1"),
            ev(2, EventKind::StageEnter, "problem2"),
            ev(3, EventKind::SpanEnter, "p2.vertex_enum"),
            ev(4, EventKind::SpanEnter, "p2.dd.step"),
            ev(5, EventKind::SpanExit, "p2.dd.step"),
        ]);
        assert_eq!(t.stage.as_deref(), Some("problem2"));
        assert_eq!(t.span.as_deref(), Some("p2.dd.step"));
        // A later snapshot where the StageEnter has scrolled out of the
        // ring keeps the stage: only newer events change state.
        t.update(&[ev(4, EventKind::SpanEnter, "p2.vertex_enum")]);
        assert_eq!(t.stage.as_deref(), Some("problem2"));
        assert_eq!(t.span.as_deref(), Some("p2.dd.step"));
        // The stage clears on its (newer) exit event.
        t.update(&[ev(6, EventKind::StageExit, "problem2")]);
        assert_eq!(t.stage, None);
    }

    #[test]
    fn sampler_starts_ticks_and_stops() {
        let sampler = ProgressSampler::start(Duration::from_millis(5), Some(1000));
        std::thread::sleep(Duration::from_millis(30));
        sampler.finish(); // must join without hanging
    }
}
