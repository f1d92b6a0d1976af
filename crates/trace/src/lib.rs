//! Hierarchical tracing for the `aov` solver stack.
//!
//! Any code can open a span —
//!
//! ```
//! aov_trace::set_enabled(true);
//! {
//!     let _outer = aov_trace::span!("solve.outer", example = 1);
//!     let _inner = aov_trace::span!("solve.inner");
//! }
//! aov_trace::set_enabled(false);
//! let records = aov_trace::drain();
//! assert_eq!(records.len(), 2);
//! assert_eq!(aov_trace::tree(&records)[0].name, "solve.outer");
//! ```
//!
//! — and get nested, thread-attributed wall-clock timing plus `key=value`
//! fields. Spans are kept on a thread-local stack (so nesting needs no
//! coordination) and finished spans are published to the sink of the
//! thread's installed [`aov_support::context`]: a pipeline run's own, or
//! the process root outside any run. A finished run folds its spans into
//! its parent, so [`drain`] outside any run sees every finished run.
//! Three consumers read the drained records:
//!
//! * [`chrome`] — Chrome trace-event JSON, loadable in Perfetto or
//!   `chrome://tracing`, one track per worker thread,
//! * [`flame`] — an in-process self-time/total-time flame table with
//!   call counts, p50/p95 duration histograms, and per-span heap
//!   columns fed by `aov_support::alloc`,
//! * [`metrics`] — a single `Json` report merging span aggregates with
//!   the `aov-support::counters` registry.
//!
//! # Memory attribution
//!
//! While full tracing is enabled, every span opens an
//! `aov_support::alloc` scope, so its [`SpanRecord`] carries the
//! allocations, bytes, and peak net bytes charged to the span itself
//! (self-bytes — children's traffic lands on the children, exactly like
//! `self_ns` in the flame table), plus the largest numeric bit-width
//! the solvers reported inside it.
//!
//! # Cost when disabled
//!
//! Full tracing is off by default. A disabled [`span!`] still feeds the
//! always-on [`recorder`] ring (one enter and one exit event, tens of
//! nanoseconds, no allocation) and maintains the thread's span-label
//! stack so budget trips can name the active span — but it evaluates
//! only the name expression, never the fields, and records nothing to
//! the sink. Turning the recorder off too ([`recorder::set_recording`])
//! reduces a disabled span to one atomic load and a branch.
//!
//! # Determinism
//!
//! Span ids and per-thread track ids are small sequential integers, and
//! [`drain`] returns records sorted by `(thread, start, id)`. For
//! comparisons that must ignore scheduling noise, [`tree`] rebuilds the
//! hierarchy with no timestamps at all (names, fields and children
//! only), which makes span trees comparable across runs.

pub mod chrome;
pub mod flame;
pub mod metrics;
pub mod recorder;

use aov_support::context;
pub use aov_support::context::SpanRecord;
use recorder::EventKind;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

/// Monotonic origin for all span timestamps (first use wins).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch (shared by spans and the ring).
pub(crate) fn now_ns() -> u64 {
    Instant::now().duration_since(epoch()).as_nanos() as u64
}

/// The calling thread's trace track id (also stamped on ring events).
pub(crate) fn thread_track_id() -> u64 {
    TLS.try_with(|tls| tls.borrow().thread_id)
        .unwrap_or(0xffff_ffff)
}

/// Turns tracing on or off process-wide. Spans already open keep
/// recording (their guard captured the enabled state at entry).
pub fn set_enabled(on: bool) {
    if on {
        epoch(); // pin the time origin before the first span
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently active (one relaxed atomic load).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A span label truncated to the recorder's inline capacity; kept on
/// the thread's label stack so [`current_span_label`] works without
/// allocation even for always-on lite spans.
#[derive(Clone, Copy)]
struct SmallLabel {
    bytes: [u8; recorder::LABEL_BYTES],
    len: u8,
}

impl SmallLabel {
    fn new(name: &str) -> SmallLabel {
        let src = name.as_bytes();
        let len = src.len().min(recorder::LABEL_BYTES);
        let mut bytes = [0u8; recorder::LABEL_BYTES];
        bytes[..len].copy_from_slice(&src[..len]);
        SmallLabel {
            bytes,
            len: len as u8,
        }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len as usize]).unwrap_or("")
    }
}

/// Label-stack capacity reserved when a thread's state is created, so
/// opening spans never allocates below this nesting depth.
const LABEL_DEPTH: usize = 32;

struct ThreadState {
    thread_id: u64,
    /// Open span ids, innermost last (full-tracing spans only).
    stack: Vec<u64>,
    /// Labels of every open span — full *and* lite — innermost last.
    labels: Vec<SmallLabel>,
}

thread_local! {
    static TLS: RefCell<ThreadState> = RefCell::new(ThreadState {
        thread_id: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        labels: Vec::with_capacity(LABEL_DEPTH),
    });
}

/// The name of the innermost span open on this thread, tracing on or
/// off. Budget trips use this to stamp the active span into the flight
/// recorder and the diagnostic bundle.
#[must_use]
pub fn current_span_label() -> Option<String> {
    TLS.try_with(|tls| tls.borrow().labels.last().map(|l| l.as_str().to_string()))
        .ok()
        .flatten()
}

struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    thread: u64,
    name: String,
    fields: Vec<(&'static str, String)>,
    start: Instant,
    start_ns: u64,
    alloc: aov_support::alloc::AllocScope,
}

/// A lightweight always-on span: feeds the flight recorder and the
/// label stack, records nothing to the sink. Its enter event's
/// timestamp is its start, so entry and exit read the clock once each.
struct LiteSpan {
    label: SmallLabel,
    start_ns: u64,
}

enum GuardInner {
    Off,
    Lite(LiteSpan),
    Full(ActiveSpan),
}

/// RAII guard of one span; records the span on drop. Obtain via
/// [`span!`].
pub struct SpanGuard(GuardInner);

impl SpanGuard {
    /// The no-op guard handed out while both tracing and the flight
    /// recorder are off.
    #[inline]
    pub fn disabled() -> SpanGuard {
        SpanGuard(GuardInner::Off)
    }

    /// Opens a recorder-only span (the tracing-disabled arm of
    /// [`span!`]): one ring event on entry and exit, one clock read for
    /// each, a label-stack push, no sink record and no allocation.
    pub fn enter_lite(name: &str) -> SpanGuard {
        if !recorder::recording() {
            return SpanGuard::disabled();
        }
        let label = SmallLabel::new(name);
        let _ = TLS.try_with(|tls| tls.borrow_mut().labels.push(label));
        let start_ns = now_ns();
        recorder::record_at(start_ns, EventKind::SpanEnter, label.as_str(), 0, 0);
        SpanGuard(GuardInner::Lite(LiteSpan { label, start_ns }))
    }

    /// Opens a span (the enabled arm of [`span!`]). Prefer the macro,
    /// which checks [`enabled`] before evaluating any argument.
    pub fn enter_with(name: String, fields: Vec<(&'static str, String)>) -> SpanGuard {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let label = SmallLabel::new(&name);
        let (parent, thread) = TLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            let parent = tls.stack.last().copied();
            let thread = tls.thread_id;
            tls.stack.push(id);
            tls.labels.push(label);
            (parent, thread)
        });
        recorder::record(EventKind::SpanEnter, label.as_str(), id, 0);
        // The allocation scope opens last so the guard's own
        // bookkeeping above charges the *enclosing* span.
        let alloc = aov_support::alloc::scope();
        let start = Instant::now();
        let start_ns = start.duration_since(epoch()).as_nanos() as u64;
        SpanGuard(GuardInner::Full(ActiveSpan {
            id,
            parent,
            thread,
            name,
            fields,
            start,
            start_ns,
            alloc,
        }))
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        match std::mem::replace(&mut self.0, GuardInner::Off) {
            GuardInner::Off => {}
            GuardInner::Lite(span) => {
                let end_ns = now_ns();
                let dur_ns = end_ns.saturating_sub(span.start_ns);
                let _ = TLS.try_with(|tls| {
                    tls.borrow_mut().labels.pop();
                });
                recorder::record_at(end_ns, EventKind::SpanExit, span.label.as_str(), 0, dur_ns);
            }
            GuardInner::Full(span) => {
                let dur_ns = span.start.elapsed().as_nanos() as u64;
                let alloc_stats = span.alloc.stats();
                // Close the allocation scope before the sink push so
                // the record's own storage charges the enclosing span.
                drop(span.alloc);
                TLS.with(|tls| {
                    let mut tls = tls.borrow_mut();
                    // Guards are scope-bound, so this is a plain pop;
                    // tolerate out-of-order drops by searching.
                    match tls.stack.last() {
                        Some(&top) if top == span.id => {
                            tls.stack.pop();
                        }
                        _ => tls.stack.retain(|&id| id != span.id),
                    }
                    tls.labels.pop();
                });
                recorder::record(EventKind::SpanExit, &span.name, span.id, dur_ns);
                let record = SpanRecord {
                    id: span.id,
                    parent: span.parent,
                    thread: span.thread,
                    name: span.name,
                    fields: span.fields,
                    start_ns: span.start_ns,
                    dur_ns,
                    alloc_allocs: alloc_stats.allocs,
                    alloc_bytes: alloc_stats.bytes,
                    alloc_peak: alloc_stats.peak.max(0) as u64,
                    max_bits: alloc_stats.max_bits,
                };
                // Sink maintenance (the record vector doubling) is
                // telemetry bookkeeping: exempt it from scope
                // attribution so growth reallocations never charge
                // whichever user span happens to enclose this drop.
                let _pause = aov_support::alloc::exempt();
                context::push_span(record);
            }
        }
    }
}

/// Opens a span, returning its [`SpanGuard`]:
///
/// ```
/// let _s = aov_trace::span!("lp.solve", vars = 12, constraints = 30);
/// ```
///
/// The name may be any expression yielding a `String`-convertible value;
/// field values use their `Display` form. While tracing is disabled
/// only the name expression is evaluated (for the flight-recorder
/// event); the fields never are.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::enter_with(
                ::std::string::String::from($name),
                ::std::vec![$((
                    ::std::stringify!($key),
                    ::std::string::ToString::to_string(&$value),
                )),*],
            )
        } else {
            $crate::SpanGuard::enter_lite(::std::convert::AsRef::<str>::as_ref(&$name))
        }
    };
}

/// Opens a span on a *hot* call site — one entered so often that its
/// lite-mode ring events would flood the flight recorder and scroll
/// away the low-rate evidence crash bundles rely on (stage
/// transitions, chaos markers, budget trips): a 4096-slot ring holds
/// well under a second of `polyhedra::dd` churn. While tracing is
/// enabled the guard records a full span exactly like [`span!`]; while
/// disabled it is a free no-op — no ring events, no label push, no
/// timestamps.
#[macro_export]
macro_rules! hot_span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::enter_with(
                ::std::string::String::from($name),
                ::std::vec![$((
                    ::std::stringify!($key),
                    ::std::string::ToString::to_string(&$value),
                )),*],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

/// Removes and returns every finished span of the current context —
/// outside any run, the process root's: every span recorded outside a
/// run plus every finished run's — sorted by `(thread, start, id)` for
/// deterministic downstream processing.
pub fn drain() -> Vec<SpanRecord> {
    let mut records = context::take_spans();
    records.sort_by_key(|r| (r.thread, r.start_ns, r.id));
    records
}

/// Discards every finished span of the current context.
pub fn clear() {
    drop(context::take_spans());
}

/// One node of a timestamp-free span tree (see [`tree`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeNode {
    pub name: String,
    pub fields: Vec<(&'static str, String)>,
    pub children: Vec<TreeNode>,
}

/// Rebuilds the span hierarchy with timestamps zeroed out: each node
/// keeps only its name, fields and children. Children are ordered by
/// `(name, fields, start)` so trees compare equal across runs. Roots
/// are spans whose parent is absent from `records`.
pub fn tree(records: &[SpanRecord]) -> Vec<TreeNode> {
    fn build(records: &[SpanRecord], parent: Option<u64>, known: &[u64]) -> Vec<TreeNode> {
        let mut nodes: Vec<(&SpanRecord, TreeNode)> = records
            .iter()
            .filter(|r| match parent {
                Some(p) => r.parent == Some(p),
                None => r.parent.is_none_or(|p| !known.contains(&p)),
            })
            .map(|r| {
                (
                    r,
                    TreeNode {
                        name: r.name.clone(),
                        fields: r.fields.clone(),
                        children: build(records, Some(r.id), known),
                    },
                )
            })
            .collect();
        nodes.sort_by(|(ra, a), (rb, b)| {
            (&a.name, &a.fields, ra.start_ns, ra.id).cmp(&(&b.name, &b.fields, rb.start_ns, rb.id))
        });
        nodes.into_iter().map(|(_, n)| n).collect()
    }
    let known: Vec<u64> = records.iter().map(|r| r.id).collect();
    build(records, None, &known)
}

/// Serializes this crate's tests that touch process-global state: the
/// root span sink, the tracing switch and the flight-recorder ring
/// (every span, enabled or not, writes to the ring).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    TEST_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_tracing<R>(f: impl FnOnce() -> R) -> (R, Vec<SpanRecord>) {
        let _guard = test_lock();
        set_enabled(true);
        clear();
        let out = f();
        set_enabled(false);
        (out, drain())
    }

    #[test]
    fn disabled_records_nothing() {
        let _guard = test_lock();
        set_enabled(false);
        clear();
        {
            let _s = span!("test.disabled");
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn disabled_span_still_feeds_recorder_and_labels() {
        let _guard = test_lock();
        set_enabled(false);
        recorder::clear();
        {
            let _s = span!("test.lite_span");
            assert_eq!(current_span_label().as_deref(), Some("test.lite_span"));
        }
        assert!(
            current_span_label().is_none()
                || current_span_label().as_deref() != Some("test.lite_span")
        );
        let events = recorder::snapshot();
        let enter = events
            .iter()
            .find(|e| e.kind == EventKind::SpanEnter && e.label == "test.lite_span");
        let exit = events
            .iter()
            .find(|e| e.kind == EventKind::SpanExit && e.label == "test.lite_span");
        assert!(enter.is_some(), "lite enter recorded");
        assert!(exit.is_some(), "lite exit recorded");
        assert!(drain().is_empty(), "lite spans never reach the sink");
    }

    #[test]
    fn nesting_and_fields() {
        let (_, records) = with_tracing(|| {
            let _a = span!("test.outer", k = 7);
            let _b = span!("test.inner");
        });
        assert_eq!(records.len(), 2);
        let roots = tree(&records);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "test.outer");
        assert_eq!(roots[0].fields, vec![("k", "7".to_string())]);
        assert_eq!(roots[0].children.len(), 1);
        assert_eq!(roots[0].children[0].name, "test.inner");
    }

    #[test]
    fn spans_carry_their_own_alloc_traffic() {
        let (_, records) = with_tracing(|| {
            let _a = span!("test.alloc_outer");
            {
                let _b = span!("test.alloc_inner");
                // `black_box` keeps the optimizer from eliding the
                // otherwise-unused allocation.
                let v = std::hint::black_box(vec![0u8; 1_000_000]);
                aov_support::alloc::record_bits(129);
                drop(v);
            }
        });
        let inner = records
            .iter()
            .find(|r| r.name == "test.alloc_inner")
            .unwrap();
        assert!(inner.alloc_bytes >= 1_000_000, "{inner:?}");
        assert!(inner.alloc_peak >= 1_000_000, "{inner:?}");
        assert_eq!(inner.max_bits, 129);
        let outer = records
            .iter()
            .find(|r| r.name == "test.alloc_outer")
            .unwrap();
        assert!(
            outer.alloc_bytes < 1_000_000,
            "inner traffic must not leak to the parent: {outer:?}"
        );
    }

    #[test]
    fn siblings_close_in_order() {
        let (_, records) = with_tracing(|| {
            {
                let _a = span!("test.first");
            }
            {
                let _b = span!("test.second");
            }
        });
        let roots = tree(&records);
        assert_eq!(roots.len(), 2);
        // Ordered by start time (first opened first).
        assert_eq!(roots[0].name, "test.first");
        assert_eq!(roots[1].name, "test.second");
    }

    #[test]
    fn drain_is_sorted_and_clears() {
        let (_, records) = with_tracing(|| {
            let _a = span!("test.z");
            let _b = span!("test.y");
        });
        assert!(records.windows(2).all(
            |w| (w[0].thread, w[0].start_ns, w[0].id) <= (w[1].thread, w[1].start_ns, w[1].id)
        ));
        assert!(drain().is_empty());
    }
}
