//! Run-scoped telemetry: one [`Context`] per pipeline run.
//!
//! A context holds what a run reports: one cell per counter id (see
//! [`counters`](crate::counters)), the allocations and bytes its threads
//! performed, the largest numeric bit-width they reported, its finished
//! spans, its flight-recorder session and its LP-memo flag. A thread
//! installs one with [`Context::enter`]; several threads may enter the
//! same context, each charging it exactly. A counter bump is one
//! thread-local read plus one relaxed add into the installed context.
//! The allocator's per-event path never touches a context: its batched
//! tallies drain into the installed one at each flush, and entering or
//! leaving a context flushes first, so the totals are exact.
//!
//! [`Context::child`] opens a context under the current one. A finished
//! child folds into its parent: additive counters, allocations and
//! bytes add, max counters and the bit-width keep the larger value, and
//! spans move over. With no context installed a thread charges the
//! process root, so readers of the root see every finished run plus the
//! work done outside any run; a run still in flight reaches the root
//! only when it finishes.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Counter ids a context has cells for.
pub const MAX_COUNTERS: usize = 64;

/// One finished trace span.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id (sequential, process-wide).
    pub id: u64,
    /// Enclosing span (always on the same thread).
    pub parent: Option<u64>,
    /// Small sequential id of the recording thread (trace track).
    pub thread: u64,
    /// Span name (aggregation key of the flame table).
    pub name: String,
    /// `key=value` fields attached at entry.
    pub fields: Vec<(&'static str, String)>,
    /// Start offset from the trace epoch, nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, nanoseconds.
    pub dur_ns: u64,
    /// Heap allocations charged to this span itself (not children).
    pub alloc_allocs: u64,
    /// Heap bytes charged to this span itself.
    pub alloc_bytes: u64,
    /// High-water mark of net live bytes while the span was innermost.
    pub alloc_peak: u64,
    /// Largest numeric bit-width reported inside the span (0 = none).
    pub max_bits: u64,
}

/// The telemetry of one run, one stage, or the process root.
#[derive(Debug)]
pub struct Context {
    /// `None` only for the root.
    parent: Option<Arc<Context>>,
    session: u64,
    /// `None` defers to the process switch (`aov_lp::memo`).
    memoize: Option<bool>,
    counters: [AtomicU64; MAX_COUNTERS],
    allocs: AtomicU64,
    bytes: AtomicU64,
    max_bits: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    folded: AtomicBool,
}

/// What a finished context added to its parent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Nonzero additions by counter name, sorted: an additive counter's
    /// total, a max counter's rise of the parent's mark.
    pub counters: Vec<(String, u64)>,
    pub allocs: u64,
    pub bytes: u64,
    /// Rise of the parent's bit-width mark.
    pub max_bits: u64,
}

thread_local! {
    /// The installed context; null is the root. Const-initialised and
    /// destructor-free, so the allocator may read it.
    static CURRENT: Cell<*const Context> = const { Cell::new(std::ptr::null()) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every update leaves the vectors valid.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn root() -> &'static Arc<Context> {
    static ROOT: OnceLock<Arc<Context>> = OnceLock::new();
    ROOT.get_or_init(|| Arc::new(Context::new(None, 0, None)))
}

/// Runs `f` on the installed context, if any; safe inside the
/// allocator.
#[inline]
fn with_installed<R>(f: impl FnOnce(Option<&Context>) -> R) -> R {
    let p = CURRENT.try_with(Cell::get).unwrap_or(std::ptr::null());
    // SAFETY: a non-null CURRENT was set by `Context::enter` from an
    // `Arc` that the `Entered` guard holding it keeps alive until it
    // restores the previous pointer. That guard lives in a caller's
    // frame on this thread (it is `!Send`), so it outlives this call.
    f(unsafe { p.as_ref() })
}

#[inline]
pub(crate) fn with_current<R>(f: impl FnOnce(&Context) -> R) -> R {
    with_installed(|c| f(c.unwrap_or_else(|| root())))
}

/// The calling thread's current context (the root when none is
/// installed), for handing to another thread.
#[must_use]
pub fn current() -> Arc<Context> {
    with_installed(|c| match c {
        // SAFETY: the pointer came from `Arc::as_ptr` and its `Arc` is
        // alive (see `with_installed`), so adding a strong count and
        // taking ownership of it is sound.
        Some(c) => unsafe {
            Arc::increment_strong_count(c);
            Arc::from_raw(c)
        },
        None => Arc::clone(root()),
    })
}

/// The flight-recorder session of the current context (0 = none).
#[must_use]
pub fn session() -> u64 {
    with_current(|c| c.session)
}

/// The LP-memo flag of the current context (`None`: the process switch
/// decides).
#[must_use]
pub fn memoize() -> Option<bool> {
    with_current(|c| c.memoize)
}

/// Appends a finished span to the current context.
pub fn push_span(record: SpanRecord) {
    with_current(|c| lock(&c.spans).push(record));
}

/// Removes and returns the current context's finished spans.
#[must_use]
pub fn take_spans() -> Vec<SpanRecord> {
    with_current(|c| std::mem::take(&mut *lock(&c.spans)))
}

/// Charges a flushed allocator batch; called inside the allocator.
pub(crate) fn charge_allocs(allocs: u64, bytes: u64) {
    with_installed(|c| {
        if let Some(c) = c {
            c.allocs.fetch_add(allocs, Ordering::Relaxed);
            c.bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    });
}

pub(crate) fn charge_bits(bits: u64) {
    with_installed(|c| {
        if let Some(c) = c {
            c.max_bits.fetch_max(bits, Ordering::Relaxed);
        }
    });
}

/// An installed context; restores the previous one on drop. `!Send`,
/// so it drops on the thread that entered.
#[derive(Debug)]
pub struct Entered {
    _ctx: Arc<Context>,
    prev: *const Context,
}

impl Drop for Entered {
    fn drop(&mut self) {
        // Pending allocator tallies belong to the context being left.
        crate::alloc::flush_local();
        let _ = CURRENT.try_with(|c| c.set(self.prev));
    }
}

impl Context {
    fn new(parent: Option<Arc<Context>>, session: u64, memoize: Option<bool>) -> Context {
        Context {
            parent,
            session,
            memoize,
            counters: [const { AtomicU64::new(0) }; MAX_COUNTERS],
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            max_bits: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            folded: AtomicBool::new(false),
        }
    }

    /// A new context under the current one; `None` inherits the
    /// parent's session or memo flag.
    #[must_use]
    pub fn child(session: Option<u64>, memoize: Option<bool>) -> Arc<Context> {
        let parent = current();
        let session = session.unwrap_or(parent.session);
        let memoize = memoize.or(parent.memoize);
        Arc::new(Context::new(Some(parent), session, memoize))
    }

    /// Installs this context on the calling thread until the guard drops.
    #[must_use]
    pub fn enter(self: &Arc<Self>) -> Entered {
        // Pending allocator tallies belong to the context being replaced.
        crate::alloc::flush_local();
        let prev = CURRENT.with(|c| c.replace(Arc::as_ptr(self)));
        Entered {
            _ctx: Arc::clone(self),
            prev,
        }
    }

    pub(crate) fn counter(&self, id: usize) -> &AtomicU64 {
        &self.counters[id]
    }

    /// This context's nonzero counters (folded children included),
    /// sorted by name.
    #[must_use]
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = crate::counters::registry()
            .iter()
            .zip(&self.counters)
            .map(|((name, _), cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .filter(|(_, v)| *v > 0)
            .collect();
        out.sort();
        out
    }

    /// Folds this context into its parent now. Call it after every
    /// thread that entered it has left; later charges would be lost.
    #[must_use]
    pub fn finish(self: Arc<Self>) -> Tally {
        let mut counters = Vec::new();
        let max_bits = self.fold(|name, added| counters.push((name.to_string(), added)));
        counters.sort();
        Tally {
            counters,
            allocs: self.allocs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            max_bits,
        }
    }

    /// Moves everything into the parent, once, reporting each counter
    /// that moved it; returns the rise of its bit-width mark.
    fn fold(&self, mut added: impl FnMut(&str, u64)) -> u64 {
        let Some(parent) = &self.parent else { return 0 };
        if self.folded.swap(true, Ordering::Relaxed) {
            return 0;
        }
        let max_rise =
            |cell: &AtomicU64, v: u64| v.saturating_sub(cell.fetch_max(v, Ordering::Relaxed));
        for ((name, max), (own, cell)) in crate::counters::registry()
            .iter()
            .zip(self.counters.iter().zip(&parent.counters))
        {
            let own = own.load(Ordering::Relaxed);
            let moved = if *max {
                max_rise(cell, own)
            } else {
                cell.fetch_add(own, Ordering::Relaxed);
                own
            };
            if moved > 0 {
                added(name, moved);
            }
        }
        parent
            .allocs
            .fetch_add(self.allocs.load(Ordering::Relaxed), Ordering::Relaxed);
        parent
            .bytes
            .fetch_add(self.bytes.load(Ordering::Relaxed), Ordering::Relaxed);
        let spans = std::mem::take(&mut *lock(&self.spans));
        if !spans.is_empty() {
            // Telemetry bookkeeping: never charged to an open span.
            let _pause = crate::alloc::exempt();
            lock(&parent.spans).extend(spans);
        }
        max_rise(&parent.max_bits, self.max_bits.load(Ordering::Relaxed))
    }
}

impl Drop for Context {
    fn drop(&mut self) {
        self.fold(|_, _| {});
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{self, Counter};

    fn value(ctx: &Context, name: &str) -> u64 {
        ctx.counters()
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    #[test]
    fn child_counts_its_own_and_folds_into_parent() {
        let run = Context::child(None, None);
        let entered = run.enter();
        let pivots = Counter::named("test.context.pivots");
        pivots.add(2);
        let stage = Context::child(None, None);
        {
            let _in_stage = stage.enter();
            pivots.add(5);
            counters::MaxCounter::named("test.context.width_max").record(9);
        }
        assert_eq!(value(&stage, "test.context.pivots"), 5);
        assert_eq!(value(&run, "test.context.pivots"), 2, "not folded yet");
        let tally = stage.finish();
        assert_eq!(
            tally.counters,
            vec![
                ("test.context.pivots".to_string(), 5),
                ("test.context.width_max".to_string(), 9)
            ]
        );
        assert_eq!(value(&run, "test.context.pivots"), 7);
        // A max counter folds by maximum; the tally reports the rise.
        let stage = Context::child(None, None);
        {
            let _in_stage = stage.enter();
            counters::MaxCounter::named("test.context.width_max").record(4);
        }
        assert!(stage.finish().counters.is_empty(), "no rise, no entry");
        assert_eq!(value(&run, "test.context.width_max"), 9);
        drop(entered);
    }

    #[test]
    fn dropped_context_folds_into_root() {
        let before = counters::counter("test.context.root").load(Ordering::Relaxed);
        {
            let ctx = Context::child(None, None);
            let _entered = ctx.enter();
            Counter::named("test.context.root").add(3);
            assert_eq!(
                counters::counter("test.context.root").load(Ordering::Relaxed),
                before,
                "the root sees a run only once it finishes"
            );
        }
        let after = counters::counter("test.context.root").load(Ordering::Relaxed);
        assert_eq!(after - before, 3);
    }

    #[test]
    fn snapshot_excludes_runs_in_flight() {
        let live = || {
            counters::snapshot()
                .into_iter()
                .find(|(n, _)| n == "test.context.live")
                .map_or(0, |(_, v)| v)
        };
        let before = live();
        let ctx = Context::child(None, None);
        {
            let _entered = ctx.enter();
            Counter::named("test.context.live").add(11);
        }
        assert_eq!(live(), before, "a run in flight stays out of the root");
        let _ = ctx.finish();
        assert_eq!(live() - before, 11, "a finished run folds into the root");
    }

    #[test]
    fn threads_entering_one_context_charge_it_exactly() {
        // Registered up front: a first registration allocates.
        let mt = Counter::named("test.context.mt");
        let ctx = Context::child(None, None);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let ctx = &ctx;
                s.spawn(move || {
                    let _entered = ctx.enter();
                    for _ in 0..1000 {
                        mt.add(1);
                    }
                    let v = std::hint::black_box(vec![0u8; 100]);
                    drop(v);
                });
            }
        });
        assert_eq!(value(&ctx, "test.context.mt"), 2000);
        let tally = ctx.finish();
        assert_eq!((tally.allocs, tally.bytes), (2, 200), "{tally:?}");
    }

    #[test]
    fn session_memo_flag_and_spans_follow_the_context() {
        let run = Context::child(Some(7), Some(false));
        let entered = run.enter();
        let stage = Context::child(None, None);
        {
            let _in_stage = stage.enter();
            assert_eq!((session(), memoize()), (7, Some(false)), "inherited");
            push_span(SpanRecord {
                name: "test.context.span".to_string(),
                ..SpanRecord::default()
            });
        }
        drop(stage);
        let spans = take_spans();
        assert_eq!(spans.len(), 1, "the stage's span folded into the run");
        assert_eq!(spans[0].name, "test.context.span");
        drop(entered);
        assert_ne!(session(), 7, "leaving restores the previous context");
    }
}
