//! The flight recorder: a fixed-capacity, lock-free ring of recent
//! events that is **always on**, even when full span tracing is
//! disabled.
//!
//! Full tracing (the span sink) is opt-in because it allocates and
//! locks; the recorder exists for the opposite regime — a production
//! run that fails wants the last few thousand events (span entries and
//! exits, per-stage counter deltas, budget ticks, chaos firings)
//! without having paid for tracing it did not know it would need. The
//! engine drains the ring into the crash-diagnostic bundle when a stage
//! degrades or fails.
//!
//! # Capacity
//!
//! The ring holds [`DEFAULT_RING_CAPACITY`] slots unless resized before
//! first use: programmatically via [`set_slots`] (the CLI's
//! `--recorder-slots` flag) or through the [`SLOTS_ENV`] environment
//! variable. The capacity is fixed once the ring records its first
//! event — the slot array is allocated exactly once and never moves, so
//! writers stay lock-free — and requests are clamped to a sane range
//! and rounded up to a power of two (the index modulo is a mask). Hot
//! runs whose span/budget churn would scroll crash evidence out of the
//! default window raise it; wraparound tests shrink it.
//!
//! # Ring protocol
//!
//! An array of slots, every field an atomic, so concurrent writers and
//! a draining reader are race-free by construction (no `unsafe`).
//! Writers claim a monotonically increasing sequence number with one
//! `fetch_add` on `HEAD`; slot `seq % CAPACITY` then goes through a
//! seqlock cycle:
//!
//! 1. `seq.swap(0, AcqRel)` marks the slot torn (the RMW's acquire side
//!    keeps the payload stores below from floating above it),
//! 2. payload fields are stored relaxed,
//! 3. `seq.store(claim + 1, Release)` publishes (0 is never a valid
//!    published value, hence the `+ 1`).
//!
//! The reader walks the last `CAPACITY` sequence numbers, reads each
//! slot's `seq` (acquire), payload, then — after an acquire fence —
//! `seq` again; the slot counts only if both reads saw the expected
//! published value. A slot mid-overwrite is simply skipped: losing one
//! event to a torn slot is fine for a flight recorder, corrupting one
//! is not.
//!
//! # Cost
//!
//! One `fetch_add`, one `swap`, eight relaxed stores, one release
//! store, and one `Instant::now` — tens of nanoseconds per event. No
//! allocation: labels are truncated into [`LABEL_BYTES`] inline bytes.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Ring capacity when neither [`set_slots`] nor [`SLOTS_ENV`] asked for
/// a different one.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Environment variable consulted for the ring capacity on first use
/// (overridden by an explicit [`set_slots`] call).
pub const SLOTS_ENV: &str = "AOV_RECORDER_SLOTS";

/// Smallest capacity a request clamps to (enough that a drained bundle
/// still shows the failing stage's neighborhood).
pub const MIN_SLOTS: usize = 64;

/// Largest capacity a request clamps to (1 Mi slots ≈ 64 MiB resident).
pub const MAX_SLOTS: usize = 1 << 20;

/// Bytes of label text kept per event (longer labels are truncated).
pub const LABEL_BYTES: usize = 24;

const LABEL_WORDS: usize = LABEL_BYTES / 8;

/// What happened. Stable `u8` encoding — bundle consumers match on
/// [`EventKind::name`], not the discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A span opened (`a` = span id, or 0 when tracing is disabled).
    SpanEnter = 1,
    /// A span closed (`a` = span id or 0, `b` = duration in ns).
    SpanExit = 2,
    /// A pipeline stage started (`a` = stage ordinal).
    StageEnter = 3,
    /// A pipeline stage finished (`a` = stage ordinal, `b` = micros).
    StageExit = 4,
    /// A counter moved across a stage (`a` = delta, `b` = new total).
    Counter = 5,
    /// A budget checkpoint polled the deadline (`a` = pivots spent,
    /// `b` = nodes spent).
    BudgetTick = 6,
    /// A budget tripped (`a` = configured limit, `b` = spent at trip).
    BudgetTrip = 7,
    /// Chaos injection fired (`a` = visit ordinal, `b` = kind code).
    ChaosFired = 8,
}

impl EventKind {
    /// Stable lower-snake name used in bundles and `aov inspect`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::SpanEnter => "span_enter",
            EventKind::SpanExit => "span_exit",
            EventKind::StageEnter => "stage_enter",
            EventKind::StageExit => "stage_exit",
            EventKind::Counter => "counter",
            EventKind::BudgetTick => "budget_tick",
            EventKind::BudgetTrip => "budget_trip",
            EventKind::ChaosFired => "chaos_fired",
        }
    }

    fn from_code(code: u64) -> Option<EventKind> {
        Some(match code {
            1 => EventKind::SpanEnter,
            2 => EventKind::SpanExit,
            3 => EventKind::StageEnter,
            4 => EventKind::StageExit,
            5 => EventKind::Counter,
            6 => EventKind::BudgetTick,
            7 => EventKind::BudgetTrip,
            8 => EventKind::ChaosFired,
            _ => return None,
        })
    }
}

struct Slot {
    /// 0 = torn/empty, otherwise `claim + 1` of the event it holds.
    seq: AtomicU64,
    /// Packed `kind | (label_len << 8) | (thread << 16)`.
    meta: AtomicU64,
    /// Nanoseconds since the trace epoch.
    t_ns: AtomicU64,
    /// Session id of the recording thread (0 = unattributed).
    session: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    label: [AtomicU64; LABEL_WORDS],
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SLOT: Slot = Slot {
    seq: AtomicU64::new(0),
    meta: AtomicU64::new(0),
    t_ns: AtomicU64::new(0),
    session: AtomicU64::new(0),
    a: AtomicU64::new(0),
    b: AtomicU64::new(0),
    label: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
};

/// Capacity requested by [`set_slots`] before the ring materialized
/// (0 = no request; fall back to [`SLOTS_ENV`], then the default).
static REQUESTED_SLOTS: AtomicUsize = AtomicUsize::new(0);
static RING: OnceLock<Box<[Slot]>> = OnceLock::new();
static HEAD: AtomicU64 = AtomicU64::new(0);
static RECORDING: AtomicBool = AtomicBool::new(true);

/// Clamps a capacity request into `[MIN_SLOTS, MAX_SLOTS]` and rounds
/// up to a power of two so the ring index stays a mask.
fn clamp_slots(n: usize) -> usize {
    n.clamp(MIN_SLOTS, MAX_SLOTS).next_power_of_two()
}

/// The slot array, allocated on first use at the capacity in effect at
/// that moment. Never reallocated: writers hold `&'static` slots.
fn ring() -> &'static [Slot] {
    RING.get_or_init(|| {
        let requested = REQUESTED_SLOTS.load(Ordering::Relaxed);
        let n = if requested > 0 {
            requested
        } else {
            std::env::var(SLOTS_ENV)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or(DEFAULT_RING_CAPACITY)
        };
        let mut slots = Vec::with_capacity(clamp_slots(n));
        slots.resize_with(clamp_slots(n), || EMPTY_SLOT);
        slots.into_boxed_slice()
    })
}

/// Requests a ring capacity (clamped to `[MIN_SLOTS, MAX_SLOTS]`,
/// rounded up to a power of two). Returns `true` if the request will
/// take effect — i.e. the ring has not materialized yet — and `false`
/// if the capacity was already fixed by an earlier event. Call it
/// before any instrumented work (the CLI does, straight after flag
/// parsing).
pub fn set_slots(n: usize) -> bool {
    REQUESTED_SLOTS.store(clamp_slots(n), Ordering::Relaxed);
    RING.get().is_none()
}

/// The ring's capacity in slots. Forces the ring to materialize, fixing
/// the capacity.
#[must_use]
pub fn slots() -> usize {
    ring().len()
}

/// One event read back out of the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number (gaps mean overwritten or torn slots).
    pub seq: u64,
    /// Nanoseconds since the trace epoch.
    pub t_ns: u64,
    /// Recording thread's trace track id.
    pub thread: u64,
    /// Session of the recording thread's telemetry context (0 = none;
    /// see `aov_support::context`). The ring is process-global; a
    /// daemon serving concurrent requests stamps each request's session
    /// so crash bundles can filter out a neighbor's timeline.
    pub session: u64,
    pub kind: EventKind,
    /// Truncated label (span name, counter name, budget site, …).
    pub label: String,
    pub a: u64,
    pub b: u64,
}

/// Turns the recorder off (and back on). It ships **on**; tests that
/// need a quiet ring turn it off around unrelated work.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Whether events are currently being recorded.
#[inline]
#[must_use]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Total events ever claimed (monotonic; the ring holds the last
/// [`slots`] of them).
#[must_use]
pub fn events_recorded() -> u64 {
    HEAD.load(Ordering::Relaxed)
}

/// Records one event, stamped now. Nanosecond-scale; never allocates,
/// never locks.
#[inline]
pub fn record(kind: EventKind, label: &str, a: u64, b: u64) {
    if recording() {
        record_at(crate::now_ns(), kind, label, a, b);
    }
}

/// Records one event stamped `t_ns` (nanoseconds since the trace
/// epoch), for a caller that has read the clock already.
#[inline]
pub fn record_at(t_ns: u64, kind: EventKind, label: &str, a: u64, b: u64) {
    if !recording() {
        return;
    }
    let thread = crate::thread_track_id();
    let ring = ring();
    let claim = HEAD.fetch_add(1, Ordering::Relaxed);
    let slot = &ring[(claim as usize) & (ring.len() - 1)];
    // Tear the slot; AcqRel keeps the payload stores from floating up.
    slot.seq.swap(0, Ordering::AcqRel);
    let bytes = label.as_bytes();
    let len = bytes.len().min(LABEL_BYTES);
    for w in 0..LABEL_WORDS {
        let mut word = [0u8; 8];
        let lo = w * 8;
        if lo < len {
            let hi = (lo + 8).min(len);
            word[..hi - lo].copy_from_slice(&bytes[lo..hi]);
        }
        slot.label[w].store(u64::from_le_bytes(word), Ordering::Relaxed);
    }
    slot.meta.store(
        kind as u64 | ((len as u64) << 8) | (thread << 16),
        Ordering::Relaxed,
    );
    slot.t_ns.store(t_ns, Ordering::Relaxed);
    slot.session
        .store(aov_support::context::session(), Ordering::Relaxed);
    slot.a.store(a, Ordering::Relaxed);
    slot.b.store(b, Ordering::Relaxed);
    slot.seq.store(claim + 1, Ordering::Release);
}

/// One seqlock-validated slot read: `Some(event)` only if the slot
/// still held `claim`'s published payload for the whole read.
fn read_slot(slot: &Slot, claim: u64) -> Option<Event> {
    let expect = claim + 1;
    if slot.seq.load(Ordering::Acquire) != expect {
        return None;
    }
    let meta = slot.meta.load(Ordering::Relaxed);
    let t_ns = slot.t_ns.load(Ordering::Relaxed);
    let session = slot.session.load(Ordering::Relaxed);
    let a = slot.a.load(Ordering::Relaxed);
    let b = slot.b.load(Ordering::Relaxed);
    let mut label_bytes = [0u8; LABEL_BYTES];
    for w in 0..LABEL_WORDS {
        label_bytes[w * 8..(w + 1) * 8]
            .copy_from_slice(&slot.label[w].load(Ordering::Relaxed).to_le_bytes());
    }
    // Seqlock validation: the payload reads above only count if the
    // slot was not re-torn while we read it.
    fence(Ordering::Acquire);
    if slot.seq.load(Ordering::Relaxed) != expect {
        return None;
    }
    let kind = EventKind::from_code(meta & 0xff)?;
    let len = ((meta >> 8) & 0xff) as usize;
    let label = String::from_utf8_lossy(&label_bytes[..len.min(LABEL_BYTES)]).into_owned();
    Some(Event {
        seq: claim,
        t_ns,
        thread: meta >> 16,
        session,
        kind,
        label,
        a,
        b,
    })
}

/// Snapshots the ring, oldest first, skipping torn or mid-overwrite
/// slots. Non-destructive: the ring keeps recording.
#[must_use]
pub fn snapshot() -> Vec<Event> {
    let ring = ring();
    let head = HEAD.load(Ordering::Acquire);
    let first = head.saturating_sub(ring.len() as u64);
    let mut out = Vec::with_capacity((head - first) as usize);
    for claim in first..head {
        let slot = &ring[(claim as usize) & (ring.len() - 1)];
        if let Some(event) = read_slot(slot, claim) {
            out.push(event);
        }
    }
    out
}

/// Empties the ring (sequence numbering stays monotonic). For tests and
/// for the engine between pipeline runs, so one program's bundle does
/// not carry its predecessor's tail.
pub fn clear() {
    let head = HEAD.load(Ordering::Acquire);
    for slot in ring() {
        slot.seq.store(0, Ordering::Release);
    }
    // Bump HEAD past anything a straggling writer may still publish
    // into the cleared region.
    let _ = HEAD.fetch_max(head, Ordering::AcqRel);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock as locked;

    #[test]
    fn records_and_snapshots_in_order() {
        let _g = locked();
        clear();
        record(EventKind::SpanEnter, "test.rec.a", 1, 0);
        record(EventKind::SpanExit, "test.rec.a", 1, 250);
        record(EventKind::Counter, "lp.simplex.pivots", 4, 10);
        let events = snapshot();
        let mine: Vec<&Event> = events
            .iter()
            .filter(|e| e.label.starts_with("test.rec") || e.label == "lp.simplex.pivots")
            .collect();
        assert_eq!(mine.len(), 3);
        assert_eq!(mine[0].kind, EventKind::SpanEnter);
        assert_eq!(mine[0].label, "test.rec.a");
        assert_eq!(mine[1].b, 250);
        assert_eq!(mine[2].kind, EventKind::Counter);
        assert_eq!(mine[2].a, 4);
        assert!(mine[0].seq < mine[1].seq && mine[1].seq < mine[2].seq);
    }

    #[test]
    fn long_labels_truncate_not_corrupt() {
        let _g = locked();
        clear();
        let long = "test.recorder.very.long.label.that.exceeds.the.inline.capacity";
        record(EventKind::SpanEnter, long, 0, 0);
        let events = snapshot();
        let e = events
            .iter()
            .find(|e| e.label.starts_with("test.rec"))
            .unwrap();
        assert_eq!(e.label.len(), LABEL_BYTES);
        assert_eq!(e.label, &long[..LABEL_BYTES]);
    }

    #[test]
    fn wraparound_keeps_last_capacity_events() {
        let _g = locked();
        clear();
        let capacity = slots();
        let n = capacity + 100;
        for i in 0..n {
            record(EventKind::BudgetTick, "test.wrap", i as u64, 0);
        }
        let events = snapshot();
        let mine: Vec<&Event> = events.iter().filter(|e| e.label == "test.wrap").collect();
        assert!(mine.len() <= capacity);
        assert!(mine.len() >= capacity - 64, "kept {}", mine.len());
        // The survivors are the most recent ones, in order.
        let last = mine.last().unwrap();
        assert_eq!(last.a, (n - 1) as u64);
        assert!(mine.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn concurrent_writers_never_corrupt() {
        let _g = locked();
        clear();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for i in 0..5000u64 {
                        record(EventKind::Counter, "test.mt.writer", t, i);
                    }
                });
            }
        });
        let events = snapshot();
        for e in events.iter().filter(|e| e.kind == EventKind::Counter) {
            // Every surviving slot decodes to a value some writer wrote.
            assert_eq!(e.label, "test.mt.writer");
            assert!(e.a < 4 && e.b < 5000, "torn payload: {e:?}");
        }
        assert!(events_recorded() >= 20_000);
    }

    #[test]
    fn disabled_recorder_drops_events() {
        let _g = locked();
        clear();
        set_recording(false);
        record(EventKind::SpanEnter, "test.off", 0, 0);
        set_recording(true);
        assert!(snapshot().iter().all(|e| e.label != "test.off"));
    }

    #[test]
    fn capacity_requests_clamp_to_power_of_two_band() {
        assert_eq!(clamp_slots(0), MIN_SLOTS);
        assert_eq!(clamp_slots(1), MIN_SLOTS);
        assert_eq!(clamp_slots(64), 64);
        assert_eq!(clamp_slots(100), 128);
        assert_eq!(clamp_slots(4096), 4096);
        assert_eq!(clamp_slots(usize::MAX), MAX_SLOTS);
        assert!(clamp_slots(MAX_SLOTS - 1).is_power_of_two());
    }

    #[test]
    fn session_attribution_stamps_nests_and_restores() {
        let _g = locked();
        clear();
        use aov_support::context::Context;
        record(EventKind::Counter, "test.sess.none", 0, 0);
        {
            let _outer = Context::child(Some(41), None).enter();
            record(EventKind::Counter, "test.sess.a", 0, 0);
            {
                let _inner = Context::child(Some(42), None).enter();
                record(EventKind::Counter, "test.sess.b", 0, 0);
            }
            {
                let _inherits = Context::child(None, None).enter();
                record(EventKind::Counter, "test.sess.a2", 0, 0);
            }
        }
        record(EventKind::Counter, "test.sess.after", 0, 0);
        let events = snapshot();
        let session_of = |l: &str| events.iter().find(|e| e.label == l).unwrap().session;
        assert_eq!(session_of("test.sess.none"), 0);
        assert_eq!(session_of("test.sess.a"), 41);
        assert_eq!(session_of("test.sess.b"), 42);
        assert_eq!(session_of("test.sess.a2"), 41);
        assert_eq!(session_of("test.sess.after"), 0);
    }

    /// Once the ring has materialized, capacity requests report that
    /// they arrived too late. (The ring is process-global, so this test
    /// binary's other tests have long since fixed the capacity; the
    /// dedicated small-ring integration test exercises the
    /// before-first-use path in its own process.)
    #[test]
    fn set_slots_after_first_use_is_rejected() {
        let _g = locked();
        let fixed = slots();
        assert!(fixed.is_power_of_two());
        assert!(!set_slots(fixed * 2));
        assert_eq!(slots(), fixed);
    }
}
