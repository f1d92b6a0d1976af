//! The flight recorder: a fixed-capacity, lock-free ring of recent
//! events that is **always on**, even when full span tracing is
//! disabled.
//!
//! Full tracing (the span sink) is opt-in because it allocates and
//! locks; the recorder exists for the opposite regime — a production
//! run that fails wants the last few thousand events (span entries and
//! exits, stage boundaries, budget ticks, chaos firings)
//! without having paid for tracing it did not know it would need. The
//! engine drains the ring into the crash-diagnostic bundle when a stage
//! degrades or fails.
//!
//! # Capacity
//!
//! The ring is a static array of [`RING_CAPACITY`] slots, a power of
//! two (the index modulo is a mask). It never moves, so writers stay
//! lock-free.
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

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};

/// Ring capacity in slots.
pub const RING_CAPACITY: usize = 4096;

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

static RING: [Slot; RING_CAPACITY] = [EMPTY_SLOT; RING_CAPACITY];
static HEAD: AtomicU64 = AtomicU64::new(0);
static RECORDING: AtomicBool = AtomicBool::new(true);

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
/// [`RING_CAPACITY`] of them).
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
    let claim = HEAD.fetch_add(1, Ordering::Relaxed);
    let slot = &RING[(claim as usize) & (RING_CAPACITY - 1)];
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
    let head = HEAD.load(Ordering::Acquire);
    let first = head.saturating_sub(RING_CAPACITY as u64);
    let mut out = Vec::with_capacity((head - first) as usize);
    for claim in first..head {
        let slot = &RING[(claim as usize) & (RING_CAPACITY - 1)];
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
    for slot in &RING {
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
        record(EventKind::BudgetTick, "test.rec.tick", 4, 10);
        let events = snapshot();
        let mine: Vec<&Event> = events
            .iter()
            .filter(|e| e.label.starts_with("test.rec"))
            .collect();
        assert_eq!(mine.len(), 3);
        assert_eq!(mine[0].kind, EventKind::SpanEnter);
        assert_eq!(mine[0].label, "test.rec.a");
        assert_eq!(mine[1].b, 250);
        assert_eq!(mine[2].kind, EventKind::BudgetTick);
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
        let capacity = RING_CAPACITY;
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
                        record(EventKind::BudgetTick, "test.mt.writer", t, i);
                    }
                });
            }
        });
        let events = snapshot();
        for e in events.iter().filter(|e| e.kind == EventKind::BudgetTick) {
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
    fn session_attribution_stamps_nests_and_restores() {
        let _g = locked();
        clear();
        use aov_support::context::Context;
        record(EventKind::BudgetTick, "test.sess.none", 0, 0);
        {
            let _outer = Context::child(Some(41), None).enter();
            record(EventKind::BudgetTick, "test.sess.a", 0, 0);
            {
                let _inner = Context::child(Some(42), None).enter();
                record(EventKind::BudgetTick, "test.sess.b", 0, 0);
            }
            {
                let _inherits = Context::child(None, None).enter();
                record(EventKind::BudgetTick, "test.sess.a2", 0, 0);
            }
        }
        record(EventKind::BudgetTick, "test.sess.after", 0, 0);
        let events = snapshot();
        let session_of = |l: &str| events.iter().find(|e| e.label == l).unwrap().session;
        assert_eq!(session_of("test.sess.none"), 0);
        assert_eq!(session_of("test.sess.a"), 41);
        assert_eq!(session_of("test.sess.b"), 42);
        assert_eq!(session_of("test.sess.a2"), 41);
        assert_eq!(session_of("test.sess.after"), 0);
    }
}
