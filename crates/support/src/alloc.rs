//! A counting `#[global_allocator]` with span-scoped attribution.
//!
//! The wrapper delegates every call to [`std::alloc::System`] and keeps
//! two ledgers:
//!
//! * **global** — allocation/free counts, cumulative bytes, live bytes
//!   and a high-water mark for the whole process, always on;
//! * **scoped** — the same quantities charged to the innermost open
//!   [`AllocScope`] on the allocating thread, so `aov-trace` spans can
//!   report *their own* heap traffic the way the flame table reports
//!   self-time.
//!
//! Runs and pipeline stages are charged through their telemetry
//! [`context`](crate::context) instead, from the batched global ledger.
//!
//! # Hot-path contract
//!
//! The allocator itself must never allocate, lock, or run lazy TLS
//! initializers, so the only thread-local it touches is one
//! const-initialised all-`Cell` struct (no destructor, no lazy init).
//! The global ledger is **batched**: an allocation with no open scope
//! is two plain `Cell` increments on the thread's local ledger plus a
//! flush check; the local tallies drain into the shared atomics every
//! `FLUSH_EVERY` events (or immediately for allocations of
//! `FLUSH_SIZE` bytes and up, so big spikes hit the high-water mark
//! promptly). That keeps the per-allocation cost at the nanosecond
//! floor — shared `fetch_add`s per allocation would cost more than the
//! small allocations they count. The price is staleness: another
//! thread's last `< FLUSH_EVERY` events may not be visible in
//! [`stats`] yet. [`stats`] always flushes the *calling* thread first.
//! Each flush also charges the batch to the thread's installed
//! [`context`](crate::context), and installing or leaving a context
//! flushes first, so a run's and a stage's allocation totals are exact.
//!
//! The high-water mark is maintained at flush points with a racy
//! load-compare-store rather than a CAS loop: it may come out low by
//! at most one flush window (bounded by `FLUSH_EVERY` small
//! allocations or one sub-`FLUSH_SIZE` allocation), which is an
//! accepted trade for not paying shared-line traffic on every
//! allocation (the same trade `flame` makes with sampled percentiles).
//!
//! # Scoping rules
//!
//! Scopes nest per thread: allocations are charged to the **innermost**
//! scope only (self-bytes semantics — parents do not see children's
//! traffic, mirroring `self_ns` in the flame table). A scope belongs to
//! the thread that opened it: allocations on other threads never charge
//! it. Frees are charged to the scope open when the memory dies, so
//! `net`/`peak` are exact only when memory dies in the scope it was born
//! in; for stage-grained scopes that is near enough, and the cumulative
//! `allocs`/`bytes` columns are exact regardless.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Global ledger
// ---------------------------------------------------------------------------

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static MAX_BITS: AtomicU64 = AtomicU64::new(0);

/// Master switch for the whole counting layer. On by default (so
/// library users and tests see exact numbers without ceremony); the
/// `aov` CLI disarms it for plain runs where nothing consumes the
/// numbers — on allocation-bound workloads even nanosecond-scale
/// per-event accounting is a few percent of wall time — and the
/// overhead suite toggles it to measure in situ. The
/// `#[global_allocator]` itself cannot be swapped at runtime, but with
/// the flag off the wrapper is one relaxed load and a predicted branch
/// away from raw `System`.
static COUNTING: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(true);

/// Enables or disables all allocation accounting (global ledger, scope
/// attribution and [`record_bits`]). Intended for overhead measurement;
/// ledgers freeze at their current values while disabled.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Whether allocation accounting is currently enabled.
#[must_use]
pub fn counting() -> bool {
    COUNTING.load(Ordering::Relaxed)
}

/// The thread-local ledger drains into the global atomics every this
/// many events on the thread (power of two: the flush check is one
/// mask). 4096 events of staleness is invisible at stage granularity
/// and keeps the hot path free of shared-line traffic.
const FLUSH_EVERY: u64 = 4096;

/// Allocations at least this large flush immediately, so a big spike
/// reaches the global high-water mark without waiting out the window.
const FLUSH_SIZE: usize = 64 * 1024;

/// Process-wide allocator statistics at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocations since process start (`alloc` + `realloc` calls).
    pub allocs: u64,
    /// Frees since process start.
    pub frees: u64,
    /// Cumulative bytes requested.
    pub bytes: u64,
    /// Cumulative bytes returned.
    pub freed_bytes: u64,
    /// Bytes currently live (`bytes - freed_bytes`).
    pub live: i64,
    /// High-water mark of `live` since start (or the last
    /// [`reset_peak`]). Racy-max: may read a few bytes low under
    /// contention.
    pub peak: i64,
    /// Largest bit-width reported through [`record_bits`].
    pub max_bits: u64,
}

/// Snapshot of the global ledger. Flushes the calling thread's local
/// tallies first, so a single-threaded measure-around-a-region pattern
/// is exact; other live threads may still hold `< FLUSH_EVERY`
/// unflushed events each (see the module docs).
#[must_use]
pub fn stats() -> AllocStats {
    flush_local();
    let bytes = BYTES.load(Ordering::Relaxed);
    let freed = FREED_BYTES.load(Ordering::Relaxed);
    AllocStats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
        bytes,
        freed_bytes: freed,
        live: bytes as i64 - freed as i64,
        peak: PEAK.load(Ordering::Relaxed),
        max_bits: MAX_BITS.load(Ordering::Relaxed),
    }
}

/// Lowers the global high-water mark to the current live size, so a
/// benchmark can measure its own peak instead of inheriting warmup's.
pub fn reset_peak() {
    flush_local();
    let live = BYTES.load(Ordering::Relaxed) as i64 - FREED_BYTES.load(Ordering::Relaxed) as i64;
    PEAK.store(live, Ordering::Relaxed);
}

#[inline]
fn raise_racy(cell: &AtomicI64, candidate: i64) {
    if candidate > cell.load(Ordering::Relaxed) {
        cell.store(candidate, Ordering::Relaxed);
    }
}

#[inline]
fn raise_racy_u64(cell: &AtomicU64, candidate: u64) {
    if candidate > cell.load(Ordering::Relaxed) {
        cell.store(candidate, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Scoped ledger
// ---------------------------------------------------------------------------

/// The atomic cells one scope charges, owned by its guard.
#[derive(Debug, Default)]
struct ScopeCell {
    allocs: AtomicU64,
    bytes: AtomicU64,
    frees: AtomicU64,
    freed_bytes: AtomicU64,
    /// Live bytes as seen by this scope (allocs minus frees charged
    /// here); can go negative when memory born elsewhere dies here.
    net: AtomicI64,
    /// Racy-max of `net`.
    peak: AtomicI64,
    max_bits: AtomicU64,
}

/// What one scope has been charged so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScopeStats {
    pub allocs: u64,
    pub bytes: u64,
    pub frees: u64,
    pub freed_bytes: u64,
    /// Net live bytes charged to the scope (may be negative — see the
    /// module docs on where frees are charged).
    pub net: i64,
    /// High-water mark of `net`, clamped at zero.
    pub peak: i64,
    /// Largest bit-width reported through [`record_bits`] while the
    /// scope was innermost.
    pub max_bits: u64,
}

impl ScopeCell {
    fn stats(&self) -> ScopeStats {
        ScopeStats {
            allocs: self.allocs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            freed_bytes: self.freed_bytes.load(Ordering::Relaxed),
            net: self.net.load(Ordering::Relaxed),
            peak: self.peak.load(Ordering::Relaxed).max(0),
            max_bits: self.max_bits.load(Ordering::Relaxed),
        }
    }
}

/// The per-thread ledger the allocator hot path touches: the innermost
/// scope pointer plus the batched tallies. All `Cell`s, const-init, no
/// destructor — reading it inside `alloc` is reentrancy-safe.
struct LocalLedger {
    /// Innermost scope on this thread; the pointee is kept alive by the
    /// guard that installed it.
    top: Cell<*const ScopeCell>,
    allocs: Cell<u64>,
    bytes: Cell<u64>,
    frees: Cell<u64>,
    freed_bytes: Cell<u64>,
}

thread_local! {
    static LOCAL: LocalLedger = const {
        LocalLedger {
            top: Cell::new(std::ptr::null()),
            allocs: Cell::new(0),
            bytes: Cell::new(0),
            frees: Cell::new(0),
            freed_bytes: Cell::new(0),
        }
    };
}

/// Drains this thread's batched tallies into the global atomics and
/// the installed context, and refreshes the high-water mark. Called
/// automatically by [`stats`], [`reset_peak`], the flush conditions in
/// the hot path, and context installs and exits; harmless to call at
/// any time.
pub fn flush_local() {
    let _ = LOCAL.try_with(flush_cells);
}

#[cold]
#[inline(never)]
fn flush_cells(l: &LocalLedger) {
    let allocs = l.allocs.take();
    let frees = l.frees.take();
    if allocs == 0 && frees == 0 {
        return;
    }
    let bytes_delta = l.bytes.take();
    let freed_delta = l.freed_bytes.take();
    crate::context::charge_allocs(allocs, bytes_delta);
    ALLOCS.fetch_add(allocs, Ordering::Relaxed);
    FREES.fetch_add(frees, Ordering::Relaxed);
    let bytes = BYTES.fetch_add(bytes_delta, Ordering::Relaxed) + bytes_delta;
    let freed = FREED_BYTES.fetch_add(freed_delta, Ordering::Relaxed) + freed_delta;
    raise_racy(&PEAK, bytes as i64 - freed as i64);
}

/// RAII guard of one allocation scope on the current thread. Holds the
/// previous innermost pointer (restored on drop), so guards must drop
/// in LIFO order — guaranteed by scoping since the guard is `!Send`.
#[derive(Debug)]
pub struct AllocScope {
    /// Boxed so the address `LOCAL.top` holds stays put when the guard
    /// moves.
    cell: Box<ScopeCell>,
    prev: *const ScopeCell,
}

impl AllocScope {
    /// The scope's charges so far.
    #[must_use]
    pub fn stats(&self) -> ScopeStats {
        self.cell.stats()
    }
}

/// Opens a fresh scope; allocations on this thread charge it until it
/// drops (or an inner scope opens).
#[must_use]
pub fn scope() -> AllocScope {
    let cell = Box::new(ScopeCell::default());
    let prev = LOCAL.with(|l| l.top.replace(&*cell));
    AllocScope { cell, prev }
}

impl Drop for AllocScope {
    fn drop(&mut self) {
        LOCAL.with(|l| l.top.set(self.prev));
    }
}

/// RAII guard suspending scope attribution on this thread (the global
/// ledger keeps counting). Restores the previous innermost scope on
/// drop. `!Send` via the raw pointer, so it cannot outlive its thread's
/// scope stack.
#[derive(Debug)]
pub struct ExemptGuard {
    prev: *const ScopeCell,
}

/// Suspends scope attribution while the guard lives. Telemetry
/// machinery uses this around its own buffer maintenance (e.g. the
/// trace sink growing its record vector) so bookkeeping traffic is
/// never charged to whichever user span happens to be open — charges
/// stay a deterministic function of the program, not of scheduling.
#[must_use]
pub fn exempt() -> ExemptGuard {
    let prev = LOCAL
        .try_with(|l| l.top.replace(std::ptr::null()))
        .unwrap_or(std::ptr::null());
    ExemptGuard { prev }
}

impl Drop for ExemptGuard {
    fn drop(&mut self) {
        let _ = LOCAL.try_with(|l| l.top.set(self.prev));
    }
}

/// Reports a numeric bit-width (e.g. of a `BigInt` coefficient) to the
/// global ledger, the installed context and the innermost scope: each
/// keeps a max. Numeric growth thereby lands in the same per-span
/// columns as heap traffic.
#[inline]
pub fn record_bits(bits: u64) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    raise_racy_u64(&MAX_BITS, bits);
    crate::context::charge_bits(bits);
    let top = LOCAL.try_with(|l| l.top.get()).unwrap_or(std::ptr::null());
    if !top.is_null() {
        // Safety: non-null `top` always points at the ScopeCell of a
        // live guard on this thread (the guard owns the Box).
        let cell = unsafe { &*top };
        raise_racy_u64(&cell.max_bits, bits);
    }
}

// ---------------------------------------------------------------------------
// The allocator
// ---------------------------------------------------------------------------

/// The counting wrapper around [`System`]. Installed as the workspace's
/// `#[global_allocator]` by this crate, so every binary that links
/// `aov-support` counts.
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn note_alloc(size: usize) {
        if !COUNTING.load(Ordering::Relaxed) {
            return;
        }
        // `try_with` so allocations during TLS teardown fall back to
        // direct global counting instead of aborting.
        let landed = LOCAL.try_with(|l| {
            let allocs = l.allocs.get() + 1;
            l.allocs.set(allocs);
            l.bytes.set(l.bytes.get() + size as u64);
            let top = l.top.get();
            if !top.is_null() {
                // Scope attribution stays per-event and exact: scopes
                // only exist while profiling, where precision beats the
                // shared-line cost.
                // Safety: as in `record_bits`.
                let cell = unsafe { &*top };
                cell.allocs.fetch_add(1, Ordering::Relaxed);
                cell.bytes.fetch_add(size as u64, Ordering::Relaxed);
                let net = cell.net.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
                raise_racy(&cell.peak, net);
            }
            if allocs & (FLUSH_EVERY - 1) == 0 || size >= FLUSH_SIZE {
                flush_cells(l);
            }
        });
        if landed.is_err() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }

    #[inline]
    fn note_free(size: usize) {
        if !COUNTING.load(Ordering::Relaxed) {
            return;
        }
        let landed = LOCAL.try_with(|l| {
            let frees = l.frees.get() + 1;
            l.frees.set(frees);
            l.freed_bytes.set(l.freed_bytes.get() + size as u64);
            let top = l.top.get();
            if !top.is_null() {
                // Safety: as in `record_bits`.
                let cell = unsafe { &*top };
                cell.frees.fetch_add(1, Ordering::Relaxed);
                cell.freed_bytes.fetch_add(size as u64, Ordering::Relaxed);
                cell.net.fetch_sub(size as i64, Ordering::Relaxed);
            }
            if frees & (FLUSH_EVERY - 1) == 0 || size >= FLUSH_SIZE {
                flush_cells(l);
            }
        });
        if landed.is_err() {
            FREES.fetch_add(1, Ordering::Relaxed);
            FREED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// Safety: delegates every operation to `System` unchanged; the
// bookkeeping touches only atomics and a const-init TLS `Cell`, so it
// cannot recurse into the allocator or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::note_alloc(layout.size());
        }
        p
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        Self::note_free(layout.size());
    }

    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::note_alloc(layout.size());
        }
        p
    }

    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            Self::note_free(layout.size());
            Self::note_alloc(new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_ledger_counts_boxes() {
        let before = stats();
        let v = std::hint::black_box(vec![0u8; 4096]);
        let mid = stats();
        drop(v);
        let after = stats();
        assert!(mid.allocs > before.allocs);
        assert!(mid.bytes >= before.bytes + 4096);
        assert!(after.frees > before.frees);
        assert!(after.freed_bytes >= before.freed_bytes + 4096);
        assert!(mid.peak >= mid.live);
    }

    #[test]
    fn scope_charges_exact_bytes() {
        let s = scope();
        let v = std::hint::black_box(vec![0u8; 1000]);
        let stats = s.stats();
        assert_eq!(stats.allocs, 1);
        assert_eq!(stats.bytes, 1000);
        assert_eq!(stats.net, 1000);
        assert_eq!(stats.peak, 1000);
        drop(v);
        let stats = s.stats();
        assert_eq!(stats.frees, 1);
        assert_eq!(stats.net, 0);
        assert_eq!(stats.peak, 1000);
    }

    #[test]
    fn nested_scopes_attribute_to_innermost() {
        let outer = scope();
        let a = std::hint::black_box(vec![0u8; 100]);
        {
            let inner = scope();
            let b = std::hint::black_box(vec![0u8; 1_000_000]);
            drop(b);
            let inner_stats = inner.stats();
            assert_eq!(inner_stats.bytes, 1_000_000, "inner sees only its own");
            assert_eq!(inner_stats.peak, 1_000_000);
        }
        drop(a);
        // The outer scope never saw the inner megabyte: the inner guard's
        // cell is allocated before it installs, so it charges the caller
        // (outer); allow that bookkeeping but nothing near the inner's
        // traffic.
        let outer_stats = outer.stats();
        assert!(
            outer_stats.bytes < 100_000,
            "outer charged {} bytes, expected only its own 100 plus guard bookkeeping",
            outer_stats.bytes
        );
        assert!(outer_stats.bytes >= 100);
    }

    #[test]
    fn record_bits_raises_scope_and_global_max() {
        let s = scope();
        record_bits(17);
        record_bits(5);
        assert_eq!(s.stats().max_bits, 17);
        assert!(stats().max_bits >= 17);
        record_bits(23);
        assert_eq!(s.stats().max_bits, 23);
    }

    #[test]
    fn exempt_suspends_scope_attribution() {
        let s = scope();
        {
            let _pause = exempt();
            let v = std::hint::black_box(vec![0u8; 4096]);
            drop(v);
        }
        let v = std::hint::black_box(vec![0u8; 128]);
        std::hint::black_box(&v);
        let stats = s.stats();
        assert_eq!(
            stats.bytes, 128,
            "exempted traffic must not charge: {stats:?}"
        );
    }

    #[test]
    fn realloc_counts_both_sides() {
        let s = scope();
        let mut v = std::hint::black_box(vec![0u8; 100]);
        v.reserve_exact(900); // realloc 100 -> >=1000
        std::hint::black_box(&v);
        let stats = s.stats();
        assert!(stats.allocs >= 2, "{stats:?}");
        assert!(stats.frees >= 1, "{stats:?}");
        assert!(stats.net >= 1000, "{stats:?}");
    }
}
