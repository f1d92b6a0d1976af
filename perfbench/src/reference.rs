//! A fixed reference kernel, timed next to every solve, that measures
//! how fast the machine runs at that moment.
//!
//! On a shared host, other tenants' load swings the wall time of a whole
//! solve by 20–40 % within minutes, so raw seconds from two runs minutes
//! apart are not comparable. Every timing the benchmark reports is
//! therefore taken between two samples of this kernel and scaled by how
//! much slower or faster than [`NOMINAL_S`] the kernel ran around it
//! (see [`Sampled`]).
//!
//! The kernel is the benchmark's own code and never allocates, so no
//! change to the program, its global allocator included, can move it.
//! It sorts and binary-searches pseudo-random keys: branchy,
//! cache-resident integer work whose slowdowns under host load track
//! those of an exact solve more closely than pure arithmetic, pointer
//! chasing or gcd loops did when each was timed beside solves.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Keys sorted per kernel call.
const KEYS: usize = 6000;

/// Kernel calls per sample; a sample is their median time, so one
/// preempted call does not skew it.
const CALLS: usize = 9;

/// The median sample on the machine the benchmark was calibrated on (a
/// 2-vCPU Intel Xeon VM). A timing scaled by the kernel reads in
/// seconds of that machine.
pub const NOMINAL_S: f64 = 0.000_25;

/// One kernel call over `keys`, which is refilled in place.
fn kernel(keys: &mut Vec<u64>) -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % 100_000
    };
    keys.clear();
    keys.extend((0..KEYS).map(|_| next()));
    keys.sort_unstable();
    (0..KEYS)
        .map(|_| keys.binary_search(&next()).unwrap_or(0) as u64)
        .sum()
}

/// Median wall time of [`CALLS`] kernel calls, in seconds.
fn sample() -> f64 {
    thread_local! {
        static KEYS_BUF: RefCell<Vec<u64>> = RefCell::new(Vec::with_capacity(KEYS));
    }
    KEYS_BUF.with(|buf| {
        let mut keys = buf.borrow_mut();
        let mut times = [0.0; CALLS];
        for t in &mut times {
            let start = Instant::now();
            black_box(kernel(&mut keys));
            *t = start.elapsed().as_secs_f64();
        }
        times.sort_by(f64::total_cmp);
        times[CALLS / 2]
    })
}

/// One timing, with the reference kernel sampled before and after it.
pub struct Sampled {
    /// Wall time, in seconds.
    pub wall: f64,
    /// Mean of the two kernel samples around it, in seconds.
    pub reference: f64,
}

impl Sampled {
    /// The wall time scaled to the calibration machine's speed.
    pub fn scaled(&self) -> f64 {
        self.wall * NOMINAL_S / self.reference
    }
}

/// Runs `f`, timing it between two reference samples.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Sampled) {
    let before = sample();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    let after = sample();
    let reference = (before + after) / 2.0;
    (out, Sampled { wall, reference })
}
