//! The host's speed, and a clock that runs at the reference host's.
//!
//! A shared virtual machine switches between a fast and a slow state,
//! about 1.75× apart, as other tenants load its cores; a state lasts from
//! a second to over a minute. Wall time on such a host measures the
//! neighbours as much as the program. So every timed op is paired with
//! a fixed kernel of the benchmark's own: a small bytecode interpreter
//! running a straight-line loop, whose dispatch and memory traffic slow
//! down in the slow state by about as much as the engines' step loops
//! and the compile passes do. The clock here advances by wall time ×
//! [`REF_NS_PER_STEP`] ÷ the kernel's current time per step, so a
//! duration on it is the wall time the same work takes on the reference
//! host when that host is fast. The kernel never calls the program under test, so a change
//! to the program moves these durations exactly as it moves wall time.

use crate::stats::median;
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// The kernel's time per step on the reference host in its fast state,
/// ns (a 2 vCPU KVM guest on a 2.1 GHz Xeon).
pub const REF_NS_PER_STEP: f64 = 2.0;

/// Steps in one sample of the kernel (about 0.12 ms when fast).
const STEPS: usize = 60_000;

/// Least wall time between two samples.
const PERIOD: Duration = Duration::from_millis(20);

/// Words of the kernel's program, random and fixed for all runs, run
/// over and over. A short loop without branches is predicted as well as
/// an engine's hot loop is; a long branchy program slowed less than the
/// engines in the slow state.
const PROGRAM_LEN: usize = 64;
/// Words of the kernel's memory (64 KiB).
const MEMORY_LEN: usize = 8192;

struct Clock {
    /// Wall time up to which `ref_ns` counts.
    last: Instant,
    /// Reference nanoseconds since the clock started.
    ref_ns: f64,
    /// Reference nanoseconds per wall nanosecond.
    scale: f64,
    /// When the next sample is due.
    due: Instant,
    /// Every sample's ns per step.
    samples: Vec<f64>,
    program: Vec<u32>,
    memory: Vec<u64>,
}

thread_local! {
    static CLOCK: RefCell<Clock> = RefCell::new(Clock::new());
}

impl Clock {
    fn new() -> Clock {
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let program = (0..PROGRAM_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            })
            .collect();
        let now = Instant::now();
        let mut c = Clock {
            last: now,
            ref_ns: 0.0,
            scale: 1.0,
            due: now,
            samples: Vec::new(),
            program,
            memory: vec![0; MEMORY_LEN],
        };
        // Three samples at once, so the first reading is a median too.
        for _ in 0..3 {
            c.sample();
        }
        c
    }

    fn advance(&mut self) {
        let now = Instant::now();
        self.ref_ns += (now - self.last).as_nanos() as f64 * self.scale;
        self.last = now;
    }

    /// Times the kernel and rescales by the median of the last three
    /// samples, so one interrupted sample does not move the clock. The
    /// clock stands still while the kernel runs.
    fn sample(&mut self) {
        self.advance();
        let t = Instant::now();
        let steps = interpret(&self.program, &mut self.memory);
        self.samples
            .push(t.elapsed().as_nanos() as f64 / steps as f64);
        let recent = &self.samples[self.samples.len().saturating_sub(3)..];
        self.scale = REF_NS_PER_STEP / median(recent);
        self.last = Instant::now();
        self.due = self.last + PERIOD;
    }
}

/// Runs the kernel for [`STEPS`] steps: a register machine whose
/// instruction words pick one of sixteen operations (arithmetic,
/// comparisons, loads and stores over `memory`). Returns the steps run.
fn interpret(program: &[u32], memory: &mut [u64]) -> usize {
    let mut r = [1u64; 16];
    let mut pc = 0;
    let mask = memory.len() - 1;
    for _ in 0..STEPS {
        let w = program[pc];
        let (a, b, c) = (
            (w >> 4) as usize & 15,
            (w >> 8) as usize & 15,
            (w >> 12) as usize & 15,
        );
        pc = (pc + 1) % program.len();
        match w & 15 {
            0 => r[a] = r[b].wrapping_add(r[c]),
            1 => r[a] = r[b] ^ (r[c] << 1),
            2 => r[a] = memory[r[b] as usize & mask],
            3 => memory[r[b] as usize & mask] = r[c],
            4 => r[a] = u64::from(r[b] < r[c]),
            5 => r[a] = r[b].wrapping_mul(r[c] | 1),
            6 => r[a] = r[b] >> (r[c] & 31),
            7 => r[a] = u64::from(r[b] == r[c]),
            8 => r[a] = r[b].wrapping_sub(r[c]),
            9 => r[a] = u64::from(w >> 16),
            10 => r[a] = memory[r[b].wrapping_add(r[c]) as usize & mask].wrapping_add(1),
            11 => r[a] = r[a].rotate_left(7) ^ r[b],
            12 => r[a] = r[b] & r[c],
            13 => r[a] = r[b] | u64::from(w),
            14 => memory[(r[a] >> 3) as usize & mask] ^= r[b],
            _ => r[a] = r[b].wrapping_add(u64::from(w)),
        }
    }
    std::hint::black_box(&r);
    STEPS
}

/// Reference time since this thread's clock started.
pub fn now() -> Duration {
    CLOCK.with_borrow_mut(|c| {
        c.advance();
        Duration::from_nanos(c.ref_ns as u64)
    })
}

/// Samples the host's speed if a sample is due. Call it between ops:
/// the kernel's own time never reaches the clock, but an op in flight
/// would wait for it.
pub fn poll() {
    CLOCK.with_borrow_mut(|c| {
        if Instant::now() >= c.due {
            c.sample();
        }
    });
}

/// A wall-clock duration that just ended, in reference time at the
/// current speed.
pub fn scaled(wall: Duration) -> Duration {
    CLOCK.with_borrow(|c| wall.mul_f64(c.scale))
}

/// The median of this thread's samples, ns per kernel step.
pub fn median_ns_per_step() -> f64 {
    CLOCK.with_borrow(|c| median(&c.samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_clock_stands_still_while_sampling_and_moves_otherwise() {
        let a = now();
        CLOCK.with_borrow_mut(|c| c.sample());
        let b = now();
        assert!(b - a < Duration::from_micros(50), "{:?}", b - a);
        let (t, wall) = (Instant::now(), Duration::from_millis(5));
        while t.elapsed() < wall {
            std::hint::spin_loop();
        }
        let scale = CLOCK.with_borrow(|c| c.scale);
        assert!(now() - b >= wall.mul_f64(scale));
        assert!(median_ns_per_step() > 0.0);
    }
}
