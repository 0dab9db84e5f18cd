//! A fixed unit of host work, independent of the code under test, that
//! measures how fast the host is running right now.
//!
//! Shared hosts drift: another tenant on the same core can slow every
//! instruction by half for seconds or minutes at a time. The benchmark
//! interleaves this unit with the work it measures (once per lockstep slice
//! round, a few before each set-up repetition, around each fleet phase) and
//! reports absolute host times at *nominal speed*: each measured time is
//! divided by how much slower than [`NOMINAL_NS`] the reference ran around
//! it. A change to the code under test does not touch the reference, so it
//! shows in full; a drift of the host slows both and largely cancels. The
//! run prints the overall slowness, so raw times can be recovered.

use std::hint::black_box;
use std::time::Instant;

/// Nominal host nanoseconds of one reference unit: about its lower decile
/// on the 2-vCPU x86-64 cloud VM the benchmark's bounds were set on. Host
/// times scale by `nominal / measured`.
pub const NOMINAL_NS: f64 = 110_000.0;

/// Words of the interpreted program.
const CODE: usize = 4096;
/// Words of the interpreted program's data memory (64 KiB).
const MEM: usize = 1 << 14;
/// Interpreted instructions per unit.
const STEPS: u32 = 60_000;

/// The reference workload and the samples taken of it.
#[derive(Debug)]
pub struct Reference {
    code: Vec<u32>,
    mem: Vec<u32>,
    /// Host nanoseconds of every unit run so far.
    pub samples: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Reference {
        Reference::new()
    }
}

impl Reference {
    /// Builds a fixed pseudo-random program and its memory.
    pub fn new() -> Reference {
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            #[allow(clippy::cast_possible_truncation)]
            let w = x as u32;
            w
        };
        let code = (0..CODE).map(|_| next()).collect();
        let mem = (0..MEM).map(|_| next()).collect();
        Reference { code, mem, samples: Vec::new() }
    }

    /// Runs one unit — a small register-machine interpreter (fetch,
    /// dispatch, register file, loads, stores and taken branches, the shape
    /// of an emulator's inner loop but none of its code) over a fixed
    /// program — and records its host time.
    pub fn sample(&mut self) -> u64 {
        let t0 = Instant::now();
        let mut regs = [0u64; 16];
        let mut pc = 0usize;
        let mem = &mut self.mem;
        for _ in 0..STEPS {
            let op = self.code[pc];
            let a = (op >> 8) as usize & 15;
            let b = (op >> 12) as usize & 15;
            pc = (pc + 1) % CODE;
            #[allow(clippy::cast_possible_truncation)]
            match op & 7 {
                0 => regs[a] = regs[a].wrapping_add(regs[b] | 1),
                1 => regs[a] ^= regs[b].rotate_left(7),
                2 => regs[a] = u64::from(mem[regs[b] as usize % MEM]),
                3 => mem[regs[a] as usize % MEM] = regs[b] as u32,
                4 => {
                    if regs[a] & 1 == 0 {
                        pc = (op >> 16) as usize % CODE;
                    }
                }
                5 => regs[a] = regs[a].wrapping_mul(0x9e37_79b9_7f4a_7c15),
                6 => regs[a] = regs[b] >> 3,
                _ => regs[a] = regs[a].wrapping_sub(regs[b]),
            }
        }
        black_box(regs);
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.samples.push(ns);
        ns
    }

    /// Host slowness right now: three fresh samples, median over nominal.
    pub fn slowness_now(&mut self) -> f64 {
        let mut w = [self.sample(), self.sample(), self.sample()];
        w.sort_unstable();
        f(w[1]) / NOMINAL_NS
    }

    /// Host slowness over the samples taken since sample `first`: their
    /// median over nominal (1 when there are none).
    pub fn slowness_since(&self, first: usize) -> f64 {
        let mut w = self.samples.get(first..).unwrap_or_default().to_vec();
        if w.is_empty() {
            return 1.0;
        }
        w.sort_unstable();
        f(w[w.len() / 2]) / NOMINAL_NS
    }
}

#[allow(clippy::cast_precision_loss)]
fn f(x: u64) -> f64 {
    x as f64
}
