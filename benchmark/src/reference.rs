//! Host speed, measured by fixed reference kernels timed before every rep.
//!
//! On a shared host, neighbours slow this process down by 10–40 % for
//! seconds to minutes at a time, through the cores and caches they share.
//! A slow period can outlast a whole run, so no estimator over the run's
//! own reps removes it. The kernels below slow down with the simulator, so
//! each rep is scaled by the host speed measured just before it. In the
//! committed baseline (`runs/5c9fec8`: twice ten 20 s runs per workload on
//! a 2-vCPU Xeon VM at 2.0 GHz), this cut the run-to-run spread
//! (interquartile range ÷ median) of the upper-quartile throughputs from
//! 2.4–17.2 % raw to 1.1–7.2 %.
//!
//! Three kernels, each alone a poorer proxy than their geometric mean:
//! a miniature event loop (binary heap plus a 64k-key hash map), an integer
//! multiply chain in registers, and random read-modify-writes over a
//! 256 KiB array. They use only the standard library and live in the
//! benchmark, so no change to the simulator can change what they measure.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Keys of the event-loop kernel's hash map.
const KEYS: u64 = 1 << 16;
/// Words in the cache kernel's array (256 KiB).
const WORDS: usize = 32 << 10;

/// `(iterations per batch, nominal iterations per second)` of each kernel.
/// The nominal rates are medians on a 2-vCPU Intel Xeon VM at 2.0 GHz;
/// a batch takes 5–15 ms there.
const EVENT_LOOP: (u64, f64) = (200_000, 1.306e7);
const MULTIPLY: (u64, f64) = (4_000_000, 6.444e8);
const CACHE: (u64, f64) = (2_000_000, 4.066e8);

/// The kernels' buffers, allocated once so that timing them neither
/// allocates nor moves the process's peak resident set.
pub struct Reference {
    heap: BinaryHeap<Reverse<u64>>,
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    words: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        let mut r = Reference {
            heap: BinaryHeap::with_capacity(1_025),
            map: HashMap::with_capacity_and_hasher(KEYS as usize, Default::default()),
            words: vec![1; WORDS],
        };
        r.event_loop(KEYS * 4); // touch every bucket before the first timing
        r
    }
}

/// Iterations per second of `f(iters)`.
fn rate(iters: u64, f: impl FnOnce(u64) -> u64) -> f64 {
    let t0 = Instant::now();
    black_box(f(black_box(iters)));
    iters as f64 / t0.elapsed().as_secs_f64()
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Reference {
    /// Host speed now, relative to the nominal host: the geometric mean of
    /// each kernel's rate over its nominal rate.
    pub fn speed(&mut self) -> f64 {
        let ratios = [
            rate(EVENT_LOOP.0, |n| self.event_loop(n)) / EVENT_LOOP.1,
            rate(MULTIPLY.0, multiply) / MULTIPLY.1,
            rate(CACHE.0, |n| self.cache(n)) / CACHE.1,
        ];
        ratios.iter().product::<f64>().cbrt()
    }

    /// Pop the earliest entry of a binary heap, bump a hash-map counter,
    /// push a successor.
    fn event_loop(&mut self, iters: u64) -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        self.heap.clear();
        self.map.clear();
        for _ in 0..1_024 {
            self.heap.push(Reverse(xorshift(&mut x) & 0xF_FFFF));
        }
        for _ in 0..iters {
            let Reverse(at) = self.heap.pop().expect("heap stays populated");
            *self.map.entry(xorshift(&mut x) % KEYS).or_default() += at;
            self.heap.push(Reverse(at + (xorshift(&mut x) & 0x3FF)));
        }
        self.map.values().fold(0, |a, &v| a.wrapping_add(v))
    }

    /// Random read-modify-writes over a 256 KiB array.
    fn cache(&mut self, iters: u64) -> u64 {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut acc = 0u64;
        for _ in 0..iters {
            let i = xorshift(&mut x) as usize % WORDS;
            acc = acc.wrapping_add(self.words[i]);
            self.words[i] = acc;
        }
        acc
    }
}

/// A dependent multiply-add chain in registers.
fn multiply(iters: u64) -> u64 {
    let mut a = 1u64;
    for k in 0..iters {
        a = a
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(black_box(k));
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_deterministic_and_do_not_grow() {
        let mut r = Reference::default();
        let cap = (r.heap.capacity(), r.map.capacity());
        assert_eq!(r.event_loop(1_000), r.event_loop(1_000));
        assert_ne!(r.event_loop(1_000), r.event_loop(2_000));
        assert_ne!(multiply(10), multiply(11));
        assert_ne!(r.cache(1_000), 0);
        assert!(r.speed() > 0.0);
        assert_eq!((r.heap.capacity(), r.map.capacity()), cap);
    }
}
