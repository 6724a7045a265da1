//! The calibration kernel and the calibrated-time unit.
//!
//! On a shared VM the whole machine's speed drifts by 15 to 25 % over tens
//! of seconds, so a raw wall-clock number does not repeat. Every timing the
//! benchmark reports is therefore *calibrated*: the wall time of the measured
//! work, times [`K0_MS`], divided by the time the [`kernel`] took right next
//! to that work. A calibrated second is a second on a machine on which the
//! kernel takes exactly `K0_MS`.
//!
//! **Frozen.** The kernel and `K0_MS` define the unit of every timing metric.
//! Changing either one re-baselines every number ever reported; do it only in
//! a change that does nothing else and measures the baseline again. The
//! kernel uses the standard library only and must never call a crate of this
//! repository: an optimisation of the repository must not be able to speed up
//! the yardstick it is measured with.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's median time in milliseconds on the machine the benchmark was
/// defined on (2 vCPU, rustc 1.95.0, release profile). Frozen: see the
/// module documentation.
pub const K0_MS: f64 = 19.7;

/// What [`kernel`] returns. It depends on nothing but the kernel's code.
pub const KERNEL_CHECKSUM: u64 = 14_517_054_841_015_715_141;

const ARITH_STEPS: u64 = 3_500_000;
const TREE_INSERTS: u64 = 70_000;
const WORD_COUNTS: u64 = 52_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A fixed mix of the three kinds of work the measured system does: integer
/// arithmetic, ordered-map inserts with growing vectors, and counting with
/// freshly allocated string keys in a hash map. Returns a checksum of all
/// three so that none of it can be optimised away.
pub fn kernel() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut sum = 0u64;
    for _ in 0..ARITH_STEPS {
        sum = sum.wrapping_add(xorshift(&mut x).wrapping_mul(0x2545_F491_4F6C_DD1D) >> 7);
    }

    let mut tree: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for _ in 0..TREE_INSERTS {
        let v = xorshift(&mut x);
        tree.entry(v % 8191).or_default().push(v);
    }
    for (k, vs) in &tree {
        sum = sum.wrapping_add(k.wrapping_mul(vs.len() as u64) ^ vs[vs.len() / 2]);
    }

    // A fixed-key hasher: the default `RandomState` would give every process
    // its own probe sequences.
    let mut words: HashMap<String, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for _ in 0..WORD_COUNTS {
        let v = xorshift(&mut x);
        *words.entry(format!("word{}", v % 4093)).or_insert(0) += 1 + (v >> 60);
    }
    for (w, n) in &words {
        // Order-independent: a hash map's iteration order is not part of
        // the checksum.
        sum = sum.wrapping_add(n.wrapping_mul(w.len() as u64));
    }
    sum
}

/// Run the kernel once and return its wall time in milliseconds.
pub fn kernel_ms() -> f64 {
    let started = Instant::now();
    let sum = black_box(kernel());
    let ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(sum, KERNEL_CHECKSUM, "the calibration kernel is frozen");
    ms
}

/// Wall time to calibrated time, given the kernel time measured next to it.
pub fn calibrated(wall: f64, kernel_ms: f64) -> f64 {
    wall * K0_MS / kernel_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_returns_its_frozen_checksum() {
        assert_eq!(kernel(), KERNEL_CHECKSUM);
        assert_eq!(kernel(), KERNEL_CHECKSUM, "and does so every time");
    }

    #[test]
    fn calibrated_time_is_wall_time_at_reference_speed() {
        assert_eq!(calibrated(3.0, K0_MS), 3.0);
        assert_eq!(calibrated(3.0, 2.0 * K0_MS), 1.5, "a slow machine");
    }

    /// The kernel must not be able to get faster because the repository did.
    #[test]
    fn kernel_uses_only_the_standard_library() {
        let source = include_str!("calib.rs");
        for line in source
            .lines()
            .filter(|l| l.trim_start().starts_with("use "))
        {
            assert!(
                line.contains("std::") || line.contains("super::"),
                "calib.rs imports outside std: {line}"
            );
        }
    }
}
