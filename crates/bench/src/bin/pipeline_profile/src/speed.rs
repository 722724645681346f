//! Machine-speed reference.
//!
//! The benchmark runs on a few cores of a shared host. Other tenants slow
//! every core down, by up to about 1.6×, in phases of a fraction of a
//! second to minutes. CPU time slows down with wall time, so measuring it
//! does not help, and a phase can outlast a whole run, so neither does the
//! best of several passes. What does help is a fixed kernel of plain-Rust
//! work that uses no code of the repository: timed right after every
//! timed item, it slows down with the machine. Each item's time is scaled
//! by [`REFERENCE_S`] over the median kernel time around it, so that it
//! reads as it would on a machine on which the kernel takes exactly
//! [`REFERENCE_S`].
//!
//! Code of different kinds slows down by different amounts: the
//! simulators' integer and branch work slows down more than the fitter's
//! chains of dependent floating-point divisions. The kernel does some of
//! each. Scaled by either half alone, one kind of item still moved with
//! the machine's load; with both, the mix that made each item's passes
//! agree best within a run was close to the one the kernel has, on every
//! workload.
//!
//! The kernel allocates nothing after [`Reference::new`], so the heap
//! the measured code leaves behind does not change its cost, and each
//! timing is preceded by an untimed run, so neither does what the
//! measured code left in the caches.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::{median, splitmix64};

/// Keys the kernel works on; its working set is a few tens of KiB.
const KEYS: usize = 1024;
/// Open-addressing table slots, a power of two above `KEYS`.
const SLOTS: usize = 2048;
/// Points at which the kernel sums the incomplete gamma series.
const POINTS: usize = 768;

/// Timed kernel runs per [`Reference::time`]; one run alone is too short
/// to read the machine's speed steadily.
const TIMED_RUNS: u32 = 4;

/// The kernel's time on a quiet run of the machine the baseline comes
/// from (2-core x86-64, Intel Xeon at 2.1 GHz). Scaled times read in
/// seconds of that machine.
pub const REFERENCE_S: f64 = 120e-6;

/// Kernel timings on each side of an item that its scale always uses.
pub const WINDOW: usize = 2;

/// The kernel: an event heap, a sort, binary searches and a hash table,
/// the operations the simulators spend their time on, then the series
/// for the regularized lower incomplete gamma function, which the fitter
/// evaluates.
pub struct Reference {
    keys: Vec<u64>,
    heap: BinaryHeap<Reverse<u64>>,
    table: Vec<u64>,
    points: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    #[must_use]
    pub fn new() -> Reference {
        Reference {
            keys: Vec::with_capacity(KEYS),
            heap: BinaryHeap::with_capacity(KEYS),
            table: vec![0; SLOTS],
            points: (0..POINTS)
                .map(|i| 0.3 + (i % 48) as f64 * 0.37 + i as f64 * 1e-4)
                .collect(),
        }
    }

    /// Runs the kernel once; returns its checksum, which is the same on
    /// every call.
    pub fn run(&mut self) -> u64 {
        self.keys.clear();
        self.heap.clear();
        self.table.fill(0);
        let mut x = 0x5eed;
        for _ in 0..KEYS {
            x = splitmix64(x);
            self.keys.push(x);
            self.heap.push(Reverse(x >> 16));
            let mut slot = x as usize & (SLOTS - 1);
            while self.table[slot] != 0 {
                slot = (slot + 1) & (SLOTS - 1);
            }
            self.table[slot] = x | 1;
        }
        self.keys.sort_unstable();
        let mut sum = 0_u64;
        while let Some(Reverse(k)) = self.heap.pop() {
            let at = self.keys.partition_point(|&key| key >> 16 < k);
            sum = sum.wrapping_mul(31).wrapping_add(self.keys[at % KEYS]);
            let mut slot = k as usize & (SLOTS - 1);
            while self.table[slot] != 0 && self.table[slot] >> 16 != k {
                slot = (slot + 1) & (SLOTS - 1);
            }
            sum ^= self.table[slot];
        }
        sum ^ incomplete_gamma_sum(&self.points).to_bits()
    }

    /// Mean wall time of one kernel run, in seconds, over
    /// [`TIMED_RUNS`] runs that follow an untimed one. The untimed run
    /// brings the kernel's data back into the caches, whatever the code
    /// measured before it evicted.
    pub fn time(&mut self) -> f64 {
        black_box(self.run());
        let start = Instant::now();
        for _ in 0..TIMED_RUNS {
            black_box(self.run());
        }
        start.elapsed().as_secs_f64() / f64::from(TIMED_RUNS)
    }
}

/// The sum over `points` of P(2.5, x), each by its power series: a chain
/// of dependent divisions until the terms fall below 1e-14 of the sum.
fn incomplete_gamma_sum(points: &[f64]) -> f64 {
    const SHAPE: f64 = 2.5;
    let mut total = 0.0;
    for &x in points {
        let mut term = 1.0 / SHAPE;
        let mut sum = term;
        let mut n = 1.0;
        while term > sum * 1e-14 {
            term *= x / (SHAPE + n);
            sum += term;
            n += 1.0;
        }
        total += sum * (SHAPE * x.ln() - x).exp();
    }
    total
}

/// Scales a time measured while the kernel took `reference` seconds.
#[must_use]
pub fn scale(seconds: f64, reference: f64) -> f64 {
    seconds * REFERENCE_S / reference
}

/// One timed item and the kernel timing made right after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the item started, in seconds from any fixed instant.
    pub start: f64,
    /// How long the item took.
    pub seconds: f64,
    /// The kernel timing that followed it.
    pub kernel: f64,
}

impl Sample {
    /// When the kernel timing that followed the item was made.
    fn end(&self) -> f64 {
        self.start + self.seconds
    }
}

/// Scales each sample's time by the median of the kernel timings around
/// it: every timing made within half the item's duration before it
/// started or after it ended, and in any case the [`WINDOW`] timings
/// before its own and the [`WINDOW`] after. A long item so takes its
/// machine speed from as long a stretch of time as it ran for, rather
/// than from the instants at its ends. `samples` are in the order they
/// were measured.
#[must_use]
pub fn scale_all(samples: &[Sample]) -> Vec<f64> {
    let n = samples.len();
    (0..n)
        .map(|j| {
            let s = &samples[j];
            let reach = s.seconds / 2.0;
            let mut lo = j.saturating_sub(WINDOW);
            while lo > 0 && samples[lo - 1].end() >= s.start - reach {
                lo -= 1;
            }
            let mut hi = (j + WINDOW + 1).min(n);
            while hi < n && samples[hi].end() <= s.end() + reach {
                hi += 1;
            }
            let around: Vec<f64> = samples[lo..hi].iter().map(|s| s.kernel).collect();
            scale(s.seconds, median(&around))
        })
        .collect()
}

/// The mean of `xs` without its smallest and largest value: the median
/// for 3 or 4 values, and every value for fewer than 3. `NaN` for an
/// empty slice.
#[must_use]
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = if v.len() >= 3 {
        &v[1..v.len() - 1]
    } else {
        &v[..]
    };
    kept.iter().sum::<f64>() / kept.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let mut r = Reference::new();
        let first = r.run();
        assert_eq!(r.run(), first);
        assert_eq!(Reference::new().run(), first);
        assert!(r.time() > 0.0);
    }

    #[test]
    fn incomplete_gamma_series_matches_the_closed_form() {
        // The series sums Γ(2.5)·P(2.5, x). P(2.5, x) = erf(√x) −
        // 2√(x/π)(1 + 2x/3)e^(−x), which is 0.584119813... at x = 2.5 and
        // tends to 1.
        const GAMMA_2_5: f64 = 1.329_340_388_179_137;
        let p = |x: f64| incomplete_gamma_sum(&[x]) / GAMMA_2_5;
        assert!((p(2.5) - 0.584_119_813_004_492).abs() < 1e-12, "{}", p(2.5));
        assert!((p(60.0) - 1.0).abs() < 1e-12, "{}", p(60.0));
    }

    /// Back-to-back items of the given durations, the kernel timed after
    /// each.
    fn run_of(seconds: &[f64], kernels: &[f64]) -> Vec<Sample> {
        let mut start = 0.0;
        (seconds.iter().zip(kernels))
            .map(|(&s, &kernel)| {
                let sample = Sample {
                    start,
                    seconds: s,
                    kernel,
                };
                start += s;
                sample
            })
            .collect()
    }

    #[test]
    fn times_scale_by_the_local_median() {
        let r = REFERENCE_S;
        // The machine runs at half speed for the last three items: their
        // kernel timings double, and so do the items' own times.
        let refs = [r, r, r, r, 2.0 * r, 2.0 * r, 2.0 * r];
        let times = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0];
        let scaled = scale_all(&run_of(&times, &refs));
        // Windows: [r r r], [r r r r], [r r r r 2r], [r r r 2r 2r],
        // [r r 2r 2r 2r], [r 2r 2r 2r], [2r 2r 2r].
        assert_eq!(scaled, vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        assert!((scale(3.0, 2.0 * r) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn a_long_item_takes_its_speed_from_as_long_a_stretch() {
        let r = REFERENCE_S;
        // Twelve 1/8 s items, one 2 s item (12), twelve 1/8 s items. The
        // machine was fast only around the timings nearest item 12.
        let mut times = vec![0.125; 12];
        times.push(2.0);
        times.extend([0.125; 12]);
        let refs: Vec<f64> = (0..25)
            .map(|k| if (10..=14).contains(&k) { r } else { 2.0 * r })
            .collect();
        let scaled = scale_all(&run_of(&times, &refs));
        // Item 12 reaches a second either side, timings 3 to 20: 13 of
        // its 18 are slow.
        assert_eq!(scaled[12], 1.0);
        // Item 11 reaches 1/16 s, so it keeps its 5 nearest, 9 to 13:
        // 4 of them are fast.
        assert_eq!(scaled[11], 0.125);
    }

    #[test]
    fn trimmed_mean_drops_the_extremes() {
        assert!(trimmed_mean(&[]).is_nan());
        assert_eq!(trimmed_mean(&[4.0]), 4.0);
        assert_eq!(trimmed_mean(&[4.0, 2.0]), 3.0);
        assert_eq!(trimmed_mean(&[9.0, 1.0, 4.0]), 4.0);
        assert_eq!(trimmed_mean(&[9.0, 1.0, 4.0, 2.0]), 3.0);
        assert_eq!(trimmed_mean(&[100.0, 3.0, 1.0, 4.0, 5.0]), 4.0);
    }
}
