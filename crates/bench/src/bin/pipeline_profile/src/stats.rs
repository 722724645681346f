//! Seeds, digests and order statistics.

/// splitmix64: one mixing step, no RNG state to thread.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of item `item` of workload number `workload` in a run seeded
/// with `seed`. Independent of how many items or passes a run makes.
#[must_use]
pub fn item_seed(seed: u64, workload: u64, item: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed) ^ workload) ^ item)
}

/// `0..n` in an order drawn from `seed` (Fisher–Yates on a splitmix64
/// stream).
#[must_use]
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut x = seed;
    for i in (1..n).rev() {
        x = splitmix64(x);
        v.swap(i, (x % (i as u64 + 1)) as usize);
    }
    v
}

/// 64-bit FNV-1a, for the output digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.u64(x.to_bits());
        }
    }
}

/// Linear-interpolated percentile `p` (0..=100) of `xs`; `xs` need not be
/// sorted. `NaN` for an empty slice.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Harrell–Davis estimate of percentile `p` (0..100) of `xs`: a mean of
/// every order statistic, weighted by how likely each is to be the
/// sample percentile of a fresh sample of the same size (a Beta((n+1)q,
/// (n+1)(1-q)) density, integrated over each order statistic's share of
/// [0, 1]). Where the plain percentile follows the one or two samples
/// at its rank, this averages the several around it, so the noise of a
/// single sample moves it less. `NaN` for an empty slice.
#[must_use]
pub fn percentile_hd(xs: &[f64], p: f64) -> f64 {
    /// Midpoint-rule steps per order statistic.
    const STEPS: usize = 32;
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let q = (p / 100.0).clamp(0.0, 1.0);
    let (a, b) = ((n + 1.0) * q, (n + 1.0) * (1.0 - q));
    let ln_density: Vec<f64> = (0..v.len() * STEPS)
        .map(|j| (j as f64 + 0.5) / (n * STEPS as f64))
        .map(|u| (a - 1.0) * u.ln() + (b - 1.0) * (1.0 - u).ln())
        .collect();
    // Densities are taken relative to the largest, so that none underflows.
    let peak = ln_density.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (mut total, mut weighted) = (0.0, 0.0);
    for (x, lds) in v.iter().zip(ln_density.chunks(STEPS)) {
        let w: f64 = lds.iter().map(|ld| (ld - peak).exp()).sum();
        total += w;
        weighted += w * x;
    }
    weighted / total
}

/// The tail percentiles the benchmark may report, in per mille (exact
/// integers, so the rule below has no rounding edge), highest last.
pub const TAILS_PER_MILLE: [usize; 4] = [500, 900, 990, 999];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile in [`TAILS_PER_MILLE`] with at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median has fewer.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS_PER_MILLE
        .iter()
        .rev()
        .find(|&&pm| n * (1000 - pm) >= MIN_BEYOND * 1000)
        .map(|&pm| pm as f64 / 10.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_seeds_are_stable() {
        // Pinned: changing the derivation changes every workload's inputs
        // and invalidates the committed baseline.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(item_seed(11, 2, 7), 0x8ca3_0a40_5bd9_ff27);
        assert_ne!(item_seed(11, 0, 1), item_seed(11, 1, 0));
        assert_ne!(item_seed(11, 0, 0), item_seed(29, 0, 0));
    }

    #[test]
    fn shuffles_are_stable_permutations() {
        let v = shuffled(15, 11);
        assert_eq!(v, shuffled(15, 11));
        assert_ne!(v, shuffled(15, 29));
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..15).collect::<Vec<_>>());
        assert_eq!(shuffled(0, 11), Vec::<usize>::new());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"");
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn percentiles_interpolate() {
        let xs: Vec<f64> = (1..=5).map(f64::from).rev().collect();
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert!((percentile(&xs, 90.0) - 4.6).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn harrell_davis_averages_around_the_rank() {
        assert!(percentile_hd(&[], 50.0).is_nan());
        assert_eq!(percentile_hd(&[7.0], 90.0), 7.0);
        // Symmetric weights: the median of a symmetric sample is its centre.
        let xs: Vec<f64> = (1..=9).map(f64::from).rev().collect();
        assert!((percentile_hd(&xs, 50.0) - 5.0).abs() < 1e-9);
        // Within half a step of the plain percentile on an even spread...
        let xs: Vec<f64> = (0..200).map(|i| f64::from(i) * 10.0).collect();
        assert!((percentile_hd(&xs, 90.0) - percentile(&xs, 90.0)).abs() < 5.0);
        // ...but noise on the sample at the rank moves it far less.
        let mut ys = xs.clone();
        ys[179] += 5.0;
        let plain = percentile(&ys, 90.0) - percentile(&xs, 90.0);
        let hd = percentile_hd(&ys, 90.0) - percentile_hd(&xs, 90.0);
        assert!(
            plain > 4.0 && hd > 0.0 && hd < plain / 4.0,
            "plain {plain}, hd {hd}"
        );
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
