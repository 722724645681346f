//! The Greenwald–Khanna (GK) quantile sketch behind `keddah serve`'s
//! bounded-memory refits.
//!
//! The offline fitting path sorts the whole pooled sample; a service
//! ingesting an unbounded capture stream cannot. A [`SampleStore`] holds
//! one model dimension either exactly or as a [`GkSketch`], whose
//! bounded pseudo-sample the offline fitters consume.
//!
//! # Error bound
//!
//! For a sketch with parameter `ε` over `n` observations,
//! [`GkSketch::quantile`] at target rank `r = ⌈qn⌉` returns a stored
//! value whose true rank lies in `[r − εn, r + εn]` — the GK guarantee,
//! maintained by keeping every tuple's `g + Δ ≤ 2εn`. The bound is
//! asserted exactly (plus float-rounding slack) by the sketch proptest in
//! `tests/stream_model.rs`.

use std::cmp::Ordering;

use crate::{Result, StatError};

/// One GK tuple: a stored value `v` covering `g` observations, with
/// rank uncertainty `Δ`. With `rminᵢ = Σ_{j≤i} gⱼ`, the tracked
/// instance of `v` has rank in `[rminᵢ, rminᵢ + Δᵢ]`.
#[derive(Debug, Clone, Copy)]
struct GkTuple {
    v: f64,
    g: u64,
    delta: u64,
}

/// A Greenwald–Khanna ε-approximate quantile sketch.
///
/// Memory is `O((1/ε) · log(εn))` tuples regardless of stream length;
/// the extreme values stay exact (the first tuple is always the true
/// minimum with `g = 1, Δ = 0`, the last always holds the true
/// maximum).
///
/// # Examples
///
/// ```
/// use keddah_stat::sketch::GkSketch;
///
/// let mut sk = GkSketch::new(0.01).unwrap();
/// for i in 0..10_000 {
///     sk.observe(f64::from(i));
/// }
/// let median = sk.quantile(0.5).unwrap();
/// assert!((median - 5_000.0).abs() <= 0.01 * 10_000.0);
/// ```
#[derive(Debug, Clone)]
pub struct GkSketch {
    eps: f64,
    n: u64,
    tuples: Vec<GkTuple>,
    inserts_since_compress: u64,
    /// [`GkSketch::extend_from_slice`]'s working buffer: the new tuples of one
    /// compress period. Kept so inserting one value allocates nothing.
    batch: Vec<GkTuple>,
}

impl GkSketch {
    /// Creates a sketch with rank-error parameter `eps`.
    ///
    /// # Errors
    ///
    /// Returns [`StatError::InvalidParameter`] unless `0 < eps < 0.5`.
    pub fn new(eps: f64) -> Result<GkSketch> {
        if !eps.is_finite() || eps <= 0.0 || eps >= 0.5 {
            return Err(StatError::InvalidParameter {
                name: "eps",
                value: eps,
            });
        }
        Ok(GkSketch {
            eps,
            n: 0,
            tuples: Vec::new(),
            inserts_since_compress: 0,
            batch: Vec::new(),
        })
    }

    /// Stored tuples — the sketch's memory footprint.
    #[must_use]
    pub fn tuple_count(&self) -> usize {
        self.tuples.len()
    }

    /// The exact minimum observed, if any.
    fn min(&self) -> Option<f64> {
        self.tuples.first().map(|t| t.v)
    }

    /// The exact maximum observed, if any.
    fn max(&self) -> Option<f64> {
        self.tuples.last().map(|t| t.v)
    }

    /// The maximum tuple uncertainty `g + Δ` may reach after `n`
    /// observations.
    fn band(&self, n: u64) -> u64 {
        (2.0 * self.eps * n as f64).floor() as u64
    }

    /// Observations between compressions: `⌊1/(2ε)⌋`, at least one.
    fn period(&self) -> u64 {
        (1.0 / (2.0 * self.eps)).floor().max(1.0) as u64
    }

    /// Inserts every finite value of `xs` (non-finite values are
    /// ignored).
    ///
    /// The tuples come out exactly as if each value were inserted on its
    /// own, in order, compressing every `⌊1/(2ε)⌋` values; see DESIGN.md,
    /// "Streaming ingestion". One insert shifts every larger tuple, so this
    /// takes the values one compress period at a time instead: each value
    /// gets the `Δ` it would get on its own, then the period, sorted
    /// stably, merges into the tuples in one pass.
    pub fn extend_from_slice(&mut self, xs: &[f64]) {
        let period = self.period();
        let mut values = xs.iter().copied().filter(|x| x.is_finite());
        let mut batch = std::mem::take(&mut self.batch);
        loop {
            let room = period - self.inserts_since_compress;
            let (mut lo, mut hi) = (self.min(), self.max());
            batch.clear();
            for v in values.by_ref().take(room as usize) {
                // A value below everything stored, or at or above
                // everything stored, lands at an end of the tuple list and
                // is exact; anything else takes the band's uncertainty at
                // its own arrival.
                let (below, above) = (lo.is_none_or(|lo| v < lo), hi.is_none_or(|hi| v >= hi));
                let delta = if below || above {
                    0
                } else {
                    self.band(self.n + batch.len() as u64).saturating_sub(1)
                };
                batch.push(GkTuple { v, g: 1, delta });
                if below {
                    lo = Some(v);
                }
                if above {
                    hi = Some(v);
                }
            }
            if batch.is_empty() {
                self.batch = batch;
                return;
            }
            // Equal values keep their arrival order, after the stored ones.
            batch.sort_by(|a, b| a.v.partial_cmp(&b.v).unwrap_or(Ordering::Equal));
            self.merge(&batch);
            self.n += batch.len() as u64;
            self.inserts_since_compress += batch.len() as u64;
            if self.inserts_since_compress < period {
                // The values ran out before the period did.
                self.batch = batch;
                return;
            }
            self.compress();
            self.inserts_since_compress = 0;
        }
    }

    /// Merges a sorted batch into the tuples from the right, in place;
    /// a batch tuple goes after every stored tuple of equal value. Each
    /// stored tuple moves once, in a block with its neighbours.
    ///
    /// A value's place is found by galloping left from the previous
    /// value's: a period's values land a few tuples apart, so that takes
    /// a few comparisons where a binary search over all the tuples takes
    /// `log₂ n` hard-to-predict ones. A single value costs about two
    /// binary searches.
    fn merge(&mut self, batch: &[GkTuple]) {
        let mut stored = self.tuples.len();
        self.tuples.extend_from_slice(batch);
        let mut write = self.tuples.len();
        for new in batch.iter().rev() {
            // Every tuple in `above..stored` is greater than the new value;
            // none before `lo` is.
            let (mut above, mut step) = (stored, 1);
            let lo = loop {
                let Some(probe) = above.checked_sub(step) else {
                    break 0;
                };
                if self.tuples[probe].v <= new.v {
                    break probe + 1;
                }
                above = probe;
                step *= 2;
            };
            let stay = lo + self.tuples[lo..above].partition_point(|t| t.v <= new.v);
            self.tuples
                .copy_within(stay..stored, write - (stored - stay));
            write -= stored - stay + 1;
            stored = stay;
            self.tuples[write] = *new;
        }
    }

    /// Merges each tuple into its right neighbour while their combined
    /// uncertainty stays within the band, scanning right to left. The
    /// first and last tuples are never merged away, keeping the extremes
    /// exact. One pass compacts the survivors against the right end, then
    /// one move shifts them to the front.
    fn compress(&mut self) {
        let band = self.band(self.n);
        let len = self.tuples.len();
        if len < 3 {
            return;
        }
        // `self.tuples[keep]` is the leftmost survivor so far: the right
        // neighbour of the tuple being scanned.
        let mut keep = len - 1;
        for i in (1..len - 1).rev() {
            let t = self.tuples[i];
            let right = &mut self.tuples[keep];
            if t.g + right.g + right.delta <= band {
                right.g += t.g;
            } else {
                keep -= 1;
                self.tuples[keep] = t;
            }
        }
        keep -= 1;
        self.tuples[keep] = self.tuples[0];
        self.tuples.drain(..keep);
    }

    /// A bounded, sorted pseudo-sample reconstructed from the quantile
    /// grid: `m` mid-rank quantiles, `m = min(n, cap)`. Feeding these
    /// to the offline fitters approximates the full-sample fit to
    /// within the sketch's rank error.
    ///
    /// Entry `j` is [`quantile`](GkSketch::quantile) at
    /// `(j + 0.5)/m`, bit for bit. The targets ascend, so each one's walk
    /// resumes where the previous one stopped: one walk answers them all.
    fn pseudo_sample(&self, cap: usize) -> Vec<f64> {
        if self.n == 0 {
            return Vec::new();
        }
        let m = (self.n as usize).min(cap.max(1));
        let n = self.n as f64;
        let t = self.eps * n;
        // The walk so far: tuples before `next`, their `g` summed in
        // `rmin`, and the last value passed (the first tuple's before
        // any). `q` stays inside (0, 1) for any `m` below 2⁵³, so the
        // extremes' shortcuts in `quantile` never apply.
        let (mut next, mut rmin, mut prev) = (0, 0u64, self.tuples[0].v);
        let mut out = Vec::with_capacity(m);
        for j in 0..m {
            let q = (j as f64 + 0.5) / m as f64;
            let r = (q * n).ceil().max(1.0);
            while let Some(tu) = self.tuples.get(next) {
                if (rmin + tu.g + tu.delta) as f64 > r + t {
                    break;
                }
                rmin += tu.g;
                prev = tu.v;
                next += 1;
            }
            out.push(prev);
        }
        out
    }

    /// Ingests one observation (non-finite values are ignored): the
    /// one-value case of [`GkSketch::extend_from_slice`]. Interior inserts
    /// take the maximal allowed uncertainty; new extremes are exact
    /// (Δ = 0), which keeps the extremes error-free and anchors the
    /// query-walk proof.
    pub fn observe(&mut self, x: f64) {
        self.extend_from_slice(std::slice::from_ref(&x));
    }

    /// Number of (finite) observations ingested.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The value at quantile `q ∈ [0, 1]` (clamped), within the rank error
    /// of the module docs.
    ///
    /// # Errors
    ///
    /// Returns [`StatError::EmptySample`] before any observation.
    pub fn quantile(&self, q: f64) -> Result<f64> {
        if self.n == 0 {
            return Err(StatError::EmptySample);
        }
        let q = q.clamp(0.0, 1.0);
        // The extremes are stored exactly (Δ = 0 at both ends); answer
        // them directly rather than letting the ε-window walk drift.
        if q == 0.0 {
            return Ok(self.tuples[0].v);
        }
        if q == 1.0 {
            return Ok(self.tuples[self.tuples.len() - 1].v);
        }
        let n = self.n as f64;
        let r = (q * n).ceil().max(1.0);
        let t = self.eps * n;
        // Return the last stored value whose maximal rank still fits
        // under r + εn; its successor violating the cut plus the band
        // invariant forces its minimal rank above r − εn.
        let mut rmin = 0u64;
        let mut prev = self.tuples[0].v;
        for tu in &self.tuples {
            rmin += tu.g;
            if (rmin + tu.delta) as f64 > r + t {
                return Ok(prev);
            }
            prev = tu.v;
        }
        Ok(prev)
    }
}

/// A bounded-memory sample accumulator for one model dimension: either
/// the exact store (offline-identical fits, memory grows with the
/// stream) or a GK sketch (bounded memory, fits within the sketch
/// error). The streaming engine holds one per component per dimension.
#[derive(Debug, Clone)]
pub enum SampleStore {
    /// Every sample, in insertion order — replaying this through the
    /// offline fitters is bit-identical to a batch fit.
    Exact(Vec<f64>),
    /// A GK sketch; fits consume its bounded pseudo-sample.
    Sketch(GkSketch),
}

/// Pseudo-sample size cap used by [`SampleStore::fit_samples`] in
/// sketch mode: enough grid points that reconstruction error stays
/// below the sketch's own rank error.
pub const PSEUDO_SAMPLE_CAP: usize = 512;

impl SampleStore {
    /// An exact store.
    #[must_use]
    pub fn exact() -> SampleStore {
        SampleStore::Exact(Vec::new())
    }

    /// A sketched store with rank error `eps`.
    ///
    /// # Errors
    ///
    /// Returns [`StatError::InvalidParameter`] for `eps` outside
    /// `(0, 0.5)`.
    pub fn sketch(eps: f64) -> Result<SampleStore> {
        Ok(SampleStore::Sketch(GkSketch::new(eps)?))
    }

    /// Ingests every finite value of `xs`, in order (non-finite values
    /// are ignored). A sketch ends up exactly as if each value were
    /// observed on its own.
    pub fn extend_from_slice(&mut self, xs: &[f64]) {
        match self {
            SampleStore::Exact(v) => v.extend(xs.iter().copied().filter(|x| x.is_finite())),
            SampleStore::Sketch(s) => s.extend_from_slice(xs),
        }
    }

    /// Observations ingested.
    #[must_use]
    pub fn count(&self) -> u64 {
        match self {
            SampleStore::Exact(v) => v.len() as u64,
            SampleStore::Sketch(s) => s.count(),
        }
    }

    /// The sample to hand to the offline fitters: the raw insertion
    /// order for exact stores (so batch and streaming fits sum floats
    /// in the same order and stay bit-identical), a bounded quantile
    /// reconstruction for sketches.
    #[must_use]
    pub fn fit_samples(&self) -> Vec<f64> {
        match self {
            SampleStore::Exact(v) => v.clone(),
            SampleStore::Sketch(s) => s.pseudo_sample(PSEUDO_SAMPLE_CAP),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// True rank interval of `v` in `data`: 1-based `[lo, hi]`.
    fn rank_interval(data: &[f64], v: f64) -> (u64, u64) {
        let mut sorted = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        let below = sorted.partition_point(|&x| x < v) as u64;
        let through = sorted.partition_point(|&x| x <= v) as u64;
        (below + 1, through)
    }

    #[test]
    fn rejects_bad_eps() {
        assert!(GkSketch::new(0.0).is_err());
        assert!(GkSketch::new(0.5).is_err());
        assert!(GkSketch::new(f64::NAN).is_err());
        assert!(GkSketch::new(0.01).is_ok());
    }

    #[test]
    fn empty_sketch_errors() {
        let sk = GkSketch::new(0.1).unwrap();
        assert!(matches!(sk.quantile(0.5), Err(StatError::EmptySample)));
        assert_eq!(sk.min(), None);
        assert_eq!(sk.max(), None);
    }

    #[test]
    fn quantiles_within_bound_on_uniform_stream() {
        let n = 50_000u64;
        let eps = 0.01;
        let mut sk = GkSketch::new(eps).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let data: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 1e6).collect();
        for &x in &data {
            sk.observe(x);
        }
        assert_eq!(sk.count(), n);
        let t = eps * n as f64;
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = sk.quantile(q).unwrap();
            let r = (q * n as f64).ceil().max(1.0);
            let (lo, hi) = rank_interval(&data, v);
            assert!(
                lo as f64 <= r + t + 1e-9 && hi as f64 >= r - t - 1e-9,
                "q={q}: rank interval [{lo}, {hi}] misses target {r} ± {t}"
            );
        }
    }

    #[test]
    fn extremes_are_exact() {
        let mut sk = GkSketch::new(0.05).unwrap();
        let data: Vec<f64> = (0..5_000).map(|i| f64::from((i * 37) % 1000)).collect();
        for &x in &data {
            sk.observe(x);
        }
        assert_eq!(sk.min(), Some(0.0));
        assert_eq!(sk.max(), Some(999.0));
        assert_eq!(sk.quantile(0.0).unwrap(), 0.0);
        assert_eq!(sk.quantile(1.0).unwrap(), 999.0);
    }

    #[test]
    fn memory_stays_bounded() {
        let mut sk = GkSketch::new(0.01).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200_000 {
            sk.observe(rng.random::<f64>());
        }
        // O((1/ε)·log(εn)) tuples; for ε = 0.01, n = 200k this is a few
        // hundred — assert an order-of-magnitude ceiling, not exactness.
        assert!(
            sk.tuple_count() < 2_000,
            "sketch grew to {} tuples",
            sk.tuple_count()
        );
    }

    #[test]
    fn non_finite_observations_ignored() {
        let mut sk = GkSketch::new(0.1).unwrap();
        sk.observe(f64::NAN);
        sk.observe(f64::INFINITY);
        sk.observe(1.0);
        assert_eq!(sk.count(), 1);
    }

    #[test]
    fn sample_store_exact_preserves_insertion_order() {
        let mut store = SampleStore::exact();
        store.extend_from_slice(&[3.0, 1.0, 2.0, f64::NAN]);
        assert!(matches!(store, SampleStore::Exact(_)));
        assert_eq!(store.count(), 3);
        assert_eq!(store.fit_samples(), vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn sample_store_sketch_reconstructs_sorted_pseudo_sample() {
        let mut store = SampleStore::sketch(0.02).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let xs: Vec<f64> = (0..10_000).map(|_| rng.random::<f64>() * 100.0).collect();
        store.extend_from_slice(&xs);
        assert!(matches!(&store, SampleStore::Sketch(s) if s.eps == 0.02));
        let samples = store.fit_samples();
        assert_eq!(samples.len(), PSEUDO_SAMPLE_CAP.min(10_000));
        assert!(samples.windows(2).all(|w| w[0] <= w[1]), "sorted output");
    }

    #[test]
    fn pseudo_sample_smaller_than_cap_for_tiny_streams() {
        let mut store = SampleStore::sketch(0.1).unwrap();
        store.extend_from_slice(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(store.fit_samples().len(), 5);
    }

    /// The sketch built one value at a time, as it was before the batch
    /// path: a shifting insert per value, and a compress that removes
    /// merged tuples one by one.
    struct Sequential {
        eps: f64,
        n: u64,
        tuples: Vec<GkTuple>,
        since_compress: u64,
    }

    impl Sequential {
        fn band(&self) -> u64 {
            (2.0 * self.eps * self.n as f64).floor() as u64
        }

        fn observe(&mut self, x: f64) {
            if !x.is_finite() {
                return;
            }
            let band = self.band();
            let pos = self.tuples.partition_point(|t| t.v <= x);
            let delta = if pos == 0 || pos == self.tuples.len() {
                0
            } else {
                band.saturating_sub(1)
            };
            self.tuples.insert(pos, GkTuple { v: x, g: 1, delta });
            self.n += 1;
            self.since_compress += 1;
            let period = (1.0 / (2.0 * self.eps)).floor().max(1.0) as u64;
            if self.since_compress >= period {
                self.compress();
                self.since_compress = 0;
            }
        }

        fn compress(&mut self) {
            let band = self.band();
            if self.tuples.len() < 3 {
                return;
            }
            let mut i = self.tuples.len() - 2;
            while i >= 1 {
                let merged = self.tuples[i].g + self.tuples[i + 1].g + self.tuples[i + 1].delta;
                if merged <= band {
                    self.tuples[i + 1].g += self.tuples[i].g;
                    self.tuples.remove(i);
                }
                i -= 1;
            }
        }
    }

    fn bits(tuples: &[GkTuple]) -> Vec<(u64, u64, u64)> {
        tuples
            .iter()
            .map(|t| (t.v.to_bits(), t.g, t.delta))
            .collect()
    }

    /// Turns a `(kind, x)` draw into a value that stresses the insert:
    /// ties, both zeros, non-finite values, new extremes on either side,
    /// and spread values. `lo` and `hi` track the extremes so far.
    fn realise((kind, x): (u32, f64), lo: &mut f64, hi: &mut f64) -> f64 {
        let v = match kind {
            0 | 1 => x.abs().floor() % 4.0,
            2 => [0.0, -0.0][usize::from(x < 0.0)],
            3 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(x.abs() as usize) % 3],
            4 => *hi + x.abs().floor(),
            5 => *lo - x.abs().floor(),
            _ => x,
        };
        if v.is_finite() {
            *lo = lo.min(v);
            *hi = hi.max(v);
        }
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Batches of any size, mixed with single observations, leave
        /// the tuples exactly where one-at-a-time inserts leave them, and
        /// the one-walk pseudo-sample answers each target as `quantile`
        /// does, bit for bit.
        #[test]
        fn batched_inserts_match_sequential_inserts(
            draws in prop::collection::vec((0u32..8, -100.0f64..100.0), 0..1_500),
            chunks in prop::collection::vec((1usize..700, any::<bool>()), 1..12),
            eps in (0u32..4, 0.001f64..0.49),
            cap in 1usize..700,
        ) {
            // ε spans (0.001, 0.49); its ends give periods of 500 and 1.
            let eps = [eps.1, 0.001, 0.25, 0.49][eps.0 as usize];
            let (mut lo, mut hi) = (0.0, 0.0);
            let xs: Vec<f64> = draws.into_iter().map(|d| realise(d, &mut lo, &mut hi)).collect();
            let mut batched = GkSketch::new(eps).unwrap();
            let mut sequential = Sequential { eps, n: 0, tuples: Vec::new(), since_compress: 0 };
            let mut rest = &xs[..];
            for &(len, one_by_one) in chunks.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (chunk, tail) = rest.split_at(len.min(rest.len()));
                rest = tail;
                if one_by_one {
                    chunk.iter().for_each(|&x| batched.observe(x));
                } else {
                    batched.extend_from_slice(chunk);
                }
                chunk.iter().for_each(|&x| sequential.observe(x));
                prop_assert_eq!(bits(&batched.tuples), bits(&sequential.tuples));
                prop_assert_eq!(batched.count(), sequential.n);
            }
            if batched.count() > 0 {
                let m = (batched.count() as usize).min(cap);
                let walked: Vec<u64> = batched.pseudo_sample(cap).iter().map(|v| v.to_bits()).collect();
                let queried: Vec<u64> = (0..m)
                    .map(|j| batched.quantile((j as f64 + 0.5) / m as f64).unwrap().to_bits())
                    .collect();
                prop_assert_eq!(walked, queried);
            }
        }
    }
}
