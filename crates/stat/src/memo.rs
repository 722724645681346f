//! The candidate sweep's per-value term memo and its one shared log pass.
//!
//! Flow samples repeat values out of order: block-sized transfers and
//! fixed-size control messages recur all through a capture, so a sample
//! of 182k sizes can hold well under a thousand distinct values. Every
//! term a maximum-likelihood pass evaluates (a log, a `tanh`, an `exp`, a
//! `powf`, a log-density) is a function of one value's bits and the
//! pass's parameters. Equal bits in give equal bits out, so a term looked
//! up in a memo is the term the pass would have computed, and as long as
//! every sum still adds every term in sample order, a fit is bit for bit
//! what it would be without the memo.
//!
//! [`TermMemo`] keeps the terms of one pass in a constant number of
//! open-addressed slots, keyed by the value's bits and forgotten when the
//! next pass starts. A pass that finds few repeats switches probing off
//! for the rest of the memo's life, so a sorted pseudo-sample or a
//! continuous sample pays for one probing pass only. [`LogSample`] is the
//! sweep's one pass of logs, shared by the log-space families.

use crate::distributions::check_positive_sample;
use crate::Result;

/// log2 of the memo's slot count.
const SLOT_BITS: u32 = 11;

/// The memo's slot count, whatever the sample's size.
pub(crate) const SLOTS: usize = 1 << SLOT_BITS;

/// Distinct values one pass may store: half the slots, so a lookup of a
/// new value meets an empty slot within a few probes.
const MAX_LIVE: usize = SLOTS / 2;

/// Slots a lookup inspects before it evaluates without storing.
const MAX_PROBES: usize = 16;

/// The home slot of a key (Fibonacci hashing of the value's bits).
pub(crate) fn slot_of(key: u64) -> usize {
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - SLOT_BITS)) as usize
}

#[derive(Clone, Copy, Default)]
struct Slot {
    key: u64,
    /// The pass that stored this slot; a slot of an earlier pass is empty.
    pass: u64,
    term: [f64; 2],
}

/// Work counts of a memo, over every pass it has run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Work {
    /// Passes started.
    pub(crate) passes: u64,
    /// Lookups: one per run break of a pass made while probing.
    pub(crate) probes: u64,
    /// Lookups that found their value's term.
    pub(crate) hits: u64,
    /// Terms evaluated, by a miss or by a pass that did not probe.
    pub(crate) evaluated: u64,
}

/// A bounded per-pass memo of per-value terms, keyed by a value's bits.
pub(crate) struct TermMemo {
    slots: Box<[Slot]>,
    /// Terms stored by the current pass.
    live: usize,
    /// False once a pass found few repeats.
    probing: bool,
    /// The counts when the current pass started.
    pass_start: Work,
    pub(crate) work: Work,
}

impl TermMemo {
    pub(crate) fn new() -> TermMemo {
        TermMemo {
            slots: vec![Slot::default(); SLOTS].into_boxed_slice(),
            live: 0,
            probing: true,
            pass_start: Work::default(),
            work: Work::default(),
        }
    }

    /// One pass over `values` in order: yields each value with its term,
    /// `eval(value)`, evaluated once per run of bit-equal values and
    /// looked up in the memo at each run break. Every term of the
    /// previous pass is forgotten.
    pub(crate) fn pass<'a, F>(&'a mut self, values: &'a [f64], eval: F) -> Pass<'a, F>
    where
        F: FnMut(f64) -> [f64; 2],
    {
        self.work.passes += 1;
        self.pass_start = self.work;
        self.live = 0;
        Pass {
            // Differs from the first value's bits, so it starts a run.
            last: values.first().map_or(0, |x| !x.to_bits()),
            values: values.iter(),
            term: [0.0; 2],
            eval,
            memo: self,
        }
    }

    /// The term of the value with bits `key`: stored by this pass, or
    /// evaluated (and stored if there is room).
    #[inline]
    fn term(&mut self, key: u64, eval: impl FnOnce() -> [f64; 2]) -> [f64; 2] {
        let mut free = None;
        if self.probing {
            self.work.probes += 1;
            let mut i = slot_of(key);
            for _ in 0..MAX_PROBES {
                let slot = &self.slots[i];
                if slot.pass != self.work.passes {
                    free = (self.live < MAX_LIVE).then_some(i);
                    break;
                }
                if slot.key == key {
                    self.work.hits += 1;
                    return slot.term;
                }
                i = (i + 1) % SLOTS;
            }
        }
        self.work.evaluated += 1;
        let term = eval();
        if let Some(i) = free {
            self.slots[i] = Slot {
                key,
                pass: self.work.passes,
                term,
            };
            self.live += 1;
        }
        term
    }

    /// Ends a pass: if fewer than half of its lookups found their term,
    /// later passes evaluate every run without probing.
    fn end_pass(&mut self) {
        let probes = self.work.probes - self.pass_start.probes;
        let hits = self.work.hits - self.pass_start.hits;
        if hits * 2 < probes {
            self.probing = false;
        }
    }
}

/// The iterator of [`TermMemo::pass`]; the pass ends when it is dropped.
pub(crate) struct Pass<'a, F> {
    memo: &'a mut TermMemo,
    values: std::slice::Iter<'a, f64>,
    eval: F,
    /// The previous value's bits and term.
    last: u64,
    term: [f64; 2],
}

impl<F: FnMut(f64) -> [f64; 2]> Iterator for Pass<'_, F> {
    type Item = (f64, [f64; 2]);

    #[inline]
    fn next(&mut self) -> Option<(f64, [f64; 2])> {
        let &x = self.values.next()?;
        if x.to_bits() != self.last {
            self.last = x.to_bits();
            let eval = &mut self.eval;
            self.term = self.memo.term(self.last, || eval(x));
        }
        Some((x, self.term))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.values.size_hint()
    }
}

impl<F> Drop for Pass<'_, F> {
    fn drop(&mut self) {
        self.memo.end_pass();
    }
}

/// The natural log of every sample, taken in one memoised pass and
/// shared by the log-space fits of a sweep, with the logs' moments.
pub(crate) struct LogSample {
    pub(crate) logs: Vec<f64>,
    /// The sample size, as the moments' divisor.
    pub(crate) n: f64,
    /// The logs' sum, in sample order, over `n`.
    pub(crate) mean: f64,
    /// The mean squared deviation of the logs from `mean`.
    pub(crate) var: f64,
}

impl LogSample {
    /// # Errors
    ///
    /// The errors of a positive-support fit: an empty sample, a
    /// non-finite value or a value at or below zero.
    pub(crate) fn new(samples: &[f64], memo: &mut TermMemo) -> Result<LogSample> {
        check_positive_sample(samples)?;
        let logs: Vec<f64> = (memo.pass(samples, |x| [x.ln(), 0.0]))
            .map(|(_, [l, _])| l)
            .collect();
        let n = logs.len() as f64;
        let mean = logs.iter().sum::<f64>() / n;
        let var = logs.iter().map(|&l| (l - mean) * (l - mean)).sum::<f64>() / n;
        Ok(LogSample { logs, n, mean, var })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::LogLogistic;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Run breaks of `xs`: values whose bits differ from their
    /// predecessor's, the first included.
    fn runs(xs: &[f64]) -> u64 {
        1 + xs
            .windows(2)
            .filter(|w| w[0].to_bits() != w[1].to_bits())
            .count() as u64
    }

    /// The work of `f` on `memo`.
    fn work_of<T>(memo: &mut TermMemo, f: impl FnOnce(&mut TermMemo) -> T) -> (T, Work) {
        let before = memo.work;
        let out = f(memo);
        let after = memo.work;
        let work = Work {
            passes: after.passes - before.passes,
            probes: after.probes - before.probes,
            hits: after.hits - before.hits,
            evaluated: after.evaluated - before.evaluated,
        };
        (out, work)
    }

    #[test]
    fn interleaved_repeats_evaluate_each_distinct_value_once_per_pass() {
        // 120k control-message sizes: 300 distinct values in random order.
        let mut rng = StdRng::seed_from_u64(9);
        let pool: Vec<f64> = (0..300).map(|i| 200.0 + 37.0 * f64::from(i)).collect();
        let mut xs: Vec<f64> = pool.clone();
        xs.extend((pool.len()..120_000).map(|_| pool[rng.random_range(0..pool.len())]));
        let (n, distinct, runs) = (xs.len() as u64, pool.len() as u64, runs(&xs));
        assert!(runs > n * 99 / 100, "interleaved: {runs} runs");

        let mut memo = TermMemo::new();
        let (logs, ln) = work_of(&mut memo, |m| LogSample::new(&xs, m).unwrap());
        assert_eq!(
            ln,
            Work {
                passes: 1,
                probes: runs,
                hits: runs - distinct,
                evaluated: distinct,
            }
        );
        let (fit, ll) = work_of(&mut memo, |m| LogLogistic::from_logs(&logs, m).unwrap());
        let passes = 13;
        assert_eq!(
            ll,
            Work {
                passes,
                probes: runs * passes,
                hits: (runs - distinct) * passes,
                evaluated: distinct * passes,
            }
        );
        assert_eq!(fit, LogLogistic::fit_mle(&xs).unwrap());
    }

    #[test]
    fn sorted_continuous_sample_probes_one_pass_only() {
        let xs: Vec<f64> = (1..=20_000).map(|i| f64::from(i).powf(1.5)).collect();
        let n = xs.len() as u64;
        let mut memo = TermMemo::new();
        let logs = LogSample::new(&xs, &mut memo).unwrap();
        let (_, ll) = work_of(&mut memo, |m| LogLogistic::from_logs(&logs, m).unwrap());
        let passes = 14;
        assert_eq!(ll.passes, passes);
        assert_eq!(
            memo.work,
            Work {
                passes: 1 + passes,
                probes: n,
                hits: 0,
                evaluated: n * (1 + passes),
            }
        );
    }

    #[test]
    fn a_pass_forgets_the_previous_passes_terms() {
        let xs = [3.0, 5.0, 3.0, 5.0];
        let mut memo = TermMemo::new();
        let first: Vec<f64> = memo.pass(&xs, |x| [x, 0.0]).map(|(_, [t, _])| t).collect();
        let second: Vec<f64> = (memo.pass(&xs, |x| [-x, 0.0]))
            .map(|(_, [t, _])| t)
            .collect();
        assert_eq!(first, [3.0, 5.0, 3.0, 5.0]);
        assert_eq!(second, [-3.0, -5.0, -3.0, -5.0]);
        assert_eq!(
            memo.work,
            Work {
                passes: 2,
                probes: 8,
                hits: 4,
                evaluated: 4,
            }
        );
    }
}
