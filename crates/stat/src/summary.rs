//! Streaming moment summaries.

use serde::{Deserialize, Serialize};

/// A running summary of a stream of values: count, mean, variance, min,
/// max, and total.
///
/// Uses Welford's online algorithm so it is numerically stable and can be
/// updated one value at a time — the Hadoop simulator feeds per-flow byte
/// counts through this without buffering.
///
/// # Examples
///
/// ```
/// use keddah_stat::Summary;
///
/// let s: Summary = [2.0, 4.0, 6.0].into_iter().collect();
/// assert_eq!(s.count(), 3);
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.sum(), 12.0);
/// assert!((s.variance() - 8.0 / 3.0).abs() < 1e-12);
/// ```
/// An empty summary reports degenerate statistics as documented finite
/// values — [`Summary::min`]/[`Summary::max`] are `None`,
/// [`Summary::variance`] and the standard deviation are `0.0` below two
/// observations — and its JSON form never contains the internal
/// `±inf` running sentinels (see the manual `Serialize` impl), so
/// report artefacts stay plain finite numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

// Hand-written (de)serialization: the running `min`/`max` fields hold
// `+inf`/`-inf` sentinels while the summary is empty, and those must not
// leak into JSON artefacts (the vendored serde would render them as the
// strings "inf"/"-inf"). An empty summary serializes min/max as 0.0 and
// restores the sentinels on the way back in, so a round-tripped summary
// still merges correctly.
impl Serialize for Summary {
    fn to_value(&self) -> serde::Value {
        let (min, max) = if self.count == 0 {
            (0.0, 0.0)
        } else {
            (self.min, self.max)
        };
        serde::Value::Object(vec![
            ("count".to_string(), self.count.to_value()),
            ("mean".to_string(), self.mean.to_value()),
            ("m2".to_string(), self.m2.to_value()),
            ("min".to_string(), min.to_value()),
            ("max".to_string(), max.to_value()),
            ("sum".to_string(), self.sum.to_value()),
        ])
    }
}

impl Deserialize for Summary {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let serde::Value::Object(entries) = value else {
            return Err(serde::Error::expected("Summary object", value));
        };
        let mut s = Summary {
            count: serde::de_field(entries, "count", "Summary")?,
            mean: serde::de_field(entries, "mean", "Summary")?,
            m2: serde::de_field(entries, "m2", "Summary")?,
            min: serde::de_field(entries, "min", "Summary")?,
            max: serde::de_field(entries, "max", "Summary")?,
            sum: serde::de_field(entries, "sum", "Summary")?,
        };
        if s.count == 0 {
            s.min = f64::INFINITY;
            s.max = f64::NEG_INFINITY;
        }
        Ok(s)
    }
}

impl Summary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another summary into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; 0 if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance.
    ///
    /// With fewer than two observations there is no spread to estimate,
    /// so this is defined as `0.0` — never `NaN`:
    ///
    /// ```
    /// use keddah_stat::Summary;
    ///
    /// assert_eq!(Summary::new().variance(), 0.0);
    /// let one: Summary = [7.0].into_iter().collect();
    /// assert_eq!(one.variance(), 0.0);
    /// ```
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation; `0.0` below two observations, like
    /// [`Summary::variance`].
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observed value; `None` if empty (the internal `+inf`
    /// running sentinel never escapes).
    ///
    /// ```
    /// use keddah_stat::Summary;
    ///
    /// assert_eq!(Summary::new().min(), None);
    /// let s: Summary = [3.0, 1.0].into_iter().collect();
    /// assert_eq!(s.min(), Some(1.0));
    /// ```
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observed value; `None` if empty (the internal `-inf`
    /// running sentinel never escapes).
    ///
    /// ```
    /// use keddah_stat::Summary;
    ///
    /// assert_eq!(Summary::new().max(), None);
    /// let s: Summary = [3.0, 1.0].into_iter().collect();
    /// assert_eq!(s.max(), Some(3.0));
    /// ```
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

impl Default for Summary {
    fn default() -> Self {
        Summary::new()
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let bound = |b: Option<f64>| b.map_or_else(|| "-".to_string(), |v| format!("{v:.4}"));
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={} max={} sum={:.4}",
            self.count,
            self.mean,
            self.std_dev(),
            bound(self.min()),
            bound(self.max()),
            self.sum
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.sum(), 0.0);
    }

    #[test]
    fn empty_summary_serializes_finite_and_roundtrips() {
        // The ±inf running sentinels must never reach JSON artefacts.
        let json = serde::json::write_compact(&Summary::new().to_value());
        assert!(!json.contains("inf"), "sentinel leaked: {json}");
        assert!(json.contains("\"min\":0"), "{json}");
        let value = serde::json::parse(&json).unwrap();
        let mut back = Summary::from_value(&value).unwrap();
        assert_eq!(back, Summary::new());
        // The restored sentinels still merge correctly.
        back.merge(&[5.0].into_iter().collect());
        assert_eq!(back.min(), Some(5.0));
        assert_eq!(back.max(), Some(5.0));
    }

    #[test]
    fn populated_summary_roundtrips() {
        let s: Summary = [1.0, 2.0, 3.0].into_iter().collect();
        let json = serde::json::write_compact(&s.to_value());
        let back = Summary::from_value(&serde::json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn basic_moments() {
        let s: Summary = [1.0, 2.0, 3.0, 4.0, 5.0].into_iter().collect();
        assert_eq!(s.count(), 5);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.variance(), 2.0);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(5.0));
        assert_eq!(s.sum(), 15.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a: Summary = (0..500).map(|i| (i as f64).sin() * 10.0).collect();
        let b: Summary = (500..1000).map(|i| (i as f64).sin() * 10.0).collect();
        let all: Summary = (0..1000).map(|i| (i as f64).sin() * 10.0).collect();
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: Summary = [1.0, 2.0].into_iter().collect();
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);
        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn display_is_nonempty() {
        let s: Summary = [1.0].into_iter().collect();
        assert!(format!("{s}").contains("n=1"));
        let empty = format!("{}", Summary::new());
        assert!(empty.contains("min=- max=-"), "{empty}");
        assert!(!empty.contains("inf"), "{empty}");
    }
}
