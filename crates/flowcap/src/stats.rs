//! Per-component traffic timelines over labelled flow traces.

use std::collections::BTreeMap;

use keddah_des::{Duration, SimTime};
use serde::{Deserialize, Serialize};

use crate::classify::Component;
use crate::flow::FlowRecord;

/// One bin of a traffic timeline: bytes transferred per component during
/// `[start, start + width)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineBin {
    /// Bin start time.
    pub start: SimTime,
    /// Bytes per component active in this bin.
    pub bytes: BTreeMap<Component, u64>,
}

/// A binned per-component traffic timeline — the data behind the paper's
/// "anatomy of a job" figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// Width of each bin.
    pub bin_width: Duration,
    /// The bins, in time order, covering the full trace span.
    pub bins: Vec<TimelineBin>,
}

impl Timeline {
    /// Builds a timeline by spreading each flow's bytes uniformly over its
    /// lifetime (instantaneous flows contribute wholly to their start
    /// bin).
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is zero.
    #[must_use]
    pub fn build(flows: &[FlowRecord], bin_width: Duration) -> Timeline {
        assert!(!bin_width.is_zero(), "bin width must be positive");
        if flows.is_empty() {
            return Timeline {
                bin_width,
                bins: Vec::new(),
            };
        }
        let t0 = flows.iter().map(|f| f.start).min().expect("non-empty");
        let t1 = flows.iter().map(|f| f.end).max().expect("non-empty");
        let width_ns = bin_width.as_nanos();
        let span = t1.saturating_since(t0).as_nanos();
        let nbins = (span / width_ns + 1) as usize;
        let mut bins: Vec<TimelineBin> = (0..nbins)
            .map(|i| TimelineBin {
                start: SimTime::from_nanos(t0.as_nanos() + i as u64 * width_ns),
                bytes: BTreeMap::new(),
            })
            .collect();
        for f in flows {
            let c = f.component.unwrap_or(Component::Other);
            let first = ((f.start.saturating_since(t0)).as_nanos() / width_ns) as usize;
            let last = ((f.end.saturating_since(t0)).as_nanos() / width_ns) as usize;
            let total = f.total_bytes();
            let nb = (last - first + 1) as u64;
            let per_bin = total / nb;
            let remainder = total % nb;
            for (k, bin) in bins[first..=last].iter_mut().enumerate() {
                let mut share = per_bin;
                if (k as u64) < remainder {
                    share += 1;
                }
                *bin.bytes.entry(c).or_insert(0) += share;
            }
        }
        Timeline { bin_width, bins }
    }

    /// Total bytes across all bins and components.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bins.iter().flat_map(|b| b.bytes.values()).sum()
    }

    /// The byte series for one component, one value per bin.
    #[must_use]
    pub fn series(&self, component: Component) -> Vec<u64> {
        self.bins
            .iter()
            .map(|b| b.bytes.get(&component).copied().unwrap_or(0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FiveTuple;
    use crate::packet::NodeId;

    fn flow(start_s: u64, end_s: u64, bytes: u64, c: Component) -> FlowRecord {
        FlowRecord {
            tuple: FiveTuple {
                src: NodeId(0),
                src_port: 1,
                dst: NodeId(1),
                dst_port: 2,
            },
            start: SimTime::from_secs(start_s),
            end: SimTime::from_secs(end_s),
            fwd_bytes: bytes,
            rev_bytes: 0,
            packets: 1,
            component: Some(c),
        }
    }

    #[test]
    fn empty_flows_empty_stats() {
        let tl = Timeline::build(&[], Duration::from_secs(1));
        assert!(tl.bins.is_empty());
        assert_eq!(tl.total_bytes(), 0);
    }

    #[test]
    fn timeline_conserves_bytes() {
        let flows = vec![
            flow(0, 10, 1000, Component::HdfsRead),
            flow(3, 4, 777, Component::Shuffle),
            flow(9, 9, 13, Component::Control), // instantaneous
        ];
        let tl = Timeline::build(&flows, Duration::from_secs(1));
        assert_eq!(tl.total_bytes(), 1790);
        // 11 one-second bins cover [0, 10].
        assert_eq!(tl.bins.len(), 11);
        // The instantaneous flow lands entirely in its start bin.
        assert_eq!(tl.series(Component::Control)[9], 13);
    }

    #[test]
    fn timeline_spreads_long_flows() {
        let flows = vec![flow(0, 9, 1000, Component::HdfsWrite)];
        let tl = Timeline::build(&flows, Duration::from_secs(1));
        let series = tl.series(Component::HdfsWrite);
        assert_eq!(series.len(), 10);
        assert!(series.iter().all(|&b| b == 100));
    }
}
