//! Deterministic fault schedules for Keddah's simulators.
//!
//! Real Hadoop clusters lose DataNodes, NICs and switch uplinks, and the
//! traffic that failure recovery generates (NameNode-driven block
//! re-replication, shuffle re-fetches, task re-execution) is a
//! first-order part of the network behaviour Keddah models. This crate
//! provides the *schedule* half of that story: a serializable
//! [`FaultSpec`] listing timed [`FaultKind`] events in any order,
//! validated against a target cluster/topology. The simulators
//! (`keddah-netsim`, `keddah-hadoop`) queue its faults in stable time
//! order as discrete events in their `keddah_des::EventQueue` loops, so
//! equal-time faults apply in the order they were written.
//!
//! Schedules are either hand-written JSON or derived deterministically
//! from a seed via [`generate`] — the same `(profile, seed)` pair always
//! yields the same schedule, so faulted experiments stay reproducible
//! across machines and runner widths. The wire format is JSON only: the
//! offline build vendors no TOML parser, and every other Keddah artefact
//! (models, traces, comparisons) is already JSON.
//!
//! # Examples
//!
//! ```
//! use keddah_faults::{generate, FaultGen, FaultKind, FaultSpec, TimedFault};
//!
//! // Hand-written: one DataNode dies two seconds in, recovers at ten.
//! let spec = FaultSpec {
//!     faults: vec![
//!         TimedFault { at_nanos: 2_000_000_000, kind: FaultKind::NodeCrash { node: 3 } },
//!         TimedFault { at_nanos: 10_000_000_000, kind: FaultKind::NodeRecover { node: 3 } },
//!     ],
//! };
//! spec.validate(8, 0).unwrap();
//!
//! // Seed-derived: same seed, same schedule.
//! let gen = FaultGen { hosts: 8, node_crashes: 2, ..FaultGen::default() };
//! assert_eq!(generate(&gen, 7), generate(&gen, 7));
//! ```

use keddah_des::SimTime;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One kind of infrastructure fault.
///
/// Node indices refer to simulator hosts (`NodeId` in `keddah-hadoop`,
/// `HostId` in `keddah-netsim`); link indices refer to `LinkId` in the
/// replay topology. Which indices are meaningful depends on the layer a
/// schedule is applied to: the Hadoop capture side consumes node events
/// (crash/recover of workers), the network replay side consumes all
/// five.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FaultKind {
    /// A host drops off the network; its in-flight traffic is lost.
    NodeCrash {
        /// The crashed host.
        node: u32,
    },
    /// A previously crashed host rejoins with empty state.
    NodeRecover {
        /// The recovering host.
        node: u32,
    },
    /// A directed link fails permanently; flows crossing it re-route or
    /// abort.
    LinkDown {
        /// The failed link.
        link: u32,
    },
    /// A directed link's capacity is multiplied by `factor` (a flapping
    /// optic, a duplex fallback); `factor == 1.0` restores it.
    LinkDegraded {
        /// The degraded link.
        link: u32,
        /// Multiplier on the link's base capacity, in `(0, 1]`.
        factor: f64,
    },
    /// A reachability cut: hosts inside `cut` can no longer exchange
    /// traffic with hosts outside it. Permanent (no heal event).
    Partition {
        /// Host indices on one side of the cut.
        cut: Vec<u32>,
    },
}

impl FaultKind {
    /// Short human label, used in CLI summaries.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::NodeCrash { .. } => "node_crash",
            FaultKind::NodeRecover { .. } => "node_recover",
            FaultKind::LinkDown { .. } => "link_down",
            FaultKind::LinkDegraded { .. } => "link_degraded",
            FaultKind::Partition { .. } => "partition",
        }
    }

    /// The scenario class this fault belongs to. Recoveries classify
    /// with the crash they undo — a crash-plus-recover schedule is one
    /// `node_crash` scenario, not two.
    #[must_use]
    pub fn class(&self) -> FaultClass {
        match self {
            FaultKind::NodeCrash { .. } | FaultKind::NodeRecover { .. } => FaultClass::NodeCrash,
            FaultKind::LinkDown { .. } => FaultClass::LinkDown,
            FaultKind::LinkDegraded { .. } => FaultClass::LinkDegraded,
            FaultKind::Partition { .. } => FaultClass::Partition,
        }
    }
}

/// The coarse scenario label a diagnosis predicts: which family of
/// fault (if any) a degraded run suffered.
///
/// This is `FaultKind` with parameters erased, recoveries folded into
/// crashes, and an explicit [`FaultClass::None`] for the healthy case.
/// The derived `Ord` follows the declared order, which is the canonical
/// tie-break order for ranked verdicts — keep it stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FaultClass {
    /// No fault: the run was healthy.
    None,
    /// A host crashed (possibly recovering later).
    NodeCrash,
    /// A link failed permanently.
    LinkDown,
    /// A link ran below its base capacity.
    LinkDegraded,
    /// A reachability cut split the cluster.
    Partition,
}

impl FaultClass {
    /// Every class, in canonical (tie-break) order.
    pub const ALL: [FaultClass; 5] = [
        FaultClass::None,
        FaultClass::NodeCrash,
        FaultClass::LinkDown,
        FaultClass::LinkDegraded,
        FaultClass::Partition,
    ];

    /// Stable wire/CLI label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::None => "none",
            FaultClass::NodeCrash => "node_crash",
            FaultClass::LinkDown => "link_down",
            FaultClass::LinkDegraded => "link_degraded",
            FaultClass::Partition => "partition",
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A fault pinned to a simulation timestamp (nanoseconds, matching
/// `keddah_des::SimTime` resolution — integral nanos keep the JSON wire
/// format exact).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedFault {
    /// When the fault fires, in nanoseconds of simulation time.
    pub at_nanos: u64,
    /// What happens.
    pub kind: FaultKind,
}

impl TimedFault {
    /// The fault's firing time as a [`SimTime`].
    #[must_use]
    pub fn at(&self) -> SimTime {
        SimTime::from_nanos(self.at_nanos)
    }

    /// One-line description (`"node_crash node=2 @ 0.500000s"`), used by
    /// CLI summaries and trace event details. Derived purely from the
    /// fault itself, so traced runs stay deterministic.
    #[must_use]
    pub fn describe(&self) -> String {
        let what = match &self.kind {
            FaultKind::NodeCrash { node } | FaultKind::NodeRecover { node } => {
                format!("node={node}")
            }
            FaultKind::LinkDown { link } => format!("link={link}"),
            FaultKind::LinkDegraded { link, factor } => format!("link={link} factor={factor}"),
            FaultKind::Partition { cut } => format!("cut={cut:?}"),
        };
        format!(
            "{} {what} @ {:.6}s",
            self.kind.label(),
            self.at().as_secs_f64()
        )
    }
}

/// A serializable fault scenario: an unordered list of timed faults.
///
/// An empty spec is the explicit "no faults" scenario: every consumer
/// must treat it as arithmetically identical to not passing a spec at
/// all (the golden replay corpus pins this).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultSpec {
    /// The scenario's faults, in any order; faults at one nanosecond
    /// apply in the order listed here.
    pub faults: Vec<TimedFault>,
}

impl FaultSpec {
    /// The empty (fault-free) scenario.
    #[must_use]
    pub fn empty() -> FaultSpec {
        FaultSpec::default()
    }

    /// True when the scenario contains no faults.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Checks every fault against a target of `hosts` hosts and `links`
    /// directed links.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::Invalid`] naming the first out-of-range
    /// node/link index, non-finite or out-of-range degradation factor,
    /// or degenerate partition cut.
    pub fn validate(&self, hosts: u32, links: u32) -> Result<(), FaultError> {
        let invalid = |what: String| Err(FaultError::Invalid { what });
        for (i, fault) in self.faults.iter().enumerate() {
            match &fault.kind {
                FaultKind::NodeCrash { node } | FaultKind::NodeRecover { node } => {
                    if *node >= hosts {
                        return invalid(format!(
                            "fault {i}: node {node} out of range (hosts = {hosts})"
                        ));
                    }
                }
                FaultKind::LinkDown { link } => {
                    if *link >= links {
                        return invalid(format!(
                            "fault {i}: link {link} out of range (links = {links})"
                        ));
                    }
                }
                FaultKind::LinkDegraded { link, factor } => {
                    if *link >= links {
                        return invalid(format!(
                            "fault {i}: link {link} out of range (links = {links})"
                        ));
                    }
                    if !factor.is_finite() || *factor <= 0.0 || *factor > 1.0 {
                        return invalid(format!(
                            "fault {i}: degradation factor {factor} outside (0, 1]"
                        ));
                    }
                }
                FaultKind::Partition { cut } => {
                    if cut.is_empty() {
                        return invalid(format!("fault {i}: empty partition cut"));
                    }
                    if let Some(node) = cut.iter().find(|n| **n >= hosts) {
                        return invalid(format!(
                            "fault {i}: partition member {node} out of range (hosts = {hosts})"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Parses a spec from its JSON representation.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::Json`] on malformed input.
    pub fn from_json(input: &str) -> Result<FaultSpec, FaultError> {
        serde_json::from_str(input).map_err(|e| FaultError::Json(e.to_string()))
    }

    /// Serializes the spec as pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fault spec serializes")
    }

    /// Reads a spec from a JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::Io`] on read failure and
    /// [`FaultError::Json`] on malformed content.
    pub fn load(path: &str) -> Result<FaultSpec, FaultError> {
        let data = std::fs::read_to_string(path).map_err(FaultError::Io)?;
        FaultSpec::from_json(&data)
    }

    /// Writes the spec to a JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::Io`] on write failure.
    pub fn save(&self, path: &str) -> Result<(), FaultError> {
        std::fs::write(path, self.to_json()).map_err(FaultError::Io)
    }
}

/// Parameters for seed-derived schedule generation (see [`generate`]).
///
/// Counts of each fault kind are drawn uniformly over `[0, horizon)`.
/// Host 0 is conventionally the Hadoop master/NameNode, so generated
/// node faults target hosts `1..hosts` when more than one host exists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultGen {
    /// Hosts in the target cluster/topology.
    pub hosts: u32,
    /// Directed links in the target topology (0 disables link faults).
    pub links: u32,
    /// Schedule horizon in nanoseconds; all fault times fall below it.
    pub horizon_nanos: u64,
    /// Node crashes to schedule.
    pub node_crashes: u32,
    /// When set, every crash is followed by a recovery this many
    /// nanoseconds later.
    pub recover_after_nanos: Option<u64>,
    /// Permanent link failures to schedule.
    pub link_downs: u32,
    /// Link degradations to schedule (factor drawn from `[0.1, 0.9)`).
    pub link_degrades: u32,
    /// Partitions to schedule (cut = random non-empty proper host
    /// subset).
    pub partitions: u32,
}

impl Default for FaultGen {
    fn default() -> FaultGen {
        FaultGen {
            hosts: 0,
            links: 0,
            horizon_nanos: 60_000_000_000, // 60 s
            node_crashes: 0,
            recover_after_nanos: None,
            link_downs: 0,
            link_degrades: 0,
            partitions: 0,
        }
    }
}

/// Derives a fault schedule deterministically from `(gen, seed)`.
///
/// The draw order is fixed (crashes, then link downs, degradations,
/// partitions), so the same inputs always produce the same spec — the
/// property `keddah faults gen` and the determinism tests rely on.
/// Returned faults are sorted by time.
///
/// # Panics
///
/// Panics if a fault kind is requested for a target with no
/// corresponding elements (node faults with `hosts == 0`, link faults
/// with `links == 0`, partitions with `hosts < 2`).
#[must_use]
pub fn generate(gen: &FaultGen, seed: u64) -> FaultSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut faults = Vec::new();
    let horizon = gen.horizon_nanos.max(1);

    if gen.node_crashes > 0 {
        assert!(gen.hosts > 0, "node faults need at least one host");
        // Skip the conventional master (host 0) when workers exist.
        let first = u32::from(gen.hosts > 1);
        for _ in 0..gen.node_crashes {
            let node = rng.random_range(first..gen.hosts);
            let at_nanos = rng.random_range(0..horizon);
            faults.push(TimedFault {
                at_nanos,
                kind: FaultKind::NodeCrash { node },
            });
            if let Some(mttr) = gen.recover_after_nanos {
                faults.push(TimedFault {
                    at_nanos: at_nanos.saturating_add(mttr.max(1)),
                    kind: FaultKind::NodeRecover { node },
                });
            }
        }
    }
    if gen.link_downs > 0 {
        assert!(gen.links > 0, "link faults need at least one link");
        for _ in 0..gen.link_downs {
            faults.push(TimedFault {
                at_nanos: rng.random_range(0..horizon),
                kind: FaultKind::LinkDown {
                    link: rng.random_range(0..gen.links),
                },
            });
        }
    }
    if gen.link_degrades > 0 {
        assert!(gen.links > 0, "link faults need at least one link");
        for _ in 0..gen.link_degrades {
            faults.push(TimedFault {
                at_nanos: rng.random_range(0..horizon),
                kind: FaultKind::LinkDegraded {
                    link: rng.random_range(0..gen.links),
                    factor: rng.random_range(0.1..0.9),
                },
            });
        }
    }
    if gen.partitions > 0 {
        assert!(gen.hosts >= 2, "partitions need at least two hosts");
        for _ in 0..gen.partitions {
            let mut hosts: Vec<u32> = (0..gen.hosts).collect();
            hosts.shuffle(&mut rng);
            let cut_size = rng.random_range(1..gen.hosts) as usize;
            let mut cut: Vec<u32> = hosts[..cut_size].to_vec();
            cut.sort_unstable();
            faults.push(TimedFault {
                at_nanos: rng.random_range(0..horizon),
                kind: FaultKind::Partition { cut },
            });
        }
    }

    faults.sort_by_key(|f| f.at_nanos);
    FaultSpec { faults }
}

/// Errors produced when loading or validating fault schedules.
#[derive(Debug)]
pub enum FaultError {
    /// The spec file could not be read or written.
    Io(std::io::Error),
    /// The spec JSON was malformed.
    Json(String),
    /// A fault referenced an element outside the target cluster or used
    /// an out-of-range parameter.
    Invalid {
        /// Human-readable description of the offending fault.
        what: String,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::Io(e) => write!(f, "fault spec I/O error: {e}"),
            FaultError::Json(msg) => write!(f, "fault spec parse error: {msg}"),
            FaultError::Invalid { what } => write!(f, "invalid fault spec: {what}"),
        }
    }
}

impl std::error::Error for FaultError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FaultError::Io(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash(at_nanos: u64, node: u32) -> TimedFault {
        TimedFault {
            at_nanos,
            kind: FaultKind::NodeCrash { node },
        }
    }

    #[test]
    fn json_round_trip_preserves_every_kind() {
        let spec = FaultSpec {
            faults: vec![
                crash(5, 2),
                TimedFault {
                    at_nanos: 7,
                    kind: FaultKind::NodeRecover { node: 2 },
                },
                TimedFault {
                    at_nanos: 9,
                    kind: FaultKind::LinkDown { link: 4 },
                },
                TimedFault {
                    at_nanos: 11,
                    kind: FaultKind::LinkDegraded {
                        link: 1,
                        factor: 0.25,
                    },
                },
                TimedFault {
                    at_nanos: 13,
                    kind: FaultKind::Partition { cut: vec![1, 3] },
                },
            ],
        };
        let json = spec.to_json();
        assert_eq!(FaultSpec::from_json(&json).unwrap(), spec);
    }

    #[test]
    fn validate_rejects_out_of_range_and_degenerate_faults() {
        let bad_node = FaultSpec {
            faults: vec![crash(0, 9)],
        };
        assert!(bad_node.validate(9, 0).is_err());
        assert!(bad_node.validate(10, 0).is_ok());

        let bad_factor = FaultSpec {
            faults: vec![TimedFault {
                at_nanos: 0,
                kind: FaultKind::LinkDegraded {
                    link: 0,
                    factor: 0.0,
                },
            }],
        };
        assert!(bad_factor.validate(4, 2).is_err());

        let empty_cut = FaultSpec {
            faults: vec![TimedFault {
                at_nanos: 0,
                kind: FaultKind::Partition { cut: vec![] },
            }],
        };
        assert!(empty_cut.validate(4, 2).is_err());
    }

    #[test]
    fn generation_is_deterministic_and_valid() {
        let gen = FaultGen {
            hosts: 9,
            links: 24,
            node_crashes: 2,
            recover_after_nanos: Some(5_000_000_000),
            link_downs: 1,
            link_degrades: 1,
            partitions: 1,
            ..FaultGen::default()
        };
        let a = generate(&gen, 42);
        let b = generate(&gen, 42);
        assert_eq!(a, b);
        assert_ne!(a, generate(&gen, 43));
        a.validate(9, 24).unwrap();
        // crashes + recoveries + link down + degrade + partition
        assert_eq!(a.faults.len(), 2 + 2 + 1 + 1 + 1);
        // Generated node faults avoid the conventional master.
        for f in &a.faults {
            if let FaultKind::NodeCrash { node } | FaultKind::NodeRecover { node } = f.kind {
                assert!(node >= 1);
            }
        }
    }

    #[test]
    fn classes_order_canonically() {
        let mut sorted = FaultClass::ALL;
        sorted.sort();
        assert_eq!(sorted, FaultClass::ALL, "ALL is the canonical order");
        // Recoveries classify with the crash they undo.
        assert_eq!(
            FaultKind::NodeRecover { node: 1 }.class(),
            FaultClass::NodeCrash
        );
    }

    #[test]
    fn empty_spec_round_trips() {
        let spec = FaultSpec::empty();
        assert!(spec.is_empty());
        assert_eq!(FaultSpec::from_json(&spec.to_json()).unwrap(), spec);
    }
}
