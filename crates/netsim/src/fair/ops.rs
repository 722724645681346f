//! The op scripts the fair-share proptests share:
//! `incremental_fair_share_matches_full` in `tests/properties.rs`, which
//! includes this file by path, and `recorded_mutations_settle_exactly`
//! in `fair.rs`.

use proptest::prelude::*;

/// Link capacities: 1 to 11 links of 1 b/s to 1 Gb/s.
pub fn caps() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(1.0f64..1e9, 1..12)
}

/// Up to 399 `(action, links, pick)` ops. `action` is in `0..4`,
/// `links` holds up to three link indices in `0..12` (reduced modulo
/// the link count; empty is a host-local flow) and `pick` in `0..8`
/// chooses a live entry or a parameter.
pub fn ops() -> impl Strategy<Value = Vec<(u32, Vec<u32>, usize)>> {
    prop::collection::vec(
        (0u32..4, prop::collection::vec(0u32..12, 0..4), 0usize..8),
        1..400,
    )
}
