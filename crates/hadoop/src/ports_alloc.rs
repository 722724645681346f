//! Ephemeral port allocation for simulated connections.

use keddah_flowcap::{ports, NodeId};

/// Hands out ephemeral (client-side) ports per node, wrapping within the
/// OS ephemeral range. Each node has its own counter, as each real host
/// does, so concurrent connections from one node never collide.
///
/// Counters only count up, so a node's ports repeat only after its
/// counter passes `u16::MAX` and wraps. The capture relies on this: until
/// some counter wraps or reaches a port a server listens on, no two
/// connections share a tuple, and each is one flow (`net` module docs).
#[derive(Debug, Default)]
pub struct PortAllocator {
    /// Each node's next port, indexed by node id; grows to the highest
    /// node seen.
    next: Vec<u16>,
}

impl PortAllocator {
    /// Creates an allocator with all counters at the base of the
    /// ephemeral range.
    #[must_use]
    pub fn new() -> Self {
        PortAllocator::default()
    }

    /// Returns the next ephemeral port for `node`.
    pub fn next(&mut self, node: NodeId) -> u16 {
        let i = node.0 as usize;
        if self.next.len() <= i {
            self.next.resize(i + 1, ports::EPHEMERAL_BASE);
        }
        let slot = &mut self.next[i];
        let port = *slot;
        *slot = if *slot == u16::MAX {
            ports::EPHEMERAL_BASE
        } else {
            *slot + 1
        };
        port
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_are_per_node() {
        let mut alloc = PortAllocator::new();
        let a1 = alloc.next(NodeId(1));
        let b1 = alloc.next(NodeId(2));
        let a2 = alloc.next(NodeId(1));
        assert_eq!(a1, ports::EPHEMERAL_BASE);
        assert_eq!(b1, ports::EPHEMERAL_BASE);
        assert_eq!(a2, ports::EPHEMERAL_BASE + 1);
    }

    #[test]
    fn wraps_at_range_end() {
        let mut alloc = PortAllocator::new();
        // Force the counter near the end.
        for _ in 0..(u16::MAX - ports::EPHEMERAL_BASE) {
            alloc.next(NodeId(7));
        }
        assert_eq!(alloc.next(NodeId(7)), u16::MAX);
        assert_eq!(alloc.next(NodeId(7)), ports::EPHEMERAL_BASE);
    }
}
