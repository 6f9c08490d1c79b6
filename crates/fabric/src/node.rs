//! The passive far-memory node: node identity and registered capacity.
//!
//! The paper's memory node is a daemon that registers a HugeTLB-backed
//! region with its RDMA NIC and then stays passive — all data movement is
//! one-sided (§5.2, "Memory node"). Pages are metadata in this
//! reproduction (DESIGN.md §4.5), so the node tracks registered bytes
//! against its capacity only; byte movement is charged at the NIC.

use std::cell::Cell;
use std::fmt;

/// Identity of one simulated memory node behind a link. The single-node
/// fabric is node 0; replicated configurations address mirrors on nodes
/// 1, 2, … via [`crate::Nic::post_read_to`] / [`crate::Nic::post_write_to`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The default (primary) node of a single-node fabric.
    pub const PRIMARY: NodeId = NodeId(0);

    /// Index into per-node tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// The far-memory node daemon's bookkeeping: how many of its exported
/// bytes are registered.
pub struct MemoryNode {
    capacity: u64,
    registered: Cell<u64>,
}

impl MemoryNode {
    /// Creates a node exporting `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        MemoryNode {
            capacity,
            registered: Cell::new(0),
        }
    }

    /// Registers `len` more bytes, or returns `false` and registers
    /// nothing if that would pass the node's capacity. Mirrors the
    /// setup-request handling of the MAGE-Lib memory-node daemon.
    pub fn register(&self, len: u64) -> bool {
        match self.registered.get().checked_add(len) {
            Some(total) if total <= self.capacity => {
                self.registered.set(total);
                true
            }
            _ => false,
        }
    }

    /// Bytes currently registered.
    pub fn registered(&self) -> u64 {
        self.registered.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_within_capacity() {
        let node = MemoryNode::new(1 << 20);
        assert!(node.register(4096));
        assert!(node.register(8192));
        assert_eq!(node.registered(), 12_288);
    }

    #[test]
    fn register_beyond_capacity_fails() {
        let node = MemoryNode::new(10_000);
        assert!(node.register(8_000));
        assert!(!node.register(8_000));
        assert_eq!(node.registered(), 8_000, "a refusal registers nothing");
        // A smaller request still fits.
        assert!(node.register(2_000));
    }
}
