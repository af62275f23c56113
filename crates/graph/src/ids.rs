//! Node identifiers.

use std::fmt;

/// An opaque node identifier, 32 bits wide.
///
/// The paper gives every node an `O(log n)`-bit identifier, and every medium here caps
/// `n` at 2³²: the simulator admits at most `u32::MAX` nodes and socket frames carry
/// node ids in four bytes. So the width is decided here, once, and no caller narrows by
/// hand. On the wire an id is the same four bytes (`Wire for NodeId`), as in frame headers.
/// Nodes of an `n`-node graph are `0..n`, which is also their index into the simulator's
/// node table, but nothing in the public API relies on identifiers being dense.
///
/// # Example
///
/// ```
/// use overlay_graph::NodeId;
/// let v = NodeId::new(7);
/// assert_eq!(v.index(), 7);
/// assert_eq!(format!("{v}"), "n7");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates an identifier from its raw value.
    pub const fn new(raw: u32) -> Self {
        NodeId(raw)
    }

    /// Returns the raw value of the identifier.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the identifier as a `usize` index (a widening: every target this
    /// workspace builds for has at least 32-bit pointers).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for NodeId {
    /// # Panics
    ///
    /// Panics above `u32::MAX` instead of truncating to another node's id.
    fn from(value: usize) -> Self {
        NodeId(u32::try_from(value).expect("NodeId::from: node index exceeds u32::MAX"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn roundtrip_usize() {
        for i in [0usize, 1, 17, 4096, u32::MAX as usize] {
            let id = NodeId::from(i);
            assert_eq!(id.index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "NodeId::from: node index exceeds u32::MAX")]
    fn an_index_past_32_bits_panics_instead_of_truncating() {
        let _ = NodeId::from(u32::MAX as usize + 1);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(NodeId::new(3) < NodeId::new(4));
        assert_eq!(NodeId::new(9), NodeId::new(9));
    }

    #[test]
    fn hashable_and_distinct() {
        let set: HashSet<NodeId> = (0..100).map(NodeId::from).collect();
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", NodeId::new(5)), "n5");
        assert_eq!(format!("{:?}", NodeId::new(5)), "n5");
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(NodeId::default(), NodeId::new(0));
    }
}
