//! Communication capacity models.

/// The per-round communication limits enforced by the simulator.
///
/// All limits are in *messages*; every message is assumed to be `O(log n)` bits (a
/// constant number of identifiers plus constant bookkeeping), which the protocols in
/// this workspace respect by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CapacityModel {
    /// No limits. Used by reference protocols (e.g. pointer jumping) to demonstrate
    /// what unbounded communication would cost.
    #[default]
    Unbounded,
    /// The NCC0 model: every node may send at most `per_round` messages and receive at
    /// most `per_round` messages per round. Excess received messages are dropped (a
    /// seeded arbitrary subset of size `per_round` is kept); excess sends are dropped at
    /// the sender and counted separately, since a correct NCC0 algorithm never attempts
    /// them.
    Ncc0 {
        /// Per-node, per-round send and receive budget, `Θ(log n)` in the paper.
        per_round: usize,
    },
    /// The hybrid model: CONGEST on the local edges (at most `local_per_edge` messages
    /// per local edge per direction per round) plus `global_per_round` global messages
    /// sent and received per node per round.
    Hybrid {
        /// Messages allowed per local edge per direction per round (1 in CONGEST).
        local_per_edge: usize,
        /// Per-node, per-round global send and receive budget (polylogarithmic).
        global_per_round: usize,
    },
}

impl CapacityModel {
    /// The standard hybrid capacity for a graph of `n` nodes: CONGEST local edges and
    /// `factor · ⌈log₂ n⌉³` global messages per round.
    pub fn hybrid_for(n: usize, factor: usize) -> Self {
        let l = log2_ceil(n).max(1);
        CapacityModel::Hybrid {
            local_per_edge: 1,
            global_per_round: factor * l * l * l,
        }
    }

    /// The send/receive cap applied to global (overlay) messages, if any.
    pub(crate) fn global_cap(&self) -> Option<usize> {
        match self {
            CapacityModel::Unbounded => None,
            CapacityModel::Ncc0 { per_round } => Some(*per_round),
            CapacityModel::Hybrid {
                global_per_round, ..
            } => Some(*global_per_round),
        }
    }

    /// The per-edge cap applied to local messages, if the model distinguishes them.
    pub(crate) fn local_edge_cap(&self) -> Option<usize> {
        match self {
            CapacityModel::Hybrid { local_per_edge, .. } => Some(*local_per_edge),
            _ => None,
        }
    }
}

/// `⌈log₂ n⌉` with `log2_ceil(0) == 0` and `log2_ceil(1) == 0`.
pub fn log2_ceil(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(0), 0);
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
    }

    #[test]
    fn ncc0_caps_global_traffic_only() {
        let c = CapacityModel::Ncc0 { per_round: 40 };
        assert_eq!(c.global_cap(), Some(40));
        assert_eq!(c.local_edge_cap(), None);
    }

    #[test]
    fn hybrid_cap_is_polylog() {
        let c = CapacityModel::hybrid_for(256, 2);
        assert_eq!(c.global_cap(), Some(2 * 8 * 8 * 8));
        assert_eq!(c.local_edge_cap(), Some(1));
    }

    #[test]
    fn unbounded_has_no_caps() {
        assert_eq!(CapacityModel::Unbounded.global_cap(), None);
        assert_eq!(CapacityModel::default(), CapacityModel::Unbounded);
    }

    #[test]
    fn tiny_graphs_get_positive_caps() {
        assert_eq!(CapacityModel::hybrid_for(1, 3).global_cap(), Some(3));
    }
}
