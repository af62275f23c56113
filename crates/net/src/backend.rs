//! The [`Backend`] seam: how a rank's frames leave it and how rounds
//! synchronize.
//!
//! A backend owns a contiguous block of the run's `n` nodes — one *rank* —
//! and gives the [`crate::NetRunner`] stepping that block four things:
//!
//! * [`Backend::send`] — the way out for a [`crate::FrameKind::Data`] frame
//!   addressed to a node another rank owns (messages between owned nodes
//!   never become frames: the simulator the runner steps routes them);
//! * [`Backend::exchange_done`] — the α-synchronizer barrier, and the body of
//!   the runner's `Medium`: it returns only after every rank has finished the
//!   round, hands over every data frame the other ranks sent this rank in
//!   that round, and reports whether *all* nodes everywhere are done;
//! * [`Backend::exchange_summaries`] — the phase-boundary all-gather of
//!   per-node digests from which every rank derives the next phase's
//!   hand-off locally and identically;
//! * [`Backend::shutdown`] — the quiescence barrier.
//!
//! The trait is the seam a test substitutes a scripted fake at (see the
//! runner's tests). [`ChannelBackend`] is the rank that owns everything: no
//! message becomes a frame, all three barriers are trivial, and it is the one
//! rank that can run a fault plan. The TCP implementation lives in
//! [`crate::tcp`].

use crate::frame::Frame;
use crate::NetError;
use std::ops::Range;

/// `(node index, encoded summary)` pairs — the currency of the gather plane.
pub type SummaryEntries = Vec<(u32, Vec<u8>)>;

/// A medium that can run the synchronous protocol rounds; see the module
/// docs.
pub trait Backend {
    /// Total node count of the run.
    fn n(&self) -> usize;

    /// The contiguous node range this rank owns (the whole of `0..n` for
    /// single-process backends).
    fn owned(&self) -> Range<usize>;

    /// Sends one data frame toward the rank that owns [`Frame::to`]. The
    /// runner calls this only for destinations inside `0..n` and outside
    /// [`Backend::owned`].
    fn send(&mut self, frame: Frame) -> Result<(), NetError>;

    /// The α-synchronizer barrier after `round`: blocks until every rank has
    /// finished it, appends to `inbound` exactly the data frames other ranks
    /// sent this rank in (`phase`, `round`), and reports whether all nodes
    /// everywhere are done.
    fn exchange_done(
        &mut self,
        phase: u8,
        round: u32,
        local_done: bool,
        inbound: &mut Vec<Frame>,
    ) -> Result<bool, NetError>;

    /// All-gathers phase-end digests: `local` holds `(node index, encoded
    /// summary)` for every owned node and `delivered` this rank's
    /// delivered-message count; the result covers all `n` nodes and the
    /// run-wide delivered total.
    fn exchange_summaries(
        &mut self,
        phase: u8,
        local: SummaryEntries,
        delivered: u64,
    ) -> Result<(SummaryEntries, u64), NetError>;

    /// Quiescence handshake: announces this rank will send nothing further
    /// and releases the medium's resources.
    fn shutdown(&mut self) -> Result<(), NetError>;
}

/// The node range process `rank` owns out of `n` nodes split across `procs`
/// processes: the standard contiguous block partition.
pub(crate) fn partition(n: usize, procs: usize, rank: usize) -> Range<usize> {
    (rank * n / procs)..((rank + 1) * n / procs)
}

/// The rank whose [`partition`] contains `node`.
pub(crate) fn rank_of(n: usize, procs: usize, node: usize) -> usize {
    // Inverse of `partition`'s floor arithmetic, found by the direct scan's
    // closed form: candidate ranks differ by at most one from the even split.
    let mut rank = (node * procs) / n;
    while !partition(n, procs, rank).contains(&node) {
        rank += 1;
    }
    rank
}

/// Single-process backend: the one rank that owns all `n` nodes, so no
/// message ever becomes a frame.
pub struct ChannelBackend {
    n: usize,
}

impl ChannelBackend {
    /// A backend owning all `n` nodes of the run.
    pub fn new(n: usize) -> ChannelBackend {
        ChannelBackend { n }
    }
}

impl Backend for ChannelBackend {
    fn n(&self) -> usize {
        self.n
    }

    fn owned(&self) -> Range<usize> {
        0..self.n
    }

    fn send(&mut self, frame: Frame) -> Result<(), NetError> {
        Err(NetError::Protocol(format!(
            "frame for node {} cannot leave the rank that owns every node",
            frame.to
        )))
    }

    fn exchange_done(
        &mut self,
        _phase: u8,
        _round: u32,
        local_done: bool,
        _inbound: &mut Vec<Frame>,
    ) -> Result<bool, NetError> {
        Ok(local_done)
    }

    fn exchange_summaries(
        &mut self,
        _phase: u8,
        local: SummaryEntries,
        delivered: u64,
    ) -> Result<(SummaryEntries, u64), NetError> {
        Ok((local, delivered))
    }

    fn shutdown(&mut self) -> Result<(), NetError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_all_nodes_exactly_once() {
        for (n, procs) in [(64, 4), (65, 4), (7, 3), (1, 1), (128, 5)] {
            let mut covered = vec![0usize; n];
            for rank in 0..procs {
                for v in partition(n, procs, rank) {
                    covered[v] += 1;
                    assert_eq!(rank_of(n, procs, v), rank);
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "n={n} procs={procs}");
        }
    }
}
