//! [`NetRunner`]: the [`PhaseExecutor`] that drives protocol nodes over a
//! [`Backend`], one stepping loop per rank.
//!
//! The runner replicates the lockstep simulator's observable semantics
//! exactly — that is the whole point of the seam, and the cross-backend
//! equivalence tests pin it:
//!
//! * **Round structure.** Round 0 runs `on_start`; round `r ≥ 1` runs
//!   `on_round` with the messages sent in round `r - 1`. Execution stops when
//!   every node (on every rank) is done or the budget is exhausted; messages
//!   sent in the final executed round are discarded, as the simulator
//!   discards them.
//! * **Delivery order.** Each inbox is sorted by `(sender id, send order)`,
//!   matching the simulator's stable sender grouping.
//! * **Send caps.** The per-sender NCC0 global cap admits the first `cap`
//!   global sends of a round in send order; messages to addresses outside
//!   `0..n` are dropped without consuming cap budget. (Receive caps are not
//!   mirrored: on clean runs they never bind, and the net runner is
//!   clean-path only — a phase whose fault plan is not clean is refused
//!   with [`NetError::FaultsUnsupported`].)
//! * **Randomness.** Node `i` draws from `node_rng(seed, i)` — the simulator's
//!   exact per-node stream — so random choices match decision for decision.
//!
//! A rank steps its owned nodes in index order, the way the simulator steps a
//! chunk. Every message becomes a [`Frame`] and is decoded on delivery, so
//! there is one delivery path and the codec is exercised whether or not a
//! socket is involved; frames for owned nodes are filed straight into next
//! round's inboxes and only cross-rank frames go through [`Backend::send`].
//! The α-synchronizer is the one [`Backend::exchange_done`] call that ends
//! each round: when it returns, every frame other ranks sent this one in the
//! round has been handed over.

use crate::backend::Backend;
use crate::frame::Frame;
use crate::NetError;
use overlay_core::{ExecutedPhase, Phase, PhaseExecSpec, PhaseExecutor, Summarize};
use overlay_graph::NodeId;
use overlay_netsim::wire::Wire;
use overlay_netsim::{node_rng, CapacityModel, Channel, Ctx, Envelope};
use overlay_transport::Reliable;

/// Drives [`overlay_core::OverlayBuilder::build_over`] across a [`Backend`].
pub struct NetRunner<B: Backend> {
    backend: B,
}

impl<B: Backend> NetRunner<B> {
    /// Wraps a connected backend.
    pub fn new(backend: B) -> NetRunner<B> {
        NetRunner { backend }
    }

    /// Releases the backend (sends the quiescence handshake on sockets).
    pub fn shutdown(mut self) -> Result<(), NetError> {
        self.backend.shutdown()
    }

    /// The underlying backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }
}

impl<B: Backend> PhaseExecutor for NetRunner<B> {
    type Error = NetError;

    fn execute<P: Summarize + Send>(
        &mut self,
        phase: Phase<P>,
        spec: PhaseExecSpec,
    ) -> Result<ExecutedPhase<P::Summary>, Self::Error>
    where
        P::Message: Wire + Send,
    {
        let (id, nodes, _clean_rounds, faults) = phase.into_parts();
        // Refused before any frame moves, so every rank of a multi-process
        // run — each handed the same phase — fails the same way.
        if !faults.is_clean() {
            return Err(NetError::FaultsUnsupported { phase: id.name() });
        }
        let tag = id.index() as u8;
        match spec.transport {
            None => run_phase_net(&mut self.backend, tag, nodes, spec),
            Some(cfg) => {
                let wrapped = nodes.into_iter().map(|p| Reliable::new(p, cfg)).collect();
                run_phase_net(&mut self.backend, tag, wrapped, spec)
            }
        }
    }
}

/// Runs one phase of `Q` nodes (bare, or behind the reliable transport) over
/// the backend and gathers every node's summary.
fn run_phase_net<B, Q>(
    backend: &mut B,
    phase: u8,
    nodes: Vec<Q>,
    spec: PhaseExecSpec,
) -> Result<ExecutedPhase<Q::Summary>, NetError>
where
    B: Backend,
    Q: Summarize,
    Q::Message: Wire,
{
    let n = backend.n();
    if nodes.len() != n {
        return Err(NetError::Protocol(format!(
            "phase has {} nodes but the backend was set up for {n}",
            nodes.len()
        )));
    }
    let owned = backend.owned();
    let base = owned.start;
    let cap = CapacityModel::Ncc0 {
        per_round: spec.ncc0_cap,
    }
    .global_cap();
    // Only the owned slice runs here; peers run theirs and the phase-end
    // summary exchange reassembles the full picture.
    let mut nodes: Vec<Q> = nodes.into_iter().skip(base).take(owned.len()).collect();
    let mut rngs: Vec<_> = owned.clone().map(|i| node_rng(spec.seed, i)).collect();
    // Frames by owned destination: `due[k]` is what node `base + k` receives
    // this round, `next[k]` what it will receive in the next one.
    let mut due: Vec<Vec<Frame>> = vec![Vec::new(); nodes.len()];
    let mut next = due.clone();
    let mut inbox = Vec::new();
    let mut outbox = Vec::new();
    let mut inbound = Vec::new();
    let mut delivered = 0u64;

    // The stop rule is the simulator's: run round r + 1 iff not everyone was
    // done after round r and the budget allows it. What the final round sent
    // sits in `next` and is dropped with it.
    let mut round = 0u32;
    let all_done = loop {
        let mut local_done = true;
        for (k, (node, rng)) in nodes.iter_mut().zip(&mut rngs).enumerate() {
            let frames = &mut due[k];
            frames.sort_unstable_by_key(|f| (f.from, f.seq));
            for frame in frames.drain(..) {
                let mut body = frame.body.as_slice();
                inbox.push(Envelope {
                    from: NodeId::new(frame.from),
                    channel: Channel::decode(&mut body)?,
                    payload: Q::Message::decode(&mut body)?,
                });
            }
            delivered += inbox.len() as u64;
            let me = NodeId::from(base + k);
            let mut ctx = Ctx::external(me, round as usize, n, rng, &mut outbox);
            if round == 0 {
                node.on_start(&mut ctx);
            } else {
                node.on_round(&mut ctx, &inbox);
            }
            inbox.clear();
            local_done &= node.is_done();

            // The simulator's dispatch rules: invalid addresses are dropped
            // without consuming cap budget; the per-sender global cap admits
            // the first `cap` global sends in send order; local-channel sends
            // pass (no local capacity model is configured in NCC0 runs,
            // matching `SimConfig::ncc0_capped`).
            let mut global_sent = 0usize;
            let mut seq = 0u32;
            for (to, channel, payload) in outbox.drain(..) {
                if to.index() >= n {
                    continue;
                }
                if channel == Channel::Global {
                    if matches!(cap, Some(c) if global_sent >= c) {
                        continue;
                    }
                    global_sent += 1;
                }
                let mut body = Vec::new();
                channel.encode(&mut body);
                payload.encode(&mut body);
                let frame = Frame::data(phase, round, me.raw(), to.raw(), seq, body);
                seq += 1;
                match next.get_mut(to.index().wrapping_sub(base)) {
                    Some(slot) => slot.push(frame),
                    None => backend.send(frame)?,
                }
            }
        }
        let all_done = backend.exchange_done(phase, round, local_done, &mut inbound)?;
        for frame in inbound.drain(..) {
            if frame.from as usize >= n {
                return Err(NetError::Protocol(format!(
                    "frame from node {} outside the {n}-node network",
                    frame.from
                )));
            }
            let to = frame.to;
            next.get_mut((to as usize).wrapping_sub(base))
                .ok_or_else(|| {
                    NetError::Protocol(format!("frame for node {to} which this rank does not own"))
                })?
                .push(frame);
        }
        if all_done || round as usize >= spec.budget {
            break all_done;
        }
        std::mem::swap(&mut due, &mut next);
        round += 1;
    };

    // Phase-end all-gather: encode the owned digests, collect everyone's.
    let local = nodes
        .iter()
        .zip(owned)
        .map(|(node, i)| {
            let mut bytes = Vec::new();
            node.summarize().encode(&mut bytes);
            (NodeId::from(i).raw(), bytes)
        })
        .collect();
    let (gathered, delivered) = backend.exchange_summaries(phase, local, delivered)?;
    let mut summaries: Vec<Option<Q::Summary>> = vec![None; n];
    for (node, bytes) in gathered {
        let mut slice = bytes.as_slice();
        let summary = Q::Summary::decode(&mut slice).map_err(NetError::Codec)?;
        let slot = summaries
            .get_mut(node as usize)
            .ok_or_else(|| NetError::Protocol(format!("summary for unknown node {node}")))?;
        if slot.replace(summary).is_some() {
            return Err(NetError::Protocol(format!(
                "duplicate summary for node {node}"
            )));
        }
    }
    let summaries: Vec<Q::Summary> = summaries
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.ok_or_else(|| NetError::Protocol(format!("no summary for node {i}"))))
        .collect::<Result<_, _>>()?;

    Ok(ExecutedPhase {
        summaries,
        alive: vec![true; n],
        rounds: round as usize,
        all_done,
        delivered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SummaryEntries;
    use crate::ChannelBackend;
    use overlay_core::{BfsSummary, SimExecutor};
    use overlay_netsim::{FaultPlan, Protocol};
    use std::ops::Range;

    #[test]
    fn a_phase_with_a_fault_plan_is_refused_not_run_clean() {
        // A path rooted at node 0, ready for binarization.
        let n = 12;
        let bfs: Vec<BfsSummary> = (0..n)
            .map(|i| BfsSummary {
                id: NodeId::from(i),
                root: NodeId::from(0usize),
                parent: NodeId::from(i.saturating_sub(1)),
                children: (i + 1..n).take(1).map(NodeId::from).collect(),
            })
            .collect();
        let spec = PhaseExecSpec {
            seed: 5,
            ncc0_cap: 64,
            budget: 4,
            transport: None,
        };
        let mut runner = NetRunner::new(ChannelBackend::new(n));
        let lossy = FaultPlan::default().with_drop_prob(0.05);
        assert!(matches!(
            runner.execute(Phase::binarize(&bfs, lossy), spec),
            Err(NetError::FaultsUnsupported { phase: "binarize" })
        ));
        // The refusal touched no frame: the same runner still reproduces the
        // simulator on the clean phase.
        let clean = || Phase::binarize(&bfs, FaultPlan::default());
        let model = SimExecutor::default()
            .execute(clean(), spec)
            .expect("the simulator cannot fail");
        let subject = runner.execute(clean(), spec).expect("the clean phase runs");
        assert_eq!(subject.summaries, model.summaries);
        assert_eq!(subject.rounds, model.rounds);
        assert_eq!(subject.delivered, model.delivered);
        assert!(subject.all_done);
    }

    /// Rank `4..6` of a 12-node run whose peers are a script: round 0's
    /// barrier hands over `inbound`, and the gather fills in an empty digest
    /// for every node the rank does not own.
    struct Scripted {
        inbound: Vec<Frame>,
        sent: Vec<Frame>,
    }

    impl Backend for Scripted {
        fn n(&self) -> usize {
            12
        }

        fn owned(&self) -> Range<usize> {
            4..6
        }

        fn send(&mut self, frame: Frame) -> Result<(), NetError> {
            self.sent.push(frame);
            Ok(())
        }

        fn exchange_done(
            &mut self,
            _phase: u8,
            _round: u32,
            local_done: bool,
            inbound: &mut Vec<Frame>,
        ) -> Result<bool, NetError> {
            inbound.append(&mut self.inbound);
            Ok(local_done)
        }

        fn exchange_summaries(
            &mut self,
            _phase: u8,
            mut local: SummaryEntries,
            delivered: u64,
        ) -> Result<(SummaryEntries, u64), NetError> {
            let mut empty = Vec::new();
            Vec::<u32>::new().encode(&mut empty);
            local.extend(
                (0..12)
                    .filter(|i| !(4..6).contains(i))
                    .map(|i| (i, empty.clone())),
            );
            Ok((local, delivered))
        }

        fn shutdown(&mut self) -> Result<(), NetError> {
            Ok(())
        }
    }

    /// Sends its own id to nodes 5 (owned) and 0 (not) at the start, records
    /// the one inbox it sees as `[from, payload, from, payload, …]`.
    #[derive(Default)]
    struct Recorder {
        seen: Option<Vec<u32>>,
    }

    impl Protocol for Recorder {
        type Message = u32;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            let me = ctx.me().raw();
            ctx.send_global(NodeId::from(5usize), me);
            ctx.send_global(NodeId::from(0usize), me);
        }

        fn on_round(&mut self, _ctx: &mut Ctx<'_, u32>, inbox: &[Envelope<u32>]) {
            let flat = inbox.iter().flat_map(|e| [e.from.raw(), e.payload]);
            self.seen = Some(flat.collect());
        }

        fn is_done(&self) -> bool {
            self.seen.is_some()
        }
    }

    impl Summarize for Recorder {
        type Summary = Vec<u32>;

        fn summarize(&self) -> Vec<u32> {
            self.seen.clone().unwrap_or_default()
        }
    }

    fn body(payload: u32) -> Vec<u8> {
        let mut bytes = Vec::new();
        Channel::Global.encode(&mut bytes);
        payload.encode(&mut bytes);
        bytes
    }

    /// One `Recorder` phase on the scripted rank; also returns what the rank
    /// handed to [`Backend::send`].
    fn run_scripted(
        inbound: Vec<Frame>,
    ) -> (Result<ExecutedPhase<Vec<u32>>, NetError>, Vec<Frame>) {
        let mut backend = Scripted {
            inbound,
            sent: Vec::new(),
        };
        let nodes = (0..12).map(|_| Recorder::default()).collect();
        let spec = PhaseExecSpec {
            seed: 1,
            ncc0_cap: 64,
            budget: 4,
            transport: None,
        };
        let run = run_phase_net(&mut backend, 3, nodes, spec);
        (run, backend.sent)
    }

    #[test]
    fn inbound_and_owned_frames_share_one_inbox_sorted_by_sender_then_send_order() {
        let inbound = vec![
            Frame::data(3, 0, 9, 5, 1, body(91)),
            Frame::data(3, 0, 9, 5, 0, body(90)),
            Frame::data(3, 0, 2, 5, 0, body(20)),
        ];
        let (run, sent) = run_scripted(inbound);
        let run = run.expect("the scripted phase runs");
        assert_eq!(run.summaries[5], [2, 20, 4, 4, 5, 5, 9, 90, 9, 91]);
        assert_eq!(run.summaries[4], Vec::<u32>::new(), "nobody wrote to 4");
        assert_eq!((run.rounds, run.all_done, run.delivered), (1, true, 5));
        // Only the frames for node 0 left the rank, in stepping order.
        let left: Vec<_> = sent.iter().map(|f| (f.from, f.to, f.seq)).collect();
        assert_eq!(left, [(4, 0, 1), (5, 0, 1)]);
    }

    #[test]
    fn an_undecodable_inbound_body_is_a_codec_error_not_a_skipped_message() {
        let mut truncated = body(90);
        truncated.pop();
        let (run, _) = run_scripted(vec![Frame::data(3, 0, 9, 5, 0, truncated)]);
        assert!(matches!(run, Err(NetError::Codec(_))), "{run:?}");
    }

    #[test]
    fn an_inbound_frame_for_a_node_the_rank_does_not_own_is_a_protocol_error() {
        let (run, _) = run_scripted(vec![Frame::data(3, 0, 9, 7, 0, body(90))]);
        match run {
            Err(NetError::Protocol(msg)) => {
                assert_eq!(msg, "frame for node 7 which this rank does not own")
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn an_inbound_frame_from_outside_the_network_is_a_protocol_error() {
        let (run, _) = run_scripted(vec![Frame::data(3, 0, 12, 5, 0, body(90))]);
        match run {
            Err(NetError::Protocol(msg)) => {
                assert_eq!(msg, "frame from node 12 outside the 12-node network")
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }
}
