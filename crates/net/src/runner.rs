//! [`NetRunner`]: the [`PhaseExecutor`] that drives protocol nodes over a
//! [`Backend`], one stepping loop per rank.
//!
//! A rank runs the simulator's own round on the block of nodes its backend
//! owns: [`SimExecutor::execute_block`], the function [`SimExecutor`] runs
//! every phase with, over a [`Medium`] of frames. So the stop rule, the
//! inbox order, the send and receive caps, invalid-address drops and the
//! per-node random streams are the simulator's by construction, not by
//! restatement; the cross-backend equivalence tests pin the medium.
//!
//! The medium is the round's barrier. Each message dispatch admitted for a
//! node another rank owns becomes a data [`Frame`] carrying the sender's send
//! ordinal, leaves through [`Backend::send`], and the one
//! [`Backend::exchange_done`] call that ends the round (the α-synchronizer)
//! returns when every rank has finished it, with every frame the other ranks
//! sent this one. Those are validated and decoded exactly, then filed in
//! `(sender, seq)` order: frames from ranks below this one ahead of the
//! messages routed inside the rank, frames from ranks above behind them —
//! which is the order the whole-run simulator delivers in. Messages between
//! nodes of one rank never become frames, so a rank that owns every node
//! ([`crate::ChannelBackend`]) encodes no message at all.
//!
//! Every decision about a node is taken by the rank that owns it, as the
//! simulator takes it: receive-cap evictions are keyed on the seed, the round
//! and the recipient, and a scheduled fault plan's crashes, joins and
//! partitions are lookups every rank can make. So a rank runs any fault plan
//! without loss or delay, and the liveness it reports for the whole run is the
//! plan's. A rank that owns every node runs any plan at all; a rank that owns
//! less refuses loss and delays with [`NetError::FaultsUnsupported`], since
//! those verdicts are drawn in the whole run's send order.

use crate::backend::Backend;
use crate::frame::Frame;
use crate::NetError;
use overlay_core::{ExecutedPhase, Phase, PhaseExecSpec, PhaseExecutor, SimExecutor, Summarize};
use overlay_graph::NodeId;
use overlay_netsim::wire::Wire;
use overlay_netsim::{Crossing, Envelope, Medium, ParallelismConfig};
use std::ops::Range;

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
        let (n, owned) = (self.backend.n(), self.backend.owned());
        if nodes.len() != n {
            return Err(NetError::Protocol(format!(
                "phase has {} nodes but the backend was set up for {n}",
                nodes.len()
            )));
        }
        // Refused before any frame moves, so every rank of a multi-process
        // run — each handed the same phase — fails the same way.
        if owned.len() != n && !faults.is_scheduled() {
            return Err(NetError::FaultsUnsupported { phase: id.name() });
        }
        let tag = id.index() as u8;
        let mut medium = Frames {
            backend: &mut self.backend,
            phase: tag,
            owned: owned.clone(),
        };
        let serial = SimExecutor {
            parallelism: ParallelismConfig::serial(),
            ..SimExecutor::default()
        };
        let (run, _) =
            serial.execute_block(nodes, faults, spec, owned.clone(), &mut medium, None)?;

        // Phase-end all-gather: encode the owned digests, collect everyone's.
        let local = (run.summaries.iter().zip(owned))
            .map(|(summary, i)| {
                let mut bytes = Vec::new();
                summary.encode(&mut bytes);
                (NodeId::from(i).raw(), bytes)
            })
            .collect();
        let (gathered, delivered) = self.backend.exchange_summaries(tag, local, run.delivered)?;
        let mut summaries: Vec<Option<P::Summary>> = vec![None; n];
        for (node, bytes) in gathered {
            let summary = decode_exact(&bytes, || format!("the summary for node {node}"))?;
            let slot = summaries
                .get_mut(node as usize)
                .ok_or_else(|| NetError::Protocol(format!("summary for unknown node {node}")))?;
            if slot.replace(summary).is_some() {
                return Err(NetError::Protocol(format!(
                    "duplicate summary for node {node}"
                )));
            }
        }
        let summaries: Vec<P::Summary> = summaries
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.ok_or_else(|| NetError::Protocol(format!("no summary for node {i}"))))
            .collect::<Result<_, _>>()?;
        Ok(ExecutedPhase {
            summaries,
            alive: run.alive,
            rounds: run.rounds,
            all_done: run.all_done,
            delivered,
        })
    }
}

/// The [`Medium`] a rank's block runs over: messages for other ranks' nodes
/// leave as data frames, and the frames other ranks sent arrive at the
/// α-synchronizer barrier.
struct Frames<'a, B> {
    backend: &'a mut B,
    phase: u8,
    owned: Range<usize>,
}

impl<B: Backend, M: Wire> Medium<M> for Frames<'_, B> {
    type Error = NetError;

    fn barrier(
        &mut self,
        round: usize,
        block_done: bool,
        crossing: &mut Vec<Crossing<M>>,
    ) -> Result<bool, NetError> {
        let round = u32::try_from(round).expect("round numbers fit in u32");
        for (to, seq, env) in crossing.drain(..) {
            let mut body = Vec::new();
            (env.channel, env.payload).encode(&mut body);
            let frame = Frame::data(self.phase, round, env.from.raw(), to.raw(), seq, body);
            self.backend.send(frame)?;
        }
        let mut inbound = Vec::new();
        let all_done = self
            .backend
            .exchange_done(self.phase, round, block_done, &mut inbound)?;
        let n = self.backend.n();
        for frame in inbound {
            let (from, to) = (frame.from as usize, frame.to as usize);
            let misaddressed = if from >= n {
                Some(format!(
                    "frame from node {from} outside the {n}-node network"
                ))
            } else if self.owned.contains(&from) {
                Some(format!("frame from node {from} which this rank owns"))
            } else if !self.owned.contains(&to) {
                Some(format!("frame for node {to} which this rank does not own"))
            } else {
                None
            };
            if let Some(msg) = misaddressed {
                return Err(NetError::Protocol(msg));
            }
            let (channel, payload) =
                decode_exact(&frame.body, || format!("the message from node {from}"))?;
            let env = Envelope {
                from: NodeId::new(frame.from),
                channel,
                payload,
            };
            crossing.push((NodeId::new(frame.to), frame.seq, env));
        }
        Ok(all_done)
    }
}

/// Decodes one `T` from exactly `bytes`: bytes left over are a protocol
/// violation, reported after `what` names the value.
fn decode_exact<T: Wire>(mut bytes: &[u8], what: impl FnOnce() -> String) -> Result<T, NetError> {
    let value = T::decode(&mut bytes)?;
    if bytes.is_empty() {
        return Ok(value);
    }
    let msg = format!("{} trailing bytes after {}", bytes.len(), what());
    Err(NetError::Protocol(msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SummaryEntries;
    use overlay_core::PhaseId;
    use overlay_netsim::{Channel, Ctx, FaultPlan, Protocol};

    /// Rank `4..6` of a 12-node run whose peers are a script: round 0's
    /// barrier hands over `inbound`, and the gather fills in an empty digest,
    /// followed by `digest_tail`, for every node the rank does not own.
    struct Scripted {
        inbound: Vec<Frame>,
        sent: Vec<Frame>,
        digest_tail: Vec<u8>,
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
            empty.extend_from_slice(&self.digest_tail);
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
        (Channel::Global, payload).encode(&mut bytes);
        bytes
    }

    /// One `Recorder` phase under `faults` on the scripted rank, its remote
    /// digests followed by `digest_tail`; also returns what the rank handed to
    /// [`Backend::send`].
    fn run_scripted_with(
        inbound: Vec<Frame>,
        digest_tail: Vec<u8>,
        faults: FaultPlan,
    ) -> (Result<ExecutedPhase<Vec<u32>>, NetError>, Vec<Frame>) {
        let mut runner = NetRunner::new(Scripted {
            inbound,
            sent: Vec::new(),
            digest_tail,
        });
        let nodes = (0..12).map(|_| Recorder::default()).collect();
        let phase = Phase::from_parts(PhaseId::Traffic, nodes, 4, faults);
        let spec = PhaseExecSpec {
            seed: 1,
            ncc0_cap: 64,
            budget: 4,
            transport: None,
        };
        let run = runner.execute(phase, spec);
        (run, runner.backend.sent)
    }

    /// [`run_scripted_with`] on a clean plan, with exact digests.
    fn run_scripted(
        inbound: Vec<Frame>,
    ) -> (Result<ExecutedPhase<Vec<u32>>, NetError>, Vec<Frame>) {
        run_scripted_with(inbound, Vec::new(), FaultPlan::default())
    }

    /// The error message of a run that must fail with a protocol violation.
    fn protocol_error(run: Result<ExecutedPhase<Vec<u32>>, NetError>) -> String {
        match run {
            Err(NetError::Protocol(msg)) => msg,
            other => panic!("expected a protocol error, got {other:?}"),
        }
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
        assert_eq!(
            protocol_error(run),
            "frame for node 7 which this rank does not own"
        );
    }

    #[test]
    fn an_inbound_frame_from_outside_the_network_is_a_protocol_error() {
        let (run, _) = run_scripted(vec![Frame::data(3, 0, 12, 5, 0, body(90))]);
        assert_eq!(
            protocol_error(run),
            "frame from node 12 outside the 12-node network"
        );
    }

    #[test]
    fn an_inbound_frame_claiming_an_owned_sender_is_a_protocol_error() {
        // A forged second message "from" node 4 into node 5's inbox.
        let (run, _) = run_scripted(vec![Frame::data(3, 0, 4, 5, 0, body(77))]);
        assert_eq!(
            protocol_error(run),
            "frame from node 4 which this rank owns"
        );
    }

    #[test]
    fn trailing_bytes_after_an_inbound_message_are_a_protocol_error() {
        let mut long = body(90);
        long.push(0);
        let (run, _) = run_scripted(vec![Frame::data(3, 0, 9, 5, 0, long)]);
        assert_eq!(
            protocol_error(run),
            "1 trailing bytes after the message from node 9"
        );
    }

    #[test]
    fn trailing_bytes_after_a_gathered_summary_are_a_protocol_error() {
        let (run, _) = run_scripted_with(Vec::new(), vec![7], FaultPlan::default());
        assert_eq!(
            protocol_error(run),
            "1 trailing bytes after the summary for node 0"
        );
    }

    #[test]
    fn a_rank_that_owns_part_of_the_run_refuses_loss_and_delays_before_any_frame_moves() {
        let lossy = FaultPlan::default().with_drop_prob(0.05);
        let delayed = FaultPlan::default().with_delays(0.1, 2);
        for plan in [lossy, delayed] {
            let (run, sent) = run_scripted_with(Vec::new(), Vec::new(), plan);
            assert!(
                matches!(run, Err(NetError::FaultsUnsupported { phase: "traffic" })),
                "{run:?}"
            );
            assert!(sent.is_empty(), "a frame left before the refusal: {sent:?}");
        }
    }
}
