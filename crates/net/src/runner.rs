//! [`NetRunner`]: the [`PhaseExecutor`] that drives protocol nodes over a
//! [`Backend`], one thread per owned node.
//!
//! The runner replicates the lockstep simulator's observable semantics
//! exactly — that is the whole point of the seam, and the cross-backend
//! equivalence tests pin it:
//!
//! * **Round structure.** Round 0 runs `on_start`; round `r ≥ 1` runs
//!   `on_round` with the messages sent in round `r - 1`. Execution stops when
//!   every node (on every process) is done or the budget is exhausted;
//!   messages sent in the final executed round are discarded, as the
//!   simulator discards them.
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
//! The α-synchronizer lives in the coordinator loop: after every owned node
//! reports round `r` complete, [`Backend::exchange_done`] barriers with the
//! peer processes. Its contract (all round-`r` data is enqueued at the
//! destinations before it returns) makes the per-round "go" signal safe.

use crate::backend::{Backend, FrameSender, PhasePlane};
use crate::frame::{Frame, FrameKind};
use crate::NetError;
use overlay_core::{ExecutedPhase, Phase, PhaseExecSpec, PhaseExecutor, Summarize};
use overlay_graph::NodeId;
use overlay_netsim::wire::Wire;
use overlay_netsim::{node_rng, CapacityModel, Channel, Ctx, Envelope, Protocol};
use overlay_transport::Reliable;
use std::collections::BTreeMap;
use std::sync::mpsc;

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
            None => run_phase_net(&mut self.backend, tag, nodes, spec, bare_summary::<P>),
            Some(cfg) => {
                // `Reliable<P>` cannot itself implement `Summarize` without a
                // blanket impl that would collide with the per-protocol ones,
                // so the summarizer travels as a plain function pointer that
                // reaches through to the inner protocol.
                let wrapped: Vec<Reliable<P>> =
                    nodes.into_iter().map(|p| Reliable::new(p, cfg)).collect();
                run_phase_net(&mut self.backend, tag, wrapped, spec, reliable_summary::<P>)
            }
        }
    }
}

fn bare_summary<P: Summarize>(node: &P) -> P::Summary
where
    P::Message: Wire,
{
    node.summarize()
}

fn reliable_summary<P: Summarize>(node: &Reliable<P>) -> P::Summary
where
    P::Message: Wire,
{
    node.inner().summarize()
}

/// A node thread's end-of-round report to the coordinator.
struct Report {
    round: u32,
    done: bool,
}

/// The coordinator's instruction to a node thread.
enum Go {
    /// Run message round `r` (deliver round `r - 1`'s frames).
    Run(u32),
    /// The phase is over; return the node state.
    Finish,
}

/// Runs one phase of `Q` nodes over the backend; `summarize` digests each
/// owned node's final state (reaching through the reliable wrapper when one
/// is present).
fn run_phase_net<B, Q, S>(
    backend: &mut B,
    phase: u8,
    mut nodes: Vec<Q>,
    spec: PhaseExecSpec,
    summarize: fn(&Q) -> S,
) -> Result<ExecutedPhase<S>, NetError>
where
    B: Backend,
    Q: Protocol + Send,
    Q::Message: Wire + Send,
    S: Wire + Clone + std::fmt::Debug + Send,
{
    let n = backend.n();
    if nodes.len() != n {
        return Err(NetError::Protocol(format!(
            "phase has {} nodes but the backend was set up for {n}",
            nodes.len()
        )));
    }
    let owned = backend.owned();
    let cap = CapacityModel::Ncc0 {
        per_round: spec.ncc0_cap,
    }
    .global_cap();
    let PhasePlane { receivers, sender } = backend.open_phase(phase)?;
    if receivers.len() != owned.len() {
        return Err(NetError::Protocol(format!(
            "backend produced {} receivers for {} owned nodes",
            receivers.len(),
            owned.len()
        )));
    }
    // Only the owned slice runs here; peers run theirs and the phase-end
    // summary exchange reassembles the full picture.
    let owned_nodes: Vec<(usize, Q)> = nodes
        .drain(..)
        .enumerate()
        .filter(|(i, _)| owned.contains(i))
        .collect();

    let (report_tx, report_rx) = mpsc::channel::<Report>();
    let mut go_txs: Vec<mpsc::Sender<Go>> = Vec::with_capacity(owned.len());

    let (finished, rounds, all_done) = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(owned.len());
        for ((i, node), rx) in owned_nodes.into_iter().zip(receivers) {
            let (go_tx, go_rx) = mpsc::channel::<Go>();
            go_txs.push(go_tx);
            let sender = sender.clone();
            let report_tx = report_tx.clone();
            handles.push(scope.spawn(move || {
                node_thread(
                    node, i, n, phase, cap, spec.seed, sender, rx, go_rx, report_tx,
                )
            }));
        }
        drop(report_tx);

        // The coordinator half of the α-synchronizer: collect every owned
        // node's report for the round, barrier with the peer processes, and
        // either advance everyone one round or stop. The stop rule is the
        // simulator's: run round r + 1 iff not everyone was done after round
        // r and the budget allows it.
        let mut coordinate = || -> Result<(usize, bool), NetError> {
            let wait_round = |r: u32| -> Result<bool, NetError> {
                let mut done = true;
                for _ in 0..go_txs.len() {
                    let rep = report_rx
                        .recv()
                        .map_err(|_| NetError::Protocol("a node thread died".into()))?;
                    debug_assert_eq!(rep.round, r);
                    done &= rep.done;
                }
                Ok(done)
            };
            let local_done = wait_round(0)?;
            let mut all_done = backend.exchange_done(phase, 0, local_done)?;
            let mut executed = 0u32;
            while (executed as usize) < spec.budget && !all_done {
                let r = executed + 1;
                for tx in &go_txs {
                    let _ = tx.send(Go::Run(r));
                }
                let local_done = wait_round(r)?;
                all_done = backend.exchange_done(phase, r, local_done)?;
                executed += 1;
            }
            Ok((executed as usize, all_done))
        };
        let verdict = coordinate();
        for tx in &go_txs {
            let _ = tx.send(Go::Finish);
        }
        let mut finished = Vec::with_capacity(handles.len());
        let mut died = false;
        for handle in handles {
            match handle.join() {
                Ok(result) => finished.push(result),
                Err(_) => died = true,
            }
        }
        let (rounds, all_done) = verdict?;
        if died {
            return Err(NetError::Protocol("a node thread panicked".into()));
        }
        Ok::<_, NetError>((finished, rounds, all_done))
    })?;

    // Phase-end all-gather: encode the owned digests, collect everyone's.
    let mut local_delivered = 0u64;
    let mut local = Vec::with_capacity(finished.len());
    for (i, node, delivered) in &finished {
        local_delivered += delivered;
        let mut bytes = Vec::new();
        summarize(node).encode(&mut bytes);
        local.push((*i as u32, bytes));
    }
    let (gathered, delivered) = backend.exchange_summaries(phase, local, local_delivered)?;
    let mut summaries: Vec<Option<S>> = vec![None; n];
    for (node, bytes) in gathered {
        let mut slice = bytes.as_slice();
        let summary = S::decode(&mut slice).map_err(NetError::Codec)?;
        let slot = summaries
            .get_mut(node as usize)
            .ok_or_else(|| NetError::Protocol(format!("summary for unknown node {node}")))?;
        if slot.replace(summary).is_some() {
            return Err(NetError::Protocol(format!(
                "duplicate summary for node {node}"
            )));
        }
    }
    let summaries: Vec<S> = summaries
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.ok_or_else(|| NetError::Protocol(format!("no summary for node {i}"))))
        .collect::<Result<_, _>>()?;

    Ok(ExecutedPhase {
        summaries,
        alive: vec![true; n],
        rounds,
        all_done,
        delivered,
    })
}

/// One node's whole phase: the per-round callback loop against the backend's
/// data plane, gated by the coordinator's go signals.
#[allow(clippy::too_many_arguments)]
fn node_thread<Q, Snd>(
    mut node: Q,
    i: usize,
    n: usize,
    phase: u8,
    cap: Option<usize>,
    seed: u64,
    sender: Snd,
    rx: mpsc::Receiver<Frame>,
    go_rx: mpsc::Receiver<Go>,
    report_tx: mpsc::Sender<Report>,
) -> (usize, Q, u64)
where
    Q: Protocol,
    Q::Message: Wire,
    Snd: FrameSender,
{
    let me = NodeId::from(i);
    let mut rng = node_rng(seed, i);
    let mut outbox: Vec<(NodeId, Channel, Q::Message)> = Vec::new();
    // Frames buffered by the round they were *sent* in; round r's inbox is
    // the (r - 1)-tagged buffer. The synchronizer guarantees completeness by
    // the time Go::Run(r) arrives.
    let mut pending: BTreeMap<u32, Vec<Frame>> = BTreeMap::new();
    let mut delivered = 0u64;

    {
        let mut ctx = Ctx::external(me, 0, n, &mut rng, &mut outbox);
        node.on_start(&mut ctx);
    }
    flush_outbox(&sender, phase, 0, i, n, cap, &mut outbox);
    let _ = report_tx.send(Report {
        round: 0,
        done: node.is_done(),
    });

    while let Ok(Go::Run(r)) = go_rx.recv() {
        while let Ok(frame) = rx.try_recv() {
            pending.entry(frame.round).or_default().push(frame);
        }
        let mut frames = pending.remove(&(r - 1)).unwrap_or_default();
        frames.sort_by_key(|f| (f.from, f.seq));
        let mut inbox = Vec::with_capacity(frames.len());
        for frame in &frames {
            let mut slice = frame.body.as_slice();
            let Ok(channel) = Channel::decode(&mut slice) else {
                continue; // An undecodable frame is dropped, not fatal: the
                          // codec tests make this unreachable for honest peers.
            };
            let Ok(payload) = Q::Message::decode(&mut slice) else {
                continue;
            };
            inbox.push(Envelope {
                from: NodeId::from(frame.from as usize),
                channel,
                payload,
            });
        }
        delivered += inbox.len() as u64;
        {
            let mut ctx = Ctx::external(me, r as usize, n, &mut rng, &mut outbox);
            node.on_round(&mut ctx, &inbox);
        }
        flush_outbox(&sender, phase, r, i, n, cap, &mut outbox);
        let _ = report_tx.send(Report {
            round: r,
            done: node.is_done(),
        });
    }
    (i, node, delivered)
}

/// Encodes and sends the round's outbox, mirroring the simulator's dispatch
/// rules: invalid addresses are dropped without consuming cap budget; the
/// per-sender global cap admits the first `cap` global sends in send order;
/// local-channel sends pass (no local capacity model is configured in NCC0
/// runs, matching `SimConfig::ncc0_capped`).
fn flush_outbox<M: Wire, Snd: FrameSender>(
    sender: &Snd,
    phase: u8,
    round: u32,
    from: usize,
    n: usize,
    cap: Option<usize>,
    outbox: &mut Vec<(NodeId, Channel, M)>,
) {
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
        let frame = Frame {
            kind: FrameKind::Data,
            phase,
            round,
            from: from as u32,
            to: to.index() as u32,
            seq,
            body,
        };
        seq += 1;
        // A send failure here means the backend is torn (socket gone); the
        // coordinator's next barrier will surface it as the phase error, so
        // the node thread just stops emitting.
        if sender.send(frame).is_err() {
            break;
        }
    }
    outbox.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChannelBackend;
    use overlay_core::{BfsSummary, SimExecutor};
    use overlay_netsim::FaultPlan;

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
}
