//! [`TcpBackend`]: the multi-process mesh over real sockets.
//!
//! `k` OS processes split the run's `n` nodes into contiguous blocks (see
//! [`crate::backend::partition`]) and connect into a full mesh of TCP
//! streams carrying length-prefixed [`Frame`]s:
//!
//! 1. **Handshake.** Rank 0 listens on a well-known address; each joiner
//!    connects, opens its own ephemeral mesh listener, and sends
//!    [`FrameKind::Hello`] with that listener's address. Once all `k - 1`
//!    joiners are in, rank 0 assigns ranks in join order and answers each
//!    with a [`Roster`] (total `n`, process count, the joiner's rank, an
//!    application config word, and every joiner's mesh address).
//! 2. **Mesh.** Each joiner keeps its rank-0 connection and dials every
//!    *lower* non-zero rank (identifying itself with a `Hello`), while
//!    accepting one connection from every *higher* rank — one stream per
//!    process pair, no dial/accept deadlock.
//! 3. **Rounds.** The rank's stepping loop writes cross-rank data frames into
//!    the destination rank's buffered writer; [`Backend::exchange_done`] is
//!    the α-synchronizer barrier (below).
//! 4. **Failure detection.** Every barrier wait carries a deadline; a peer
//!    that stays silent past it is reported as [`NetError::PeerTimeout`] with
//!    its rank and the barrier waited at — the socket layer's
//!    failure-detector verdict.
//! 5. **Quiescence.** [`Backend::shutdown`] exchanges [`FrameKind::Bye`]
//!    markers so no process closes a socket another is still writing to.
//!
//! # The synchronizer
//!
//! Each link has one reader thread, and all of them push every frame they
//! read, in stream order, into **one** queue. Only a barrier wait drains it:
//! data frames go into a buffer keyed by `(phase, round)`, control frames are
//! matched against the one being waited for or set aside. Reader threads
//! never stop draining their sockets, so a rank blocked in a socket write
//! cannot deadlock the peer it writes to. Four invariants make this the
//! barrier [`crate::NetRunner`] relies on:
//!
//! 1. **Data before `DONE`.** A link's frames enter the queue in stream
//!    order, so holding rank `k`'s `DONE(p, r)` means all of `k`'s `(p, r)`
//!    data is already buffered.
//! 2. **One barrier ahead.** A peer through barrier `r` may already be
//!    sending `(p, r + 1)` or, past the summary barrier, `(p', 0)`:
//!    `exchange_done` hands over exactly the frames tagged `(phase, round)`
//!    and keeps the rest.
//! 3. **Final-round purge.** The last executed round's frames are handed
//!    over like any other's and the runner discards them. Whatever is still
//!    tagged `p` when this rank is about to broadcast `SUMMARY(p)` belongs to
//!    no round that will run, and is dropped there — before any peer can
//!    reuse the tag (phase tags repeat when one mesh runs several builds).
//! 4. **Flush before `DONE`.** Every writer is flushed as its `DONE` marker
//!    is appended, so the round's data reaches the wire strictly before it.

use crate::backend::{partition, rank_of, Backend, SummaryEntries};
use crate::frame::{Frame, FrameKind, Roster, SummaryBody};
use crate::NetError;
use overlay_netsim::wire::Wire;
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The multi-process TCP implementation of [`Backend`].
pub struct TcpBackend {
    rank: usize,
    procs: usize,
    n: usize,
    config: u64,
    timeout: Duration,
    /// The write half of each mesh link, by peer rank (`None` at our own).
    writers: Vec<Option<BufWriter<TcpStream>>>,
    /// The one queue every link's reader thread feeds.
    rx: mpsc::Receiver<Frame>,
    /// Cloned into each reader thread; held here so the queue stays open
    /// when there are none (single-process runs).
    tx: mpsc::Sender<Frame>,
    /// Data frames received ahead of the barrier that hands them over.
    data: BTreeMap<(u8, u32), Vec<Frame>>,
    /// Control frames received while waiting for a different one.
    pending_ctrl: Vec<Frame>,
}

/// A bound-but-not-yet-meshed rank-0 endpoint: [`TcpHost::bind`], then
/// [`TcpHost::accept`], so callers binding an ephemeral port (`:0`) can learn
/// the actual address before the joiners dial in.
pub struct TcpHost {
    listener: TcpListener,
}

impl TcpHost {
    /// Binds the rank-0 handshake listener.
    pub fn bind(bind_addr: &str) -> Result<TcpHost, NetError> {
        Ok(TcpHost {
            listener: TcpListener::bind(bind_addr)?,
        })
    }

    /// The bound address (resolves `:0` to the assigned port).
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, NetError> {
        Ok(self.listener.local_addr()?)
    }

    /// Waits for `procs - 1` joiners, assigns ranks in join order, broadcasts
    /// the roster and becomes rank 0's backend. `config` is an
    /// application-defined word relayed to every joiner (the bootstrap
    /// example packs its graph seed in it).
    pub fn accept(
        self,
        procs: usize,
        n: usize,
        config: u64,
        timeout: Duration,
    ) -> Result<TcpBackend, NetError> {
        if procs == 0 {
            return Err(NetError::Protocol(
                "a run needs at least one process".into(),
            ));
        }
        let mut backend = TcpBackend::empty(0, procs, n, config, timeout);
        if procs == 1 {
            return Ok(backend);
        }
        let listener = self.listener;
        let mut joins = Vec::with_capacity(procs - 1);
        for _ in 1..procs {
            let (stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(timeout))?;
            let hello = read_handshake_frame(&stream, FrameKind::Hello)?;
            joins.push((stream, hello.body));
        }
        let addrs: Vec<Vec<u8>> = joins.iter().map(|(_, addr)| addr.clone()).collect();
        for (idx, (stream, _)) in joins.into_iter().enumerate() {
            let rank = idx + 1;
            let roster = Roster {
                n: n as u32,
                procs: procs as u32,
                your_rank: rank as u32,
                config,
                addrs: addrs.clone(),
            };
            let mut body = Vec::new();
            roster.encode(&mut body);
            let mut frame = Frame::control(FrameKind::Roster, 0, 0, 0, rank as u32);
            frame.body = body;
            write_handshake_frame(&stream, &frame)?;
            backend.install_peer(rank, stream)?;
        }
        Ok(backend)
    }
}

impl TcpBackend {
    /// A joiner: connect to rank 0 at `listener_addr`, receive a rank and the
    /// roster, and complete the mesh. `n`, the process count and the config
    /// word all come from the roster.
    pub fn join(listener_addr: &str, timeout: Duration) -> Result<TcpBackend, NetError> {
        let zero = TcpStream::connect(listener_addr)?;
        zero.set_nodelay(true)?;
        zero.set_read_timeout(Some(timeout))?;
        let mesh_listener = TcpListener::bind("127.0.0.1:0")?;
        let mesh_addr = mesh_listener.local_addr()?.to_string();
        let mut hello = Frame::control(FrameKind::Hello, 0, 0, 0, 0);
        hello.body = mesh_addr.into_bytes();
        write_handshake_frame(&zero, &hello)?;
        let roster_frame = read_handshake_frame(&zero, FrameKind::Roster)?;
        let mut slice = roster_frame.body.as_slice();
        let roster = Roster::decode(&mut slice).map_err(NetError::Codec)?;
        let (n, procs, rank) = (
            roster.n as usize,
            roster.procs as usize,
            roster.your_rank as usize,
        );
        if rank == 0 || rank >= procs {
            return Err(NetError::Protocol(format!(
                "roster assigned invalid rank {rank}"
            )));
        }
        if roster.addrs.len() != procs - 1 {
            return Err(NetError::Protocol(format!(
                "roster for {procs} processes lists {} mesh addresses",
                roster.addrs.len()
            )));
        }
        let mut backend = TcpBackend::empty(rank, procs, n, roster.config, timeout);
        backend.install_peer(0, zero)?;
        // Dial every lower non-zero rank, identifying ourselves.
        for lower in 1..rank {
            let addr = String::from_utf8(roster.addrs[lower - 1].clone())
                .map_err(|_| NetError::Protocol("mesh address is not UTF-8".into()))?;
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(timeout))?;
            let ident = Frame::control(FrameKind::Hello, 0, 0, rank as u32, lower as u32);
            write_handshake_frame(&stream, &ident)?;
            backend.install_peer(lower, stream)?;
        }
        // Accept every higher rank's dial.
        for _ in rank + 1..procs {
            let (stream, _) = mesh_listener.accept()?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(timeout))?;
            let ident = read_handshake_frame(&stream, FrameKind::Hello)?;
            let dialer = ident.from as usize;
            if dialer <= rank || dialer >= procs {
                return Err(NetError::Protocol(format!(
                    "mesh dial from unexpected rank {dialer}"
                )));
            }
            backend.install_peer(dialer, stream)?;
        }
        Ok(backend)
    }

    /// This process's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The application config word from the roster (rank 0: the value it
    /// passed to [`TcpHost::accept`]).
    pub fn config(&self) -> u64 {
        self.config
    }

    fn empty(rank: usize, procs: usize, n: usize, config: u64, timeout: Duration) -> TcpBackend {
        let (tx, rx) = mpsc::channel();
        TcpBackend {
            rank,
            procs,
            n,
            config,
            timeout,
            writers: (0..procs).map(|_| None).collect(),
            rx,
            tx,
            data: BTreeMap::new(),
            pending_ctrl: Vec::new(),
        }
    }

    /// Registers the mesh stream for `rank`, spawning its reader thread.
    fn install_peer(&mut self, rank: usize, stream: TcpStream) -> Result<(), NetError> {
        if self.writers[rank].is_some() {
            return Err(NetError::Protocol(format!(
                "duplicate mesh link to rank {rank}"
            )));
        }
        // Handshake deadlines no longer apply; barrier waits carry their own.
        stream.set_read_timeout(None)?;
        let read_half = stream.try_clone()?;
        let tx = self.tx.clone();
        std::thread::spawn(move || reader_loop(read_half, tx));
        self.writers[rank] = Some(BufWriter::new(stream));
        Ok(())
    }

    /// Writes `frame` to every peer and flushes, so everything previously
    /// buffered (the round's data) reaches the wire strictly before it.
    fn broadcast_ctrl(&mut self, frame: &Frame) -> Result<(), NetError> {
        for w in self.writers.iter_mut().flatten() {
            frame.write_to(w)?;
            w.flush()?;
        }
        Ok(())
    }

    /// Retrieves the control frame matching (`kind`, `phase`, `round`, `from
    /// == rank`), consuming buffered candidates first and draining the queue
    /// (bounded by the configured timeout) otherwise; data frames met on the
    /// way are buffered under their `(phase, round)`.
    fn wait_ctrl(
        &mut self,
        kind: FrameKind,
        phase: u8,
        round: u32,
        rank: usize,
        waiting_for: &'static str,
    ) -> Result<Frame, NetError> {
        let matches = |f: &Frame| {
            f.kind == kind && f.phase == phase && f.round == round && f.from as usize == rank
        };
        if let Some(pos) = self.pending_ctrl.iter().position(matches) {
            return Ok(self.pending_ctrl.remove(pos));
        }
        let timed_out = NetError::PeerTimeout {
            rank,
            waiting_for,
            phase,
            round,
        };
        let deadline = Instant::now() + self.timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(timed_out);
            }
            match self.rx.recv_timeout(remaining) {
                Ok(frame) if frame.kind == FrameKind::Data => {
                    let tag = (frame.phase, frame.round);
                    self.data.entry(tag).or_default().push(frame);
                }
                Ok(frame) if matches(&frame) => return Ok(frame),
                Ok(frame)
                    if frame.kind == FrameKind::Bye
                        && kind != FrameKind::Bye
                        && frame.from as usize == rank =>
                {
                    // FIFO per stream: a Bye from the awaited rank means the
                    // expected frame can never arrive. Byes from *other* ranks
                    // are normal (they finished the run and are quiescing) and
                    // fall through to the buffer for shutdown() to consume.
                    return Err(NetError::Protocol(format!(
                        "rank {} hung up mid-run",
                        frame.from
                    )));
                }
                Ok(frame) => self.pending_ctrl.push(frame),
                Err(mpsc::RecvTimeoutError::Timeout) => return Err(timed_out),
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(NetError::Protocol("frame queue closed".into()));
                }
            }
        }
    }
}

impl Backend for TcpBackend {
    fn n(&self) -> usize {
        self.n
    }

    fn owned(&self) -> Range<usize> {
        partition(self.n, self.procs, self.rank)
    }

    fn send(&mut self, frame: Frame) -> Result<(), NetError> {
        let to = frame.to as usize;
        if to >= self.n {
            return Err(NetError::Protocol(format!(
                "frame addressed to unknown node {to}"
            )));
        }
        let rank = rank_of(self.n, self.procs, to);
        let w = self.writers[rank]
            .as_mut()
            .ok_or_else(|| NetError::Protocol(format!("no mesh link to rank {rank}")))?;
        frame.write_to(w)?;
        Ok(())
    }

    fn exchange_done(
        &mut self,
        phase: u8,
        round: u32,
        local_done: bool,
        inbound: &mut Vec<Frame>,
    ) -> Result<bool, NetError> {
        let mut done = Frame::control(FrameKind::Done, phase, round, self.rank as u32, 0);
        done.body = vec![u8::from(local_done)];
        self.broadcast_ctrl(&done)?;
        let mut all_done = local_done;
        let me = self.rank;
        for rank in (0..self.procs).filter(|&r| r != me) {
            let frame = self.wait_ctrl(FrameKind::Done, phase, round, rank, "DONE")?;
            let mut slice = frame.body.as_slice();
            all_done &= bool::decode(&mut slice).map_err(NetError::Codec)?;
        }
        // Invariants 1 and 2: with every `DONE(phase, round)` in hand the
        // round's data is all buffered; anything else buffered is for later.
        if let Some(mut frames) = self.data.remove(&(phase, round)) {
            inbound.append(&mut frames);
        }
        Ok(all_done)
    }

    fn exchange_summaries(
        &mut self,
        phase: u8,
        local: SummaryEntries,
        delivered: u64,
    ) -> Result<(SummaryEntries, u64), NetError> {
        let body = SummaryBody {
            entries: local.clone(),
            delivered,
        };
        let mut frame = Frame::control(FrameKind::Summary, phase, 0, self.rank as u32, 0);
        body.encode(&mut frame.body);
        // Invariant 3: no peer can reuse the tag until it has this SUMMARY.
        self.data.retain(|&(tag, _), _| tag != phase);
        self.broadcast_ctrl(&frame)?;
        let mut all = local;
        let mut total = delivered;
        let me = self.rank;
        for rank in (0..self.procs).filter(|&r| r != me) {
            let frame = self.wait_ctrl(FrameKind::Summary, phase, 0, rank, "SUMMARY")?;
            let mut slice = frame.body.as_slice();
            let body = SummaryBody::decode(&mut slice).map_err(NetError::Codec)?;
            all.extend(body.entries);
            total += body.delivered;
        }
        Ok((all, total))
    }

    fn shutdown(&mut self) -> Result<(), NetError> {
        let bye = Frame::control(FrameKind::Bye, 0, 0, self.rank as u32, 0);
        self.broadcast_ctrl(&bye)?;
        // Quiescence: wait for every peer's Bye so no socket is torn down
        // while the other side still writes. A peer that already hung up
        // (its Bye is buffered, or its stream is gone) must not wedge us.
        let me = self.rank;
        for rank in (0..self.procs).filter(|&r| r != me) {
            match self.wait_ctrl(FrameKind::Bye, 0, 0, rank, "BYE") {
                Ok(_) | Err(NetError::Protocol(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// One mesh link's read half: every frame, in stream order, into the rank's
/// one queue. Exits after `Bye`, on EOF or a torn stream (the barrier
/// deadline turns the latter into a [`NetError::PeerTimeout`]), or when the
/// backend is gone.
fn reader_loop(stream: TcpStream, tx: mpsc::Sender<Frame>) {
    let mut reader = BufReader::new(stream);
    while let Ok(Some(frame)) = Frame::read_from(&mut reader) {
        let last = frame.kind == FrameKind::Bye;
        if tx.send(frame).is_err() || last {
            break;
        }
    }
}

/// Writes one frame during the handshake, before the buffered writer exists.
fn write_handshake_frame(mut stream: &TcpStream, frame: &Frame) -> Result<(), NetError> {
    frame.write_to(&mut stream)?;
    stream.flush()?;
    Ok(())
}

/// Reads one frame during the handshake and checks its kind (the stream's
/// read deadline bounds the wait).
fn read_handshake_frame(mut stream: &TcpStream, want: FrameKind) -> Result<Frame, NetError> {
    let frame = Frame::read_from(&mut stream)?
        .ok_or_else(|| NetError::Protocol("peer hung up during the handshake".into()))?;
    if frame.kind != want {
        return Err(NetError::Protocol(format!(
            "expected a {want:?} frame during the handshake, got {:?}",
            frame.kind
        )));
    }
    Ok(frame)
}
