//! The length-prefixed frame format every backend moves bytes in.
//!
//! A frame is the unit of transmission between ranks: protocol payloads,
//! round-synchronizer markers and the phase-boundary summary exchange all
//! travel as frames. On a socket each frame is preceded by a `u32`
//! little-endian length prefix (the length of the encoded frame, prefix
//! excluded). A message between two nodes of one rank never becomes a frame;
//! the payload codec is exercised by the cross-rank messages of the TCP
//! tests, and by this crate's codec properties.
//!
//! Layout after the length prefix (all integers little-endian):
//!
//! ```text
//! version:1  kind:1  phase:1  round:4  from:4  to:4  seq:4  body:…
//! ```
//!
//! `from`/`to` are node indices for [`FrameKind::Data`] and process ranks for
//! the control-plane kinds. `seq` is the sender's ordinal among the sends it
//! had admitted that round, local and remote alike, for data frames
//! (receivers file frames by `(from, seq)` around the messages routed inside
//! the rank to reproduce the simulator's delivery order) and spare space
//! elsewhere. Frames whose
//! `version` is not [`WIRE_VERSION`] are rejected with
//! [`WireError::BadVersion`] before any field is interpreted.

use overlay_netsim::wire::{take, Wire, WireError};
use std::io::{Read, Write};

/// The frame codec version this build speaks. Bumped on any layout change;
/// decoding rejects every other value.
pub const WIRE_VERSION: u8 = 2;

/// Frames larger than this are rejected at the socket before allocation: no
/// phase of the pipeline legitimately produces frames anywhere near it, so an
/// oversized length prefix means a corrupt or hostile stream.
pub(crate) const MAX_FRAME_LEN: usize = 1 << 24;

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// TCP handshake: a joiner introduces itself (body: its mesh listen
    /// address as UTF-8). Also sent on freshly dialed mesh links with `from`
    /// set to the dialer's rank and an empty body.
    Hello,
    /// TCP handshake: the listener's reply assigning ranks and describing the
    /// whole run (see [`Roster`]).
    Roster,
    /// A protocol payload: `body` is the encoded `(Channel, message)` pair,
    /// `round` the round it was sent in (delivery happens one round later).
    Data,
    /// Round-synchronizer marker: the sending *process* finished `round`;
    /// body is one `bool` — every node it owns reported done.
    Done,
    /// Phase-boundary all-gather: one frame per process carrying the encoded
    /// summaries of every node it owns plus its delivered-message count.
    Summary,
    /// Orderly shutdown: the sender will write nothing further.
    Bye,
}

overlay_netsim::wire! {
    FrameKind { 0 => Hello, 1 => Roster, 2 => Data, 3 => Done, 4 => Summary, 5 => Bye }
}

/// One unit of transmission; see the module docs for the field conventions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Pipeline phase index the frame belongs to.
    pub phase: u8,
    /// The round the frame was produced in.
    pub round: u32,
    /// Sending node index (data) or process rank (control plane).
    pub from: u32,
    /// Destination node index (data) or process rank (control plane).
    pub to: u32,
    /// Per-sender, per-round send ordinal for data frames; spare elsewhere.
    pub seq: u32,
    /// Kind-specific payload bytes.
    pub body: Vec<u8>,
}

impl Frame {
    /// A data frame carrying `body` from node `from` to node `to`.
    pub fn data(phase: u8, round: u32, from: u32, to: u32, seq: u32, body: Vec<u8>) -> Frame {
        Frame {
            kind: FrameKind::Data,
            phase,
            round,
            from,
            to,
            seq,
            body,
        }
    }

    /// A control-plane frame with no payload.
    pub fn control(kind: FrameKind, phase: u8, round: u32, from: u32, to: u32) -> Frame {
        Frame {
            kind,
            phase,
            round,
            from,
            to,
            seq: 0,
            body: Vec::new(),
        }
    }

    /// Encodes the frame *without* the socket length prefix. Written by hand,
    /// not with `wire!`: a version byte leads, and the body runs unprefixed
    /// to the end.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(WIRE_VERSION);
        self.kind.encode(out);
        out.push(self.phase);
        self.round.encode(out);
        self.from.encode(out);
        self.to.encode(out);
        self.seq.encode(out);
        out.extend_from_slice(&self.body);
    }

    /// Decodes a frame from exactly the bytes [`Frame::encode`] produced (the
    /// whole remaining buffer becomes the body).
    pub fn decode(buf: &mut &[u8]) -> Result<Frame, WireError> {
        let version = u8::decode(buf)?;
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let kind = FrameKind::decode(buf)?;
        let phase = u8::decode(buf)?;
        let round = u32::decode(buf)?;
        let from = u32::decode(buf)?;
        let to = u32::decode(buf)?;
        let seq = u32::decode(buf)?;
        let body = take(buf, buf.len())?.to_vec();
        Ok(Frame {
            kind,
            phase,
            round,
            from,
            to,
            seq,
            body,
        })
    }

    /// Writes the frame to a socket: `u32` length prefix, then the encoding.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut bytes = Vec::with_capacity(16 + self.body.len());
        self.encode(&mut bytes);
        let len = u32::try_from(bytes.len()).expect("frame fits in u32");
        w.write_all(&len.to_le_bytes())?;
        w.write_all(&bytes)
    }

    /// Reads one length-prefixed frame from a socket. `Ok(None)` is a clean
    /// end-of-stream (EOF before the first prefix byte). An interrupted read
    /// is retried, as [`Read::read`] asks.
    pub fn read_from(r: &mut impl Read) -> std::io::Result<Option<Frame>> {
        let mut prefix = [0u8; 4];
        loop {
            match r.read(&mut prefix) {
                Ok(0) => return Ok(None),
                Ok(got) => break r.read_exact(&mut prefix[got..])?,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_FRAME_LEN {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"),
            ));
        }
        let mut bytes = vec![0u8; len];
        r.read_exact(&mut bytes)?;
        let mut slice = bytes.as_slice();
        Frame::decode(&mut slice)
            .map(Some)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// The TCP listener's handshake reply: everything a joiner needs to become a
/// full mesh participant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Roster {
    /// Total node count of the run.
    pub n: u32,
    /// Number of participating processes.
    pub procs: u32,
    /// The receiving process's assigned rank (`1..procs`; the listener is 0).
    pub your_rank: u32,
    /// Application configuration relayed verbatim from the listener (the
    /// bootstrap example packs its graph seed here so joiners rebuild the
    /// identical knowledge graph without extra flags).
    pub config: u64,
    /// Mesh listen addresses of ranks `1..procs`, as UTF-8, in rank order.
    pub addrs: Vec<Vec<u8>>,
}

overlay_netsim::wire! { Roster { n, procs, your_rank, config, addrs } }

/// Body of a [`FrameKind::Summary`] frame: every owned node's encoded digest
/// plus the process's delivered-message count for the phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SummaryBody {
    /// `(node index, encoded summary)` for each node the sender owns.
    pub entries: Vec<(u32, Vec<u8>)>,
    /// Messages delivered to the sender's nodes' inboxes across the phase.
    pub delivered: u64,
}

overlay_netsim::wire! { SummaryBody { entries, delivered } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_through_the_socket_codec() {
        let frame = Frame::data(1, 7, 3, 9, 2, vec![1, 2, 3]);
        let mut wire = Vec::new();
        frame.write_to(&mut wire).unwrap();
        let mut cursor = wire.as_slice();
        let back = Frame::read_from(&mut cursor).unwrap().unwrap();
        assert_eq!(back, frame);
        assert!(Frame::read_from(&mut cursor).unwrap().is_none(), "EOF");
    }

    /// Yields `Interrupted` once, then reads from `bytes`.
    struct InterruptedOnce<'a> {
        interrupted: bool,
        bytes: &'a [u8],
    }

    impl Read for InterruptedOnce<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            self.bytes.read(buf)
        }
    }

    #[test]
    fn an_interrupted_read_is_retried_not_reported() {
        let frame = Frame::control(FrameKind::Done, 0, 4, 1, 0);
        let mut wire = Vec::new();
        frame.write_to(&mut wire).unwrap();
        let mut reader = InterruptedOnce {
            interrupted: false,
            bytes: &wire,
        };
        assert_eq!(Frame::read_from(&mut reader).unwrap(), Some(frame));
        assert!(Frame::read_from(&mut reader).unwrap().is_none(), "EOF");
    }

    #[test]
    fn bad_version_is_rejected() {
        let frame = Frame::control(FrameKind::Done, 0, 4, 1, 0);
        let mut bytes = Vec::new();
        frame.encode(&mut bytes);
        bytes[0] = WIRE_VERSION + 1;
        let mut slice = bytes.as_slice();
        assert_eq!(
            Frame::decode(&mut slice),
            Err(WireError::BadVersion(WIRE_VERSION + 1))
        );
    }

    #[test]
    fn oversized_prefix_is_refused_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = wire.as_slice();
        assert!(Frame::read_from(&mut cursor).is_err());
    }

    #[test]
    fn roster_and_summary_bodies_round_trip() {
        let roster = Roster {
            n: 64,
            procs: 4,
            your_rank: 2,
            config: 0xFEED,
            addrs: vec![b"127.0.0.1:4001".to_vec(), b"127.0.0.1:4002".to_vec()],
        };
        let mut bytes = Vec::new();
        roster.encode(&mut bytes);
        let mut slice = bytes.as_slice();
        assert_eq!(Roster::decode(&mut slice).unwrap(), roster);

        let body = SummaryBody {
            entries: vec![(0, vec![9, 9]), (1, vec![])],
            delivered: 123,
        };
        let mut bytes = Vec::new();
        body.encode(&mut bytes);
        let mut slice = bytes.as_slice();
        assert_eq!(SummaryBody::decode(&mut slice).unwrap(), body);
    }
}
