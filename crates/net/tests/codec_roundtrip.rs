//! Property tests for the wire codec: every message that can cross a socket
//! round-trips byte-exactly, every truncation is rejected, and frames from a
//! different wire version are refused outright.

use overlay_core::{BfsMsg, ExpanderMsg, RelinkMsg};
use overlay_core::{BfsSummary, BinarizeSummary, ExpanderSummary};
use overlay_graph::NodeId;
use overlay_net::{Frame, FrameKind, Roster, SummaryBody, WIRE_VERSION};
use overlay_netsim::{Wire, WireError};
use overlay_transport::TransportMsg;
use proptest::prelude::*;

/// Bytes before the variable-length body in [`Frame::encode`]'s layout:
/// version, kind, phase (1 byte each), then round, from, to, seq (4 each).
const FRAME_HEADER_LEN: usize = 3 + 4 * 4;

/// Encode → decode must reproduce the value, consume every byte, and reject
/// every strict prefix of the encoding (each field is mandatory, so a cut
/// anywhere surfaces as [`WireError::Truncated`]).
fn assert_round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
    let mut bytes = Vec::new();
    value.encode(&mut bytes);
    let mut buf = bytes.as_slice();
    let decoded = T::decode(&mut buf).unwrap_or_else(|e| panic!("decode of {value:?} failed: {e}"));
    prop_assert_eq!(&decoded, value);
    prop_assert!(buf.is_empty(), "decode left {} bytes unconsumed", buf.len());
    for cut in 0..bytes.len() {
        let mut prefix = &bytes[..cut];
        prop_assert!(
            T::decode(&mut prefix).is_err(),
            "truncation to {} of {} bytes was accepted for {:?}",
            cut,
            bytes.len(),
            value
        );
    }
}

fn node(raw: u64) -> NodeId {
    NodeId::new(u32::try_from(raw).expect("drawn from ID"))
}

fn nodes(raws: Vec<u64>) -> Vec<NodeId> {
    raws.into_iter().map(node).collect()
}

fn option_node(pick: (u8, u64)) -> Option<NodeId> {
    (pick.0 == 1).then(|| node(pick.1))
}

/// `0..=u32::MAX`: every value a [`NodeId`] holds (it travels in eight bytes).
const ID: std::ops::Range<u64> = 0..1 << 32;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn expander_messages_round_trip(tag in 0u8..3, origin in ID, steps_left in 0u32..u32::MAX) {
        let msg = match tag {
            0 => ExpanderMsg::Intro,
            1 => ExpanderMsg::Token { origin: node(origin), steps_left },
            _ => ExpanderMsg::Accept,
        };
        assert_round_trip(&msg);
    }

    #[test]
    fn bfs_messages_round_trip(tag in 0u8..2, root in ID, dist in 0u32..u32::MAX) {
        let msg = match tag {
            0 => BfsMsg::Offer { root: node(root), dist },
            _ => BfsMsg::Child,
        };
        assert_round_trip(&msg);
    }

    #[test]
    fn relink_messages_round_trip(
        parent in ID,
        left in (0u8..2, ID),
        right in (0u8..2, ID),
    ) {
        assert_round_trip(&RelinkMsg {
            parent: node(parent),
            left: option_node(left),
            right: option_node(right),
        });
    }

    #[test]
    fn transport_wrapped_messages_round_trip(
        tag in 0u8..2,
        a in 0u32..u32::MAX,
        b in 0u32..u32::MAX,
        sel in 0u64..u64::MAX,
        origin in ID,
    ) {
        let msg: TransportMsg<ExpanderMsg> = if tag == 0 {
            TransportMsg::Data {
                seq: a,
                floor: b,
                payload: ExpanderMsg::Token { origin: node(origin), steps_left: 7 },
            }
        } else {
            TransportMsg::Ack { cum: a, sel }
        };
        assert_round_trip(&msg);
    }

    #[test]
    fn phase_summaries_round_trip(
        ids in (ID, ID, ID, ID),
        slots in proptest::collection::vec(ID, 0..8),
        children in proptest::collection::vec(ID, 0..8),
    ) {
        let (id, root, parent, new_parent) = ids;
        assert_round_trip(&ExpanderSummary { id: node(id), slots: nodes(slots) });
        assert_round_trip(&BfsSummary {
            id: node(id),
            root: node(root),
            parent: node(parent),
            children: nodes(children),
        });
        assert_round_trip(&BinarizeSummary { id: node(id), new_parent: node(new_parent) });
    }

    #[test]
    fn rosters_and_summary_bodies_round_trip(
        counts in (0u32..u32::MAX, 0u32..u32::MAX, 0u32..u32::MAX),
        config in 0u64..u64::MAX,
        addrs in proptest::collection::vec(proptest::collection::vec(0u8..255, 0..24), 0..6),
        entries in proptest::collection::vec((0u32..u32::MAX, proptest::collection::vec(0u8..255, 0..16)), 0..6),
        delivered in 0u64..u64::MAX,
    ) {
        let (n, procs, your_rank) = counts;
        assert_round_trip(&Roster { n, procs, your_rank, config, addrs });
        assert_round_trip(&SummaryBody { entries, delivered });
    }

    #[test]
    fn frames_round_trip_and_reject_header_truncation(
        kind_tag in 0u8..6,
        phase in 0u8..255,
        words in (0u32..u32::MAX, 0u32..u32::MAX, 0u32..u32::MAX, 0u32..u32::MAX),
        body in proptest::collection::vec(0u8..255, 0..32),
    ) {
        let mut tag_buf: &[u8] = &[kind_tag];
        let kind = FrameKind::decode(&mut tag_buf).unwrap();
        let (round, from, to, seq) = words;
        let frame = Frame { kind, phase, round, from, to, seq, body };
        let mut bytes = Vec::new();
        frame.encode(&mut bytes);
        let mut buf = bytes.as_slice();
        prop_assert_eq!(&Frame::decode(&mut buf).unwrap(), &frame);
        prop_assert!(buf.is_empty());
        // The body is the tail of the buffer, so only header cuts are
        // detectable at this layer; body truncation is caught by the stream
        // framing's length prefix (see `a_truncated_stream_is_an_error…`).
        for cut in 0..FRAME_HEADER_LEN.min(bytes.len()) {
            let mut prefix = &bytes[..cut];
            prop_assert!(Frame::decode(&mut prefix).is_err());
        }
    }

    #[test]
    fn foreign_wire_versions_are_refused(
        version in 0u8..255,
        body in proptest::collection::vec(0u8..255, 0..32),
    ) {
        if version == WIRE_VERSION {
            return;
        }
        let frame = Frame::data(0, 1, 2, 3, 4, body);
        let mut bytes = Vec::new();
        frame.encode(&mut bytes);
        bytes[0] = version;
        let mut buf = bytes.as_slice();
        prop_assert!(matches!(
            Frame::decode(&mut buf),
            Err(WireError::BadVersion(v)) if v == version
        ));
    }
}

#[test]
fn unknown_tags_are_rejected_not_misread() {
    let mut buf: &[u8] = &[3];
    assert!(matches!(
        ExpanderMsg::decode(&mut buf),
        Err(WireError::BadTag(3))
    ));
    let mut buf: &[u8] = &[2];
    assert!(matches!(
        BfsMsg::decode(&mut buf),
        Err(WireError::BadTag(2))
    ));
    let mut buf: &[u8] = &[2, 0, 0, 0, 0];
    assert!(matches!(
        <TransportMsg<ExpanderMsg>>::decode(&mut buf),
        Err(WireError::BadTag(2))
    ));
    let mut buf: &[u8] = &[6];
    assert!(matches!(
        FrameKind::decode(&mut buf),
        Err(WireError::BadTag(6))
    ));
}

#[test]
fn ids_past_32_bits_are_a_typed_error_not_a_panic_or_a_truncation() {
    for raw in [1u64 << 32, u64::MAX] {
        let mut token = vec![1];
        raw.encode(&mut token);
        7u32.encode(&mut token);
        let mut buf = token.as_slice();
        assert_eq!(
            ExpanderMsg::decode(&mut buf),
            Err(WireError::IdOutOfRange(raw))
        );

        let mut summary = Vec::new();
        raw.encode(&mut summary);
        Vec::<NodeId>::new().encode(&mut summary);
        let mut buf = summary.as_slice();
        assert_eq!(
            ExpanderSummary::decode(&mut buf),
            Err(WireError::IdOutOfRange(raw))
        );
    }
    // The largest value that fits still decodes, to itself.
    let mut bytes = Vec::new();
    u64::from(u32::MAX).encode(&mut bytes);
    assert_eq!(
        NodeId::decode(&mut bytes.as_slice()),
        Ok(NodeId::new(u32::MAX))
    );
}

#[test]
fn a_truncated_stream_is_an_error_not_a_clean_eof() {
    let frame = Frame::data(1, 2, 3, 4, 0, vec![9; 16]);
    let mut wire = Vec::new();
    frame.write_to(&mut wire).unwrap();
    // Clean EOF before any byte of a frame is the normal end of stream…
    let mut empty: &[u8] = &[];
    assert!(matches!(Frame::read_from(&mut empty), Ok(None)));
    // …but a cut anywhere inside a frame is a hard error.
    for cut in 1..wire.len() {
        let mut truncated: &[u8] = &wire[..cut];
        assert!(
            Frame::read_from(&mut truncated).is_err(),
            "stream cut at byte {cut} of {} read as clean",
            wire.len()
        );
    }
}
