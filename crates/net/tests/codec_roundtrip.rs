//! Property tests for the wire codec: every message that can cross a socket
//! round-trips byte-exactly, every truncation is rejected, and frames from a
//! different wire version are refused outright. One table pins the bytes
//! themselves, so a layout change that stays self-consistent (two fields
//! swapped, a tag renumbered) still fails here.

use overlay_core::{BfsMsg, BfsSummary, ExpanderMsg};
use overlay_graph::NodeId;
use overlay_net::{Frame, FrameKind, Roster, SummaryBody, WIRE_VERSION};
use overlay_netsim::{Channel, Wire, WireError};
use overlay_traffic::{Delivery, RouterMsg, RouterSummary};
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

/// `0..=u32::MAX`: every value a [`NodeId`] holds (it travels in its four bytes).
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
    fn binarize_messages_round_trip(parent in ID) {
        assert_round_trip(&node(parent));
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
        ids in (ID, ID, ID),
        slots in proptest::collection::vec(ID, 0..8),
        children in proptest::collection::vec(ID, 0..8),
    ) {
        let (root, parent, new_parent) = ids;
        assert_round_trip(&nodes(slots));
        assert_round_trip(&BfsSummary {
            root: node(root),
            parent: node(parent),
            children: nodes(children),
        });
        assert_round_trip(&node(new_parent));
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

/// Lowercase hex, two digits a byte.
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Parses `layout` (hex, whitespace ignored: one group a field).
fn unhex(layout: &str) -> Vec<u8> {
    let digits: Vec<u8> = layout
        .bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

/// `value` encodes to exactly `layout`, and `layout` decodes to `value`.
fn pin<T: Wire + PartialEq + std::fmt::Debug>(value: T, layout: &str) {
    let want = unhex(layout);
    let mut got = Vec::new();
    value.encode(&mut got);
    assert_eq!(hex(&got), hex(&want), "the encoding of {value:?}");
    let mut buf = want.as_slice();
    assert_eq!(T::decode(&mut buf), Ok(value));
    assert!(buf.is_empty(), "decode left {} bytes", buf.len());
}

/// One fixed value of every variant of every type that crosses a socket,
/// against its committed bytes. No two fields of one value are equal, so
/// swapping two fields moves a byte. Integers are little-endian, a `NodeId`
/// is its four bytes (as the frame header's ids are), a `Vec` is a `u32`
/// count then its elements, an enum a tag byte then its fields. The binarize
/// message and digest are a bare `NodeId`, the construction digest a bare
/// `Vec<NodeId>`.
#[test]
fn every_wire_type_keeps_its_committed_byte_layout() {
    let id = NodeId::new;

    pin(Channel::Local, "00");
    pin(Channel::Global, "01");

    pin(ExpanderMsg::Intro, "00");
    pin(
        ExpanderMsg::Token {
            origin: id(0x0a0b_0c0d),
            steps_left: 5,
        },
        "01 0d0c0b0a 05000000",
    );
    pin(ExpanderMsg::Accept, "02");
    pin(
        BfsMsg::Offer {
            root: id(7),
            dist: 3,
        },
        "00 07000000 03000000",
    );
    pin(BfsMsg::Child, "01");
    pin(id(0x0a0b_0c0d), "0d0c0b0a");

    pin(vec![id(5), id(6)], "02000000 05000000 06000000");
    pin(
        BfsSummary {
            root: id(3),
            parent: id(2),
            children: vec![id(9)],
        },
        "03000000 02000000 01000000 09000000",
    );

    pin(
        TransportMsg::Data {
            seq: 9,
            floor: 4,
            payload: ExpanderMsg::Accept,
        },
        "00 09000000 04000000 02",
    );
    pin(
        TransportMsg::<ExpanderMsg>::Ack {
            cum: 7,
            sel: 0x0102,
        },
        "01 07000000 0201000000000000",
    );

    pin(
        RouterMsg {
            id: 1 << 32 | 7,
            dst: id(3),
            injected: 4,
            hops: 1,
        },
        "0700000001000000 03000000 04000000 01000000",
    );
    let delivery = Delivery {
        id: 1 << 32 | 2,
        hops: 3,
        injected: 4,
        delivered: 9,
    };
    pin(delivery, "0200000001000000 03000000 04000000 09000000");
    pin(
        RouterSummary {
            injected: 2,
            deliveries: vec![delivery],
            dropped: vec![5],
            expired: vec![],
            forwards: 11,
            max_edge_load: 6,
        },
        "02000000 \
         01000000 0200000001000000 03000000 04000000 09000000 \
         01000000 0500000000000000 \
         00000000 \
         0b00000000000000 \
         06000000",
    );

    let kinds = [
        FrameKind::Hello,
        FrameKind::Roster,
        FrameKind::Data,
        FrameKind::Done,
        FrameKind::Summary,
        FrameKind::Bye,
    ];
    for (tag, kind) in kinds.into_iter().enumerate() {
        pin(kind, &format!("{tag:02x}"));
    }
    pin(
        Roster {
            n: 16,
            procs: 2,
            your_rank: 1,
            config: 0xbeef,
            addrs: vec![b"a:1".to_vec()],
        },
        "10000000 02000000 01000000 efbe000000000000 01000000 03000000 613a31",
    );
    pin(
        SummaryBody {
            entries: vec![(3, vec![0xaa, 0xbb]), (4, vec![])],
            delivered: 12,
        },
        "02000000 03000000 02000000 aabb 04000000 00000000 0c00000000000000",
    );

    // A frame is a version byte, its header, and its body unprefixed.
    let frame = Frame::data(6, 7, 3, 9, 1, vec![0xca, 0xfe]);
    let layout = unhex("02 02 06 07000000 03000000 09000000 01000000 cafe");
    let mut got = Vec::new();
    frame.encode(&mut got);
    assert_eq!(hex(&got), hex(&layout));
    assert_eq!(Frame::decode(&mut layout.as_slice()), Ok(frame));
}
