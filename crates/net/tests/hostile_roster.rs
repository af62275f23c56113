//! A joiner validates the roster it decodes off the wire: a malformed one is a
//! typed [`NetError`], never an unwind.

use overlay_net::{Frame, FrameKind, NetError, Roster, TcpBackend};
use overlay_netsim::wire::Wire;
use std::net::TcpListener;
use std::time::Duration;

#[test]
fn a_roster_with_too_few_addresses_is_a_protocol_error() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound").to_string();
    // A scripted rank 0: take the joiner's Hello, then hand it rank 2 of 3
    // without the mesh address of rank 1 it would have to dial.
    let zero = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("the joiner dials");
        let hello = Frame::read_from(&mut stream).expect("readable");
        assert_eq!(hello.map(|f| f.kind), Some(FrameKind::Hello));
        let roster = Roster {
            n: 12,
            procs: 3,
            your_rank: 2,
            config: 0,
            addrs: vec![],
        };
        let mut frame = Frame::control(FrameKind::Roster, 0, 0, 0, 2);
        roster.encode(&mut frame.body);
        frame.write_to(&mut stream).expect("writable");
        stream
    });
    let joined = TcpBackend::join(&addr, Duration::from_secs(5));
    let _open_until_here = zero.join().expect("the scripted rank 0 ran to its end");
    match joined {
        Err(NetError::Protocol(why)) => assert!(why.contains("mesh addresses"), "{why}"),
        Err(other) => panic!("expected a protocol error, got {other}"),
        Ok(_) => panic!("a roster without mesh addresses was accepted"),
    }
}
