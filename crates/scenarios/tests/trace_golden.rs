//! Golden trace digests: four traced runs whose JSONL event streams are
//! pinned byte for byte, so a change that moves a trace — an event emitted
//! twice, a phase bracket out of place, a field renumbered — fails tier-1
//! instead of waiting for a hand `cmp` against the previous commit.
//!
//! Each cell is the only committed one that reaches some part of the trace
//! format (see the comments in [`GOLDEN`]). A digest is FNV-1a 64 over
//! `to_jsonl(&scenario.run_traced(seed).events)`. After an intended
//! change to the trace, regenerate the constants from the failure message.

use overlay_scenarios::{find, to_jsonl, TraceEvent};

/// `(scenario, seed, FNV-1a 64 of the JSONL trace)`.
const GOLDEN: [(&str, u64, u64); 5] = [
    // Crashes, offline drops, and the post-mortem `--trace` prints.
    ("crash-then-loss", 3, 0x2afb91c33aa8e626),
    // The transport's `retransmits` events under loss.
    ("lossy-ncc0-reliable", 1, 0x44463bce57a12b46),
    // The transport's `give-ups`: retries to crashed peers abandoned.
    ("crash-ncc0-reliable", 0, 0xb2ec4daf29269169),
    // Maintenance `epoch`, `re-invite` and `repair` events, plus the traffic
    // brackets the scenario harness emits by hand after each epoch's wave.
    ("traffic-serve-churn", 0, 0x2adbf3d01f4e09d3),
    // A traffic wave behind `Reliable<Router>`.
    ("traffic-zipf-lossy-reliable", 2, 0x3287412fbef75a18),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn traced(name: &str, seed: u64) -> Vec<TraceEvent> {
    find(name)
        .unwrap_or_else(|| panic!("{name} is registered"))
        .run_traced(seed)
        .events
}

#[test]
fn traces_match_their_golden_digests() {
    let measured: Vec<(&str, u64, u64)> = GOLDEN
        .iter()
        .map(|&(name, seed, _)| {
            let digest = fnv1a64(to_jsonl(&traced(name, seed)).as_bytes());
            (name, seed, digest)
        })
        .collect();
    let table: String = measured
        .iter()
        .map(|(name, seed, digest)| format!("    (\"{name}\", {seed}, {digest:#018x}),\n"))
        .collect();
    assert_eq!(measured, GOLDEN, "measured digests:\n{table}");
}

/// The cells still reach what [`GOLDEN`] says they pin.
#[test]
fn each_golden_cell_reaches_its_events() {
    let has = |events: &[TraceEvent], pred: fn(&TraceEvent) -> bool| events.iter().any(pred);

    let crash = traced("crash-then-loss", 3);
    assert!(has(&crash, |e| matches!(e, TraceEvent::Crash { .. })));
    assert!(has(&crash, |e| matches!(
        e,
        TraceEvent::Drop {
            cause: overlay_netsim::DropCause::Offline,
            ..
        }
    )));

    let lossy = traced("lossy-ncc0-reliable", 1);
    assert!(has(&lossy, |e| matches!(e, TraceEvent::Retransmits { .. })));

    let crashed = traced("crash-ncc0-reliable", 0);
    assert!(has(&crashed, |e| matches!(e, TraceEvent::GiveUps { .. })));

    let serve = traced("traffic-serve-churn", 0);
    assert!(has(&serve, |e| matches!(e, TraceEvent::Epoch { .. })));
    assert!(has(&serve, |e| matches!(e, TraceEvent::ReInvite { .. })));
    assert!(has(&serve, |e| matches!(e, TraceEvent::Repair { .. })));
    assert!(has(&serve, |e| matches!(
        e,
        TraceEvent::PhaseStart { phase: "traffic" }
    )));

    let zipf = traced("traffic-zipf-lossy-reliable", 2);
    assert!(has(&zipf, |e| matches!(
        e,
        TraceEvent::PhaseStart { phase: "traffic" }
    )));
    assert!(has(&zipf, |e| matches!(
        e,
        TraceEvent::RequestDelivered { .. }
    )));
}
