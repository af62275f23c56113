//! JSONL serialization of structured run traces.
//!
//! A traced run ([`crate::Scenario::run_traced`]) yields a stream of
//! [`TraceEvent`]s; this module renders it as JSON Lines — one compact JSON
//! object per event, in emission order — the format `sweep_runner --trace`
//! writes under `reports/traces/`. Serialization is a pure function of the
//! event stream, so one `(scenario, seed)` always produces a byte-identical
//! trace file.
//!
//! # Schema
//!
//! Every line is an object with an `event` discriminator; all other keys are
//! fixed per event kind and always present:
//!
//! | `event` | keys | meaning |
//! |---|---|---|
//! | `round-start` | `round` | a simulated round began |
//! | `round-end` | `round`, `delivered`, `dropped` | round finished, with delivery totals |
//! | `phase-start` | `phase` | a pipeline phase began |
//! | `phase-end` | `phase`, `rounds`, `completed` | phase finished (or stalled: `completed: false`) |
//! | `drop` | `round`, `from`, `to`, `channel`, `cause` | a message was lost |
//! | `crash` | `round`, `node` | crash-stop at the start of `round` |
//! | `join` | `round`, `node` | late joiner activated |
//! | `retransmits` | `round`, `node`, `count` | transport re-sends by `node` this round |
//! | `give-ups` | `round`, `node`, `count` | transport abandonments by `node` this round |
//! | `epoch` | `epoch`, `round`, `alive`, `stragglers` | maintenance epoch boundary processed |
//! | `re-invite` | `epoch`, `joiner`, `contact`, `delivered` | re-invitation issued to a straggler |
//! | `repair` | `epoch`, `healed`, `tree-valid` | repair evolution ran at an epoch boundary |
//! | `request-injected` | `round`, `src`, `dst` | a traffic request entered its source's queue |
//! | `request-delivered` | `round`, `dst`, `hops`, `latency` | a traffic request reached its destination |
//! | `request-dropped` | `node`, `dropped`, `expired` | per-node traffic shed rollup (overflow/no-route vs TTL) |
//!
//! `round` numbers restart at 0 inside each `phase-start`/`phase-end` pair
//! (each phase is its own simulation). `from`/`to`/`node` are node indices
//! *within the phase's simulation*: phases after the survivor-core remap
//! (`bfs`, `binarize`) number the core nodes 0..core_size, and
//! `BuildReport::survivor_ids` maps them back to original ids — the forensics
//! analyzer does this for you. `channel` is `"global"` or `"local"`;
//! `cause` is a [`overlay_netsim::DropCause::label`] (see the glossary on
//! `overlay_netsim::RoundMetrics`).

use crate::json::Json;
use overlay_netsim::{Channel, TraceEvent};

fn channel_label(channel: Channel) -> &'static str {
    match channel {
        Channel::Global => "global",
        Channel::Local => "local",
    }
}

/// Renders one event as its JSONL object (see the module-level schema).
pub(crate) fn event_json(event: &TraceEvent) -> Json {
    let uint = |v: usize| Json::UInt(v as u64);
    match *event {
        TraceEvent::RoundStart { round } => Json::obj(vec![
            ("event", Json::Str("round-start".into())),
            ("round", uint(round)),
        ]),
        TraceEvent::RoundEnd {
            round,
            delivered,
            dropped,
        } => Json::obj(vec![
            ("event", Json::Str("round-end".into())),
            ("round", uint(round)),
            ("delivered", Json::UInt(delivered)),
            ("dropped", Json::UInt(dropped)),
        ]),
        TraceEvent::PhaseStart { phase } => Json::obj(vec![
            ("event", Json::Str("phase-start".into())),
            ("phase", Json::Str(phase.into())),
        ]),
        TraceEvent::PhaseEnd {
            phase,
            rounds,
            completed,
        } => Json::obj(vec![
            ("event", Json::Str("phase-end".into())),
            ("phase", Json::Str(phase.into())),
            ("rounds", uint(rounds)),
            ("completed", Json::Bool(completed)),
        ]),
        TraceEvent::Drop {
            round,
            from,
            to,
            channel,
            cause,
        } => Json::obj(vec![
            ("event", Json::Str("drop".into())),
            ("round", uint(round)),
            ("from", uint(from.index())),
            ("to", uint(to.index())),
            ("channel", Json::Str(channel_label(channel).into())),
            ("cause", Json::Str(cause.label().into())),
        ]),
        TraceEvent::Crash { round, node } => Json::obj(vec![
            ("event", Json::Str("crash".into())),
            ("round", uint(round)),
            ("node", uint(node.index())),
        ]),
        TraceEvent::Join { round, node } => Json::obj(vec![
            ("event", Json::Str("join".into())),
            ("round", uint(round)),
            ("node", uint(node.index())),
        ]),
        TraceEvent::Retransmits { round, node, count } => Json::obj(vec![
            ("event", Json::Str("retransmits".into())),
            ("round", uint(round)),
            ("node", uint(node.index())),
            ("count", Json::UInt(count)),
        ]),
        TraceEvent::GiveUps { round, node, count } => Json::obj(vec![
            ("event", Json::Str("give-ups".into())),
            ("round", uint(round)),
            ("node", uint(node.index())),
            ("count", Json::UInt(count)),
        ]),
        TraceEvent::Epoch {
            epoch,
            round,
            alive,
            stragglers,
        } => Json::obj(vec![
            ("event", Json::Str("epoch".into())),
            ("epoch", uint(epoch)),
            ("round", uint(round)),
            ("alive", uint(alive)),
            ("stragglers", uint(stragglers)),
        ]),
        TraceEvent::ReInvite {
            epoch,
            joiner,
            contact,
            delivered,
        } => Json::obj(vec![
            ("event", Json::Str("re-invite".into())),
            ("epoch", uint(epoch)),
            ("joiner", uint(joiner.index())),
            ("contact", uint(contact.index())),
            ("delivered", Json::Bool(delivered)),
        ]),
        TraceEvent::Repair {
            epoch,
            healed,
            tree_valid,
        } => Json::obj(vec![
            ("event", Json::Str("repair".into())),
            ("epoch", uint(epoch)),
            ("healed", uint(healed)),
            ("tree-valid", Json::Bool(tree_valid)),
        ]),
        TraceEvent::RequestInjected { round, src, dst } => Json::obj(vec![
            ("event", Json::Str("request-injected".into())),
            ("round", uint(round)),
            ("src", uint(src.index())),
            ("dst", uint(dst.index())),
        ]),
        TraceEvent::RequestDelivered {
            round,
            dst,
            hops,
            latency,
        } => Json::obj(vec![
            ("event", Json::Str("request-delivered".into())),
            ("round", uint(round)),
            ("dst", uint(dst.index())),
            ("hops", uint(hops)),
            ("latency", uint(latency)),
        ]),
        TraceEvent::RequestDropped {
            node,
            dropped,
            expired,
        } => Json::obj(vec![
            ("event", Json::Str("request-dropped".into())),
            ("node", uint(node.index())),
            ("dropped", uint(dropped)),
            ("expired", uint(expired)),
        ]),
    }
}

/// Renders a whole event stream as JSON Lines: one compact object per event,
/// each line newline-terminated. Deterministic for a deterministic stream.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event_json(event).render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{FaultSpec, GraphFamily, Scenario};

    fn stormy() -> Scenario {
        Scenario::new("trace-jsonl-x", "x", GraphFamily::Cycle, 48).with_faults(
            FaultSpec::CrashThenLoss {
                fraction: 0.15,
                at: 0.4,
                drop_prob: 0.05,
            },
        )
    }

    #[test]
    fn same_scenario_and_seed_give_byte_identical_traces() {
        let a = to_jsonl(&stormy().run_traced(3).events);
        let b = to_jsonl(&stormy().run_traced(3).events);
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn every_line_parses_and_carries_the_discriminator() {
        let jsonl = to_jsonl(&stormy().run_traced(3).events);
        let mut kinds = std::collections::BTreeSet::new();
        for line in jsonl.lines() {
            let value = Json::parse(line).expect("valid JSON line");
            let Json::Obj(fields) = value else {
                panic!("each line must be an object");
            };
            let (key, event) = &fields[0];
            assert_eq!(key, "event", "discriminator comes first");
            let Json::Str(kind) = event else {
                panic!("event must be a string");
            };
            kinds.insert(kind.clone());
        }
        // The stormy scenario exercises the core of the schema.
        for expected in [
            "round-start",
            "round-end",
            "phase-start",
            "phase-end",
            "drop",
            "crash",
        ] {
            assert!(kinds.contains(expected), "missing {expected}: {kinds:?}");
        }
    }
}
