//! Failure post-mortems from structured run traces.
//!
//! Aggregate sweep counters say *that* a cell failed; the post-mortem says
//! *why*. [`post_mortem`] consumes a traced run ([`crate::Scenario::run_traced`])
//! and distills the forensic facts a person reverse-engineers by hand today:
//! which phase failed, which nodes are missing from the final overlay and when
//! each went dark, which drop cause dominated each phase, and how much
//! transport effort was burned retransmitting to peers that were already dead.
//!
//! Node ids in the trace are simulation-local (phases after the survivor-core
//! remap number the core 0..core_size); the analyzer folds them back to
//! original ids through `BuildReport::survivor_ids`, so everything a
//! [`PostMortem`] reports is in the caller's id space.

use crate::scenario::{ForensicRun, Scenario};
use overlay_core::PhaseId;
use overlay_netsim::TraceEvent;
use std::collections::BTreeMap;

/// Why a node is absent from the final overlay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MissingCause {
    /// The node crashed (crash-stop) and never came back.
    Crashed,
    /// The node survived construction but landed outside the largest surviving
    /// component when the core was extracted.
    OutsideCore,
}

/// One node missing from the final overlay: who, since when, and why.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MissingNode {
    /// The node's original id.
    pub node: usize,
    /// The first *global* round (cumulative across phases) the node went dark:
    /// its crash round, or the end of construction for nodes cut with the core.
    pub first_silent: usize,
    /// Why the node is missing.
    pub cause: MissingCause,
}

/// The distilled facts of one failed (or suspicious) run.
#[derive(Clone, Debug)]
pub struct PostMortem {
    /// The scenario's name.
    pub scenario: String,
    /// The seed of the analyzed run.
    pub seed: u64,
    /// `true` when the run did not produce a valid tree over the final
    /// survivors.
    pub failed: bool,
    /// The phase that sank the run: the first stalled phase, or `finalize` when
    /// every phase completed but the tree failed validation. `None` for
    /// successful runs.
    pub failing_phase: Option<&'static str>,
    /// Every node absent from the final overlay, ordered by id.
    pub missing: Vec<MissingNode>,
    /// Per simulated phase, the dominant drop cause as `(phase, cause, count)`
    /// — phases that dropped nothing are omitted.
    pub dominant_drops: Vec<(&'static str, &'static str, u64)>,
    /// Messages addressed to already-crashed nodes (`offline` drops to peers in
    /// the missing set) — the "dead-peer burn" that retransmission budgets leak
    /// into.
    pub dead_peer_burn: u64,
    /// Total transport retransmissions across the run.
    pub retransmits: u64,
    /// Total transport give-ups (payloads abandoned on presumed-dead peers).
    pub give_ups: u64,
}

/// Analyzes one traced run into a [`PostMortem`]. Works for successful runs
/// too ([`PostMortem::failed`] is `false`); `--explain` only prints it for
/// failures.
pub fn post_mortem(scenario: &Scenario, run: &ForensicRun) -> PostMortem {
    let n = scenario.actual_n();
    let report = &run.report;

    // Map a simulation-local id to the original id: phases on the remapped
    // core go through survivor_ids, the construction phase is the identity.
    let survivors: Vec<usize> = report.survivor_ids.iter().map(|v| v.index()).collect();
    let to_original = |phase: &str, local: usize| -> usize {
        if phase == PhaseId::CreateExpander.name() || survivors.is_empty() {
            local
        } else {
            survivors.get(local).copied().unwrap_or(local)
        }
    };

    // Scan the event stream once, tracking the current phase and the global
    // round offset (rounds completed by earlier phases).
    let mut phase = PhaseId::CreateExpander.name();
    let mut offset = 0usize;
    let mut construction_end = 0usize;
    let mut crashed: BTreeMap<usize, usize> = BTreeMap::new(); // id -> first silent round
    let mut offline_drops_to: BTreeMap<usize, u64> = BTreeMap::new();
    for event in &run.events {
        match event {
            TraceEvent::PhaseStart { phase: name } => phase = name,
            TraceEvent::PhaseEnd {
                phase: name,
                rounds,
                ..
            } => {
                if *name == PhaseId::CreateExpander.name() {
                    construction_end = offset + rounds;
                }
                offset += rounds;
            }
            TraceEvent::Crash { round, node } => {
                crashed
                    .entry(to_original(phase, node.index()))
                    .or_insert(offset + round);
            }
            TraceEvent::Drop { to, cause, .. } if *cause == overlay_netsim::DropCause::Offline => {
                *offline_drops_to
                    .entry(to_original(phase, to.index()))
                    .or_insert(0) += 1;
            }
            _ => {}
        }
    }

    // The missing set: every crashed node, plus — once a core exists — every
    // node the core extraction left behind.
    let mut missing: BTreeMap<usize, MissingNode> = crashed
        .iter()
        .map(|(&node, &first_silent)| {
            (
                node,
                MissingNode {
                    node,
                    first_silent,
                    cause: MissingCause::Crashed,
                },
            )
        })
        .collect();
    if !survivors.is_empty() {
        for node in 0..n {
            if !survivors.contains(&node) {
                missing.entry(node).or_insert(MissingNode {
                    node,
                    first_silent: construction_end,
                    cause: MissingCause::OutsideCore,
                });
            }
        }
    }

    let dead_peer_burn = missing
        .keys()
        .map(|node| offline_drops_to.get(node).copied().unwrap_or(0))
        .sum();

    let dominant_drops = report
        .phase_metrics
        .iter()
        .filter_map(|m| {
            let (cause, count) = m.totals.dominant_drop()?;
            Some((m.phase, cause.label(), count))
        })
        .collect();

    let failed = !run.record.success;
    let failing_phase = if !failed {
        None
    } else if !run.record.stalled_phase.is_empty() {
        Some(run.record.stalled_phase)
    } else {
        Some("finalize")
    };

    PostMortem {
        scenario: scenario.name.clone(),
        seed: run.record.seed,
        failed,
        failing_phase,
        missing: missing.into_values().collect(),
        dominant_drops,
        dead_peer_burn,
        retransmits: run.record.messages.retransmits,
        give_ups: report
            .phase_metrics
            .iter()
            .map(|m| m.totals.transport.give_ups)
            .sum(),
    }
}

impl PostMortem {
    /// Renders the post-mortem as a short human-readable block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let verdict = if self.failed { "FAILED" } else { "ok" };
        out.push_str(&format!(
            "post-mortem {} seed {}: {}\n",
            self.scenario, self.seed, verdict
        ));
        if let Some(phase) = self.failing_phase {
            out.push_str(&format!("  failing phase: {phase}\n"));
        }
        if self.missing.is_empty() {
            out.push_str("  missing nodes: none\n");
        } else {
            let ids: Vec<String> = self
                .missing
                .iter()
                .map(|m| {
                    let tag = match m.cause {
                        MissingCause::Crashed => "crashed",
                        MissingCause::OutsideCore => "cut",
                    };
                    format!("{} ({} r{})", m.node, tag, m.first_silent)
                })
                .collect();
            out.push_str(&format!(
                "  missing nodes ({}): {}\n",
                self.missing.len(),
                ids.join(", ")
            ));
        }
        for (phase, cause, count) in &self.dominant_drops {
            out.push_str(&format!(
                "  dominant drop in {phase}: {cause} ({count} messages)\n"
            ));
        }
        if self.retransmits > 0 || self.dead_peer_burn > 0 {
            out.push_str(&format!(
                "  transport: {} retransmits, {} give-ups, {} messages burned on dead peers\n",
                self.retransmits, self.give_ups, self.dead_peer_burn
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::find;

    #[test]
    fn explains_a_failed_crash_then_loss_seed() {
        let scenario = find("crash-then-loss").expect("registered scenario");
        // The cell fails on almost every seed (~6% success); find one.
        let (seed, run) = (0..16)
            .map(|seed| (seed, scenario.run_traced(seed)))
            .find(|(_, run)| !run.record.success)
            .expect("crash-then-loss must fail within 16 seeds");

        let pm = post_mortem(&scenario, &run);
        assert!(pm.failed);
        assert_eq!(pm.seed, seed);
        let phase = pm.failing_phase.expect("a failing phase is named");
        assert!(!phase.is_empty());
        // A crash wave hit: the crashed nodes appear with their crash round.
        assert!(!pm.missing.is_empty(), "crash wave leaves missing nodes");
        assert!(pm.missing.iter().any(|m| m.cause == MissingCause::Crashed));
        assert_eq!(pm.missing.len(), {
            let mut ids: Vec<usize> = pm.missing.iter().map(|m| m.node).collect();
            ids.dedup();
            ids.len()
        });
        // Loss plus a crash wave must register a dominant drop cause somewhere.
        assert!(!pm.dominant_drops.is_empty());
        let rendered = pm.render();
        assert!(rendered.contains("FAILED"));
        assert!(rendered.contains("failing phase"));
        assert!(rendered.contains("missing nodes"));
        assert!(rendered.contains("dominant drop"));
    }

    #[test]
    fn successful_runs_produce_a_clean_post_mortem() {
        let scenario = find("clean-line").expect("registered scenario");
        let run = scenario.run_traced(0);
        assert!(run.record.success, "clean-line seed 0 succeeds");
        let pm = post_mortem(&scenario, &run);
        assert!(!pm.failed);
        assert_eq!(pm.failing_phase, None);
        assert!(pm.missing.is_empty());
        assert_eq!(pm.dead_peer_burn, 0);
    }
}
