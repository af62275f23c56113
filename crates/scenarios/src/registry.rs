//! The first-class scenario registry: validated construction, indexed lookup,
//! tag filtering, and the baseline↔twin pairing iterator.
//!
//! The built-in matrix ([`registry`]) holds the hand-authored baselines plus
//! every *derived* cell: the reliable-transport twins and the phase-override,
//! re-invitation and traffic variants — all constructed through the variant
//! axis API ([`Scenario::reliable`], [`Scenario::with_phases`],
//! [`Scenario::with_reinvitation`], [`Scenario::with_traffic_axis`]), so adding
//! a matrix cell is one derivation line, not a copy-pasted struct. It is the
//! only registry: the scaling harness's large-`n` cells are its baselines at a
//! bigger `n` (see `scaling::scaling_cells`), not registered cells.

use crate::scenario::{FaultSpec, GraphFamily, Scenario, ServeSpec, TrafficSpec, VariantAxis};
use overlay_core::{PhaseId, PhaseOverrides, RoundBudget};
use overlay_netsim::{CrashBurst, TransportConfig};
use overlay_traffic::{RoutingPolicy, Workload};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Why a [`Registry`] refused a scenario set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// A scenario name is empty, not kebab-case, or dash-delimited incorrectly.
    InvalidName(String),
    /// Two scenarios share a name.
    DuplicateName(String),
    /// A scenario's `baseline` field names no scenario in this registry.
    UnresolvedBaseline {
        /// The twin whose pairing is dangling.
        scenario: String,
        /// The baseline name that did not resolve.
        baseline: String,
    },
    /// `baseline` and `axis` must be set together: a pairing without a declared
    /// axis cannot be validated, and an axis without a baseline is meaningless.
    MissingAxis(String),
    /// A twin differs from its baseline somewhere other than its declared axis
    /// (or does not differ along the axis at all).
    AxisViolation {
        /// The offending twin.
        scenario: String,
        /// What the per-axis check found.
        problem: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::InvalidName(name) => {
                write!(f, "scenario name {name:?} is not kebab-case")
            }
            RegistryError::DuplicateName(name) => {
                write!(f, "duplicate scenario name {name:?}")
            }
            RegistryError::UnresolvedBaseline { scenario, baseline } => {
                write!(f, "{scenario}: baseline {baseline:?} is not registered")
            }
            RegistryError::MissingAxis(name) => {
                write!(f, "{name}: baseline and axis must be declared together")
            }
            RegistryError::AxisViolation { scenario, problem } => {
                write!(f, "{scenario}: {problem}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// A validated, indexed set of scenarios.
///
/// Construction ([`Registry::new`]) checks that every name is unique kebab-case,
/// that every [`Scenario::baseline`] reference resolves, and that every twin
/// differs from its baseline *only along its declared axis* — so a registry that
/// builds at all is guaranteed internally consistent, and lookups
/// ([`Registry::find`]) are indexed instead of rescanning (the old free
/// function rebuilt the whole scenario list per lookup).
#[derive(Clone, Debug)]
pub struct Registry {
    scenarios: Vec<Scenario>,
    index: HashMap<String, usize>,
}

impl Registry {
    /// Builds and validates a registry whose baseline references must all
    /// resolve within `scenarios` itself.
    ///
    /// # Errors
    ///
    /// Returns the first [`RegistryError`] found, in scenario order.
    pub fn new(scenarios: Vec<Scenario>) -> Result<Self, RegistryError> {
        let mut index = HashMap::with_capacity(scenarios.len());
        for (i, s) in scenarios.iter().enumerate() {
            if !is_kebab_case(&s.name) {
                return Err(RegistryError::InvalidName(s.name.clone()));
            }
            if index.insert(s.name.clone(), i).is_some() {
                return Err(RegistryError::DuplicateName(s.name.clone()));
            }
        }
        let registry = Registry { scenarios, index };
        for twin in &registry.scenarios {
            let (baseline, axis) = match (&twin.baseline, twin.axis) {
                (None, None) => continue,
                (Some(b), Some(axis)) => (b, axis),
                _ => return Err(RegistryError::MissingAxis(twin.name.clone())),
            };
            let Some(base) = registry.find(baseline) else {
                return Err(RegistryError::UnresolvedBaseline {
                    scenario: twin.name.clone(),
                    baseline: baseline.clone(),
                });
            };
            if let Err(problem) = validate_axis(base, twin, axis) {
                return Err(RegistryError::AxisViolation {
                    scenario: twin.name.clone(),
                    problem,
                });
            }
        }
        Ok(registry)
    }

    /// Indexed lookup by registry name.
    pub fn find(&self, name: &str) -> Option<&Scenario> {
        self.index.get(name).map(|&i| &self.scenarios[i])
    }

    /// The scenarios, in registration order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Iterates the scenarios in registration order.
    pub fn iter(&self) -> std::slice::Iter<'_, Scenario> {
        self.scenarios.iter()
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// `true` when no scenario is registered.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.scenarios.iter().map(|s| s.name.as_str())
    }

    /// Iterates the `(baseline, twin)` couples whose members are *both* in this
    /// registry, in twin registration order — the input to baseline-vs-twin
    /// delta tables (`sweep_runner --compare`).
    pub fn pairs(&self) -> impl Iterator<Item = (&Scenario, &Scenario)> {
        self.scenarios.iter().filter_map(|twin| {
            let base = self.find(twin.baseline.as_deref()?)?;
            Some((base, twin))
        })
    }
}

impl<'a> IntoIterator for &'a Registry {
    type Item = &'a Scenario;
    type IntoIter = std::slice::Iter<'a, Scenario>;

    fn into_iter(self) -> Self::IntoIter {
        self.scenarios.iter()
    }
}

fn is_kebab_case(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with('-')
        && !name.ends_with('-')
        && !name.contains("--")
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
}

type SameField = fn(&Scenario, &Scenario) -> bool;

/// The fields that make two scenarios the same experiment, each with the name
/// a [`RegistryError::AxisViolation`] reports it under. Name, description,
/// tags and pairing metadata are labels; parallelism is result-invisible.
const EXPERIMENT_FIELDS: [(&str, SameField); 8] = [
    ("graph family", |a, b| a.family == b.family),
    ("n", |a, b| a.n == b.n),
    ("fault load", |a, b| a.faults == b.faults),
    ("serve spec", |a, b| a.serve == b.serve),
    ("traffic spec", |a, b| a.traffic == b.traffic),
    ("transport", |a, b| a.transport == b.transport),
    ("phase overrides", |a, b| a.phases == b.phases),
    ("round budget", |a, b| a.round_budget == b.round_budget),
];

/// Checks that `twin` differs from `base` only along `axis`: the twin moved
/// back along its axis — the axis's own field(s) reset to the baseline's —
/// must be the same experiment as the baseline, and the twin must actually
/// have moved.
fn validate_axis(base: &Scenario, twin: &Scenario, axis: VariantAxis) -> Result<(), String> {
    let mut rest = twin.clone();
    let moved = match axis {
        VariantAxis::Transport => {
            // The flat retry slack belongs to the axis; the percent multiplier
            // does not.
            rest.transport = base.transport;
            rest.round_budget = twin.round_budget.with_slack(base.round_budget.slack());
            base.transport.is_none() && twin.transport.is_some()
        }
        VariantAxis::Phases => {
            rest.phases = base.phases;
            !twin.phases.is_empty() && twin.phases != base.phases
        }
        // Only the re-invitation switch is the axis's, and only off → on.
        VariantAxis::Maintenance => match (base.serve, rest.serve.as_mut()) {
            (Some(b), Some(t)) => {
                let switched_on = !b.reinvite && t.reinvite;
                t.reinvite = b.reinvite;
                switched_on
            }
            _ => false,
        },
        VariantAxis::Traffic => {
            rest.traffic = base.traffic;
            base.traffic.is_some() && twin.traffic.is_some() && twin.traffic != base.traffic
        }
    };
    let label = axis.label();
    let mut problems: Vec<String> = EXPERIMENT_FIELDS
        .iter()
        .filter(|(_, same)| !same(base, &rest))
        .map(|(field, _)| format!("{label} twin changed the {field}"))
        .collect();
    if !moved {
        problems.push(format!("{label} twin does not move along its axis"));
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(format!("axis {label} violated: {}", problems.join("; ")))
    }
}

/// The hand-authored baselines: the paper's clean settings plus one scenario per
/// fault family. Sizes are laptop-friendly so the whole registry sweeps in
/// seconds; the specs are fractions of `n` and of the round schedule, so scaling
/// a scenario up is just a bigger `n` (as `scaling::scaling_cells` does).
fn baselines() -> Vec<Scenario> {
    vec![
        Scenario::new(
            "clean-line",
            "Baseline: the paper's worst-case input (a line), no faults",
            GraphFamily::Line,
            128,
        ),
        Scenario::new(
            "clean-expander",
            "Baseline: an already-good random 4-regular graph, no faults",
            GraphFamily::RandomRegular { degree: 4 },
            128,
        ),
        Scenario::new(
            "clean-tree",
            "Baseline: a complete binary tree (logarithmic diameter, but highly \
             asymmetric degrees at the root), no faults",
            GraphFamily::BinaryTree,
            128,
        )
        .with_tag("matrix"),
        Scenario::new(
            "lossy-ncc0",
            "0.2% independent message loss on a cycle — enough to kill some seeds \
             (the one-round finalize phase has no redundancy)",
            GraphFamily::Cycle,
            128,
        )
        .with_faults(FaultSpec::Lossy { drop_prob: 0.002 }),
        Scenario::new(
            "lossy-ncc0-heavy",
            "5% independent message loss on a cycle: the protocol has no \
             retransmissions, so this documents the collapse mode",
            GraphFamily::Cycle,
            128,
        )
        .with_faults(FaultSpec::Lossy { drop_prob: 0.05 }),
        // Deliberately the clean budget: a jitter stall is *protocol*-terminated
        // (nodes flag done on schedule and the run stops, stranding delayed
        // messages), so no round-budget multiplier can buy the lost messages
        // back — this scenario documents that collapse mode. Budgets help where
        // completion is *pending* (late joiners keeping `all_done` false), as in
        // `join-churn` below.
        Scenario::new(
            "delay-jitter",
            "25% of messages delayed up to 3 rounds on a line",
            GraphFamily::Line,
            128,
        )
        .with_faults(FaultSpec::Jitter {
            delay_prob: 0.25,
            max_delay: 3,
        }),
        Scenario::new(
            "mid-build-crash-wave",
            "10% of nodes crash a third of the way into construction",
            GraphFamily::RandomRegular { degree: 4 },
            128,
        )
        .with_faults(FaultSpec::CrashWave {
            fraction: 0.10,
            at: 0.33,
        }),
        Scenario::new(
            "join-churn",
            "15% of nodes join late (bounded knowledge), staggered over the first \
             40% of construction",
            GraphFamily::Cycle,
            128,
        )
        .with_faults(FaultSpec::JoinChurn {
            fraction: 0.15,
            spread: 0.40,
        })
        .with_budget(RoundBudget::percent(150)),
        Scenario::new(
            "partition-heal",
            "The id halves are partitioned from 20% to 50% of construction, then heal",
            GraphFamily::TwoCyclesBridged,
            128,
        )
        .with_faults(FaultSpec::PartitionHeal {
            from: 0.20,
            heal: 0.50,
        }),
        Scenario::new(
            "crash-then-loss",
            "Compound stressor: 10% of nodes crash a third of the way in and the \
             surviving network drops 2% of messages from that round on — \
             membership loss while the network degrades underneath it",
            GraphFamily::RandomRegular { degree: 4 },
            128,
        )
        .with_faults(FaultSpec::CrashThenLoss {
            fraction: 0.10,
            at: 0.33,
            drop_prob: 0.02,
        })
        .with_tag("matrix")
        .with_tag("compound"),
        // ---- The serve-* family: overlay-as-a-service baselines -------
        // Construction is the prologue; the experiment is the 2000-3000
        // rounds of continuous maintenance that follow. Sizes are small
        // (n = 48) because the population *grows* over the horizon.
        Scenario::new(
            "serve-churn",
            "Serve baseline: continuous joins (0.2/round) for 3000 rounds with \
             re-invitation OFF — arrivals pile up outside the overlay forever \
             and sustained coverage collapses, the failure mode the join-churn \
             construction reports first exposed",
            GraphFamily::Cycle,
            48,
        )
        .with_serve(ServeSpec::joins(120, 25, 0.2)),
        Scenario::new(
            "serve-loss",
            "Serve baseline: 2% message loss — during construction (which it \
             usually kills bare) and on every service invitation — with \
             continuous joins (0.1/round) for 2000 rounds; re-invitation is on \
             but bare, one invitation attempt per straggler per epoch",
            GraphFamily::Cycle,
            48,
        )
        .with_faults(FaultSpec::Lossy { drop_prob: 0.02 })
        .with_serve(ServeSpec {
            reinvite: true,
            ..ServeSpec::joins(80, 25, 0.1)
        }),
        Scenario::new(
            "serve-crash",
            "Serve baseline: background crash churn (0.04/round) plus a \
             correlated 10% crash burst every 500 rounds, replenished by joins \
             (0.08/round) over 2500 rounds — measures rounds-to-repair after \
             each burst",
            GraphFamily::RandomRegular { degree: 4 },
            48,
        )
        .with_serve(ServeSpec {
            reinvite: true,
            crash_rate: 0.04,
            burst: Some(CrashBurst {
                every_rounds: 500,
                fraction: 0.10,
            }),
            ..ServeSpec::joins(100, 25, 0.08)
        }),
        // ---- The traffic-* family: workloads over the finished overlay ----
        // Construction is the prologue; the experiment is the request
        // workload the finished overlay carries (see `overlay-traffic`).
        // Sizes are modest (n = 64) because the router phase simulates
        // every request hop-by-hop over the constructed edges.
        Scenario::new(
            "traffic-uniform",
            "Traffic baseline: uniform all-to-all requests greedily routed \
             over the finished clean expander — the p99 hop count witnesses \
             the O(log n) diameter of the constructed overlay",
            GraphFamily::RandomRegular { degree: 4 },
            64,
        )
        .with_traffic(TrafficSpec::new(Workload::Uniform)),
        Scenario::new(
            "traffic-zipf-lossy",
            "Zipf(1.1)-skewed requests with 2% message loss scoped to the \
             traffic phase (construction stays clean): documents how many \
             requests a bare overlay sheds in flight — its -reliable twin \
             buys the deliveries back with retransmission latency",
            GraphFamily::RandomRegular { degree: 4 },
            64,
        )
        .with_traffic(TrafficSpec {
            loss: 0.02,
            ..TrafficSpec::new(Workload::Zipf { exponent: 1.1 })
        }),
        Scenario::new(
            "traffic-serve-churn",
            "Traffic-during-serve baseline: a uniform request wave rides the \
             overlay after every maintenance epoch while continuous joins \
             (0.1/round) churn the membership, with re-invitation on — \
             measures sustained delivered fraction across churn+repair epochs",
            GraphFamily::Cycle,
            48,
        )
        .with_serve(ServeSpec {
            reinvite: true,
            ..ServeSpec::joins(30, 25, 0.1)
        })
        .with_traffic(TrafficSpec::new(Workload::Uniform)),
    ]
}

/// The built-in scenario matrix: hand-authored baselines first, then every
/// derived cell — reliable-transport twins, phase-override, re-invitation and
/// traffic variants — constructed through the variant axis API with pairing
/// metadata intact.
///
/// The result is cached: repeated calls (and [`find`] lookups) share one
/// validated instance instead of rebuilding the scenario list.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let base = Registry::new(baselines()).expect("hand-authored baselines are valid");
        let s = |name: &str| base.find(name).expect("baseline registered").clone();

        let mut all = baselines();
        // ---- Reliable-transport twins ---------------------------------
        // Each twin keeps its baseline's graph, size and fault load
        // and adds only the `overlay-transport` reliability layer plus flat
        // retry slack (a retransmit+ack round-trip costs a *constant* number of
        // rounds per phase, which a percent multiplier cannot express for the
        // 1-round binarize phase), so the report pair reads as
        // paper-vs-fault-tolerant-variant. The bespoke `describe` texts predate
        // the derivation API and are kept verbatim so the committed report
        // headers stay byte-identical.
        all.push(
            s("lossy-ncc0")
                .reliable(TransportConfig::default(), 12)
                .describe(
                    "Twin of lossy-ncc0 (0.2% loss) over the reliable transport: \
                     retransmission heals the binarization seeds the baseline loses",
                ),
        );
        all.push(
            s("lossy-ncc0-heavy")
                .reliable(TransportConfig::default(), 12)
                .describe(
                    "Twin of lossy-ncc0-heavy (5% loss) over the reliable \
                     transport: the baseline collapses on every seed",
                ),
        );
        all.push(
            s("delay-jitter")
                .reliable(TransportConfig::default(), 12)
                .describe(
                    "Twin of delay-jitter over the reliable transport: \
                     unacknowledged sends keep the run alive until delayed \
                     messages land, at the cost of spurious retransmissions",
                ),
        );
        all.push(
            s("partition-heal")
                .reliable(TransportConfig::default(), 12)
                .describe(
                    "Twin of partition-heal over the reliable transport: \
                     cross-cut messages are retried until the partition heals \
                     instead of being lost",
                ),
        );
        // `crash-ncc0-reliable` predates the mechanical `<base>-reliable`
        // naming; the historical name is pinned so its committed report (and
        // every cross-reference to it) survives the derivation.
        all.push(
            s("mid-build-crash-wave")
                .reliable(TransportConfig::default().with_max_retransmits(4), 12)
                .renamed("crash-ncc0-reliable")
                .describe(
                    "Twin of mid-build-crash-wave over the reliable transport \
                     with a small give-up budget (max_retransmits = 4): messages \
                     to crashed peers are abandoned after a few retries instead \
                     of burning the full retransmission budget — this documents \
                     the cost of reliability against faults it cannot heal",
                ),
        );
        all.push(
            s("join-churn")
                .reliable(TransportConfig::default(), 12)
                .describe(
                    "Twin of join-churn over the reliable transport: messages to \
                     dormant joiners are retried until they activate, but the \
                     schedule-driven evolutions have moved on by then, so late \
                     deliveries are stale — coverage barely improves and the \
                     twin documents that retransmission alone cannot rescue join \
                     churn",
                ),
        );
        // ---- Matrix cells beyond the historical set -------------------
        // The transport on a clean network: nothing is lost, so the twin
        // retransmits nothing and the pair prices the reliability layer alone.
        all.push(
            s("clean-line")
                .reliable(TransportConfig::default(), 12)
                .with_tag("matrix"),
        );
        // Reliability scoped to the one-round binarize phase only: the
        // baseline's failure mode is lost binarization seeds, so this cell buys
        // back exactly those at a fraction of full-pipeline ack volume.
        all.push(
            s("lossy-ncc0")
                .with_phases(
                    PhaseOverrides::none()
                        .with_budget(PhaseId::Binarize, RoundBudget::STANDARD.with_slack(12))
                        .with_transport(PhaseId::Binarize, TransportConfig::default()),
                )
                .with_tag("matrix"),
        );
        // The compound stressor's twin: retransmission fights the post-wave
        // loss while the give-up budget stops it from burning rounds on the
        // crashed peers.
        all.push(
            s("crash-then-loss")
                .reliable(TransportConfig::default().with_max_retransmits(4), 12)
                .with_tag("matrix"),
        );
        // The per-peer failure detector against the same crash wave that
        // `crash-ncc0-reliable` fights per-message: the first exhausted
        // payload silences the whole dead peer, so the ~38k-retransmit burn
        // documented in that cell's baseline collapses to one give-up per
        // crashed peer. Named next to its historical sibling.
        all.push(
            s("mid-build-crash-wave")
                .reliable(
                    TransportConfig::default()
                        .with_max_retransmits(4)
                        .with_failure_detector(true),
                    12,
                )
                .renamed("crash-ncc0-detector")
                .describe(
                    "Twin of mid-build-crash-wave over the reliable transport \
                     with the per-peer failure detector on: the first payload \
                     to exhaust its budget marks the whole peer dead, so a \
                     crashed peer costs one give-up instead of one per message \
                     — compare its retransmit total against crash-ncc0-reliable",
                ),
        );
        // ---- Serve twins ----------------------------------------------
        // The maintenance subsystem's headline pair: the same 3000-round join
        // storm with re-invitation switched on. Construction-style transport
        // redelivery cannot rescue stragglers (the join-churn pair proved it:
        // coverage 15.7% -> 16.2%); a protocol-level re-invitation into the
        // *current* evolution does.
        all.push(s("serve-churn").with_reinvitation());
        // The reliable twin of the lossy serve cell heals construction *and*
        // retries invitations (invite_retries = max_retransmits), so the pair
        // reads as bare-vs-reliable for a continuously-serving overlay.
        all.push(s("serve-loss").reliable(TransportConfig::default(), 12));
        // The crash-serving twin is a control: a clean network gains nothing
        // from reliability, so the serve metrics should match the baseline's
        // while the ack overhead appears in the message columns.
        all.push(s("serve-crash").reliable(TransportConfig::default(), 12));
        // ---- Traffic twins --------------------------------------------
        // The routing-policy pair: the same uniform workload over the
        // binarized tree instead of the expander. Tree routing funnels
        // every cross-subtree request through the root, so its p99 hops
        // and max edge load bound what expander routing buys.
        all.push(s("traffic-uniform").with_traffic_axis(
            "tree",
            TrafficSpec {
                policy: RoutingPolicy::Tree,
                ..TrafficSpec::new(Workload::Uniform)
            },
        ));
        // Workload-shape twins live in the flat traffic-* namespace. The
        // hotspot cell is the congestion witness: every request targets one
        // seeded focus node, so the constant-degree overlay must carry the
        // whole workload over the focus's few incident edges.
        all.push(
            s("traffic-uniform")
                .with_traffic_axis("hotspot", TrafficSpec::new(Workload::Hotspot))
                .renamed("traffic-hotspot")
                .describe(
                    "Twin of traffic-uniform with every request aimed at one \
                     seeded focus node: the constant-degree overlay funnels \
                     the whole workload through the focus's few incident \
                     edges, so max edge load and TTL expiry document the \
                     congestion collapse mode",
                ),
        );
        all.push(
            s("traffic-uniform")
                .with_traffic_axis(
                    "flash",
                    TrafficSpec::new(Workload::FlashCrowd {
                        burst_at: 4,
                        burst_len: 2,
                    }),
                )
                .renamed("traffic-flash")
                .describe(
                    "Twin of traffic-uniform with the whole request volume \
                     compressed into a 2-round flash crowd: same total load, \
                     bursty arrival — queue depth absorbs the spike and the \
                     latency tail pays for it",
                ),
        );
        // The lossy traffic cell's transport twin: retransmission recovers
        // the 2% per-hop losses, trading delivered % up for latency.
        all.push(s("traffic-zipf-lossy").reliable(TransportConfig::default(), 12));
        Registry::new(all).expect("built-in scenario matrix is valid")
    })
}

/// Looks a scenario up by its registry name.
pub fn find(name: &str) -> Option<Scenario> {
    registry().find(name).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_the_committed_matrix() {
        let reg = registry();
        assert!(reg.len() >= 15, "only {} scenarios", reg.len());
        for s in reg {
            assert!(is_kebab_case(&s.name), "{} is not kebab-case", s.name);
            assert!(!s.description.is_empty());
        }
        // The historical cells and the new matrix cells are all present.
        for name in [
            "clean-line",
            "clean-tree",
            "lossy-ncc0-reliable",
            "crash-ncc0-reliable",
            "clean-line-reliable",
            "lossy-ncc0-binarize-reliable",
            "crash-then-loss",
            "crash-then-loss-reliable",
            "traffic-uniform",
            "traffic-uniform-tree",
            "traffic-hotspot",
            "traffic-flash",
            "traffic-zipf-lossy",
            "traffic-zipf-lossy-reliable",
            "traffic-serve-churn",
        ] {
            assert!(reg.find(name).is_some(), "{name} missing");
        }
    }

    #[test]
    fn find_round_trips_and_is_indexed() {
        assert_eq!(find("join-churn").unwrap().name, "join-churn");
        assert!(find("no-such-scenario").is_none());
        // The cached registry hands out the same instance every call.
        assert!(std::ptr::eq(registry(), registry()));
    }

    #[test]
    fn every_baseline_reference_resolves_and_mirrors_its_axis() {
        // Registry construction already validates this; the loop documents the
        // invariant independently of `Registry::build`'s implementation.
        let reg = registry();
        let mut pair_count = 0;
        for twin in reg {
            let Some(baseline) = &twin.baseline else {
                assert!(twin.axis.is_none());
                continue;
            };
            let base = reg.find(baseline).expect("resolves");
            validate_axis(base, twin, twin.axis.expect("axis declared"))
                .unwrap_or_else(|e| panic!("{}: {e}", twin.name));
            pair_count += 1;
        }
        assert!(pair_count >= 10, "only {pair_count} derived cells");
        assert_eq!(reg.pairs().count(), pair_count);
    }

    #[test]
    fn pairs_iterates_baseline_twin_couples() {
        let reg = registry();
        let pair = reg
            .pairs()
            .find(|(_, t)| t.name == "lossy-ncc0-reliable")
            .expect("lossy pair present");
        assert_eq!(pair.0.name, "lossy-ncc0");
        assert!(pair.0.transport.is_none() && pair.1.transport.is_some());
    }

    #[test]
    fn tag_filter_covers_annotations_and_structural_facets() {
        let reg = registry();
        let tagged =
            |tag: &str| -> Vec<&Scenario> { reg.iter().filter(|s| s.has_tag(tag)).collect() };
        let names =
            |tag: &str| -> Vec<&str> { tagged(tag).iter().map(|s| s.name.as_str()).collect() };
        assert!(!tagged("matrix").is_empty());
        let reliable = tagged("reliable");
        assert!(reliable.iter().all(|s| s.uses_reliable_transport()));
        // Phase-scoped reliability counts as reliable (and is marked as scoped),
        // so a "sweep everything reliable" filter cannot silently miss it.
        assert!(reliable
            .iter()
            .any(|s| s.name == "lossy-ncc0-binarize-reliable"));
        assert_eq!(
            names("phase-reliable"),
            vec!["lossy-ncc0-binarize-reliable"]
        );
        assert!(!tagged("binary-tree").is_empty());
        assert_eq!(
            names("crash-then-loss"),
            vec!["crash-then-loss", "crash-then-loss-reliable"],
        );
    }

    #[test]
    fn validation_rejects_duplicates_bad_names_and_dangling_baselines() {
        let s = |name: &str| Scenario::new(name, "d", GraphFamily::Line, 16);
        assert_eq!(
            Registry::new(vec![s("a"), s("a")]).unwrap_err(),
            RegistryError::DuplicateName("a".into())
        );
        assert_eq!(
            Registry::new(vec![s("Bad_Name")]).unwrap_err(),
            RegistryError::InvalidName("Bad_Name".into())
        );
        let dangling = s("base").reliable(TransportConfig::default(), 4);
        assert_eq!(
            Registry::new(vec![dangling]).unwrap_err(),
            RegistryError::UnresolvedBaseline {
                scenario: "base-reliable".into(),
                baseline: "base".into(),
            }
        );
        let mut half_pair = s("half");
        half_pair.baseline = Some("base".into());
        assert_eq!(
            Registry::new(vec![s("base"), half_pair]).unwrap_err(),
            RegistryError::MissingAxis("half".into())
        );
    }

    #[test]
    fn validation_rejects_off_axis_drift() {
        let base = Scenario::new("base", "d", GraphFamily::Line, 16);
        // A "transport twin" that also changed the graph family must be refused.
        let mut twin = base.reliable(TransportConfig::default(), 4);
        twin.family = GraphFamily::Cycle;
        match Registry::new(vec![base, twin]).unwrap_err() {
            RegistryError::AxisViolation { scenario, problem } => {
                assert_eq!(scenario, "base-reliable");
                assert!(problem.contains("graph family"), "{problem}");
            }
            other => panic!("expected AxisViolation, got {other:?}"),
        }
    }

    #[test]
    fn every_registered_scenario_runs() {
        for s in registry() {
            let r = s.run(1);
            assert!(r.rounds > 0, "{} executed no rounds", s.name);
            assert!(
                r.messages.total_delivered > 0,
                "{} delivered nothing",
                s.name
            );
        }
    }
}
