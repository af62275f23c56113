//! The benchmark's vocabulary: workload names, end-to-end metrics with their
//! bounds, and per-layer metrics with the end-to-end metric each should move.
//! `BENCHMARK.json` at the repository root repeats the first two tables and
//! the per-layer names; `tests/contract.rs` keeps the two in step.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: its final name and the one-line reason it exists.
///
/// `run` and `trace` measure all eight. `BENCHMARK.json` lists the four
/// `gated` ones, which a later change is accepted or refused on: the
/// acceptance check makes 22 runs per workload inside a fixed hour, so four
/// workloads get runs long enough to be steady where eight did not; and the
/// thread-per-node media run 256 threads on two cores, which measures the
/// host's scheduler as much as the program.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    pub gated: bool,
}

pub const WORKLOADS: [WorkloadSpec; 8] = [
    WorkloadSpec {
        name: "construct-bare",
        why: "line(1024), bare sends, clean: core callbacks and the netsim round loop do all the work; transport, net and traffic are bypassed",
        gated: true,
    },
    WorkloadSpec {
        name: "construct-reliable-lossy",
        why: "line(256) under 0.2% loss behind Reliable<P>: transport bookkeeping dominates, so the reliability tax shows here and a netsim-only change does not",
        gated: true,
    },
    WorkloadSpec {
        name: "construct-channel",
        why: "line(256) on NetRunner<ChannelBackend>: thread per node, mpsc frames, wire codec and the synchronizer barrier dominate; overlay must equal the simulator's",
        gated: false,
    },
    WorkloadSpec {
        name: "construct-tcp2",
        why: "line(256) over two loopback TCP ranks: same runner as construct-channel plus sockets, demux reader and flush-before-DONE, so a tcp.rs change shows only here",
        gated: false,
    },
    WorkloadSpec {
        name: "traffic-uniform",
        why: "131072 uniform requests over a prebuilt 1024-node overlay on the simulator: traffic does the work (next_hops, Router), transport none",
        gated: true,
    },
    WorkloadSpec {
        name: "traffic-lossy-reliable",
        why: "same wave under 2% loss behind Reliable<P>: one-way request streams with little reverse traffic, so ack policy changes show as latency and messages",
        gated: false,
    },
    WorkloadSpec {
        name: "serve-churn",
        why: "40 maintenance epochs under join/crash churn on a 512-node expander: graph-level core code only, the no-change prediction for every round-loop optimisation",
        gated: true,
    },
    WorkloadSpec {
        name: "empty-rounds",
        why: "Ping (4 u32 sends per node per round, no work) on a bare serial simulator, n=65536: netsim's fixed cost per node-round with the protocol subtracted out",
        gated: false,
    },
];

/// One end-to-end metric. `bound` is the share of the parent's median by
/// which it may worsen before a change counts as a regression. `simulated`
/// metrics are pure functions of (workload, seed): `compare` requires them to
/// be equal between two ledgers of one seed.
///
/// The host-time bounds are as wide as the contract allows. With the best of
/// a run scaled by the reference kernel, ten runs of one workload spread
/// (interquartile range over median) by 2 to 7 % here, through episodes in
/// which their medians spread by 23 to 37 %; the host of the acceptance check
/// has shown worse, and a bound has to clear that or the benchmark rejects
/// changes that changed nothing. Across seeds the simulated metrics spread by
/// under 1 %.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub simulated: bool,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "node_rounds_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "msgs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "rounds_per_log2n",
        unit: "rounds",
        better: Better::Lower,
        bound: 0.10,
        simulated: true,
    },
    EndToEnd {
        name: "msgs_per_node",
        unit: "count",
        better: Better::Lower,
        bound: 0.05,
        simulated: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
        simulated: false,
    },
];

/// One per-layer metric: measured in the traced run, no bound. `moves` names
/// the end-to-end metric (and workload) it should move; everything not named
/// is predicted unchanged. A workload that does not exercise the layer
/// reports 0.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        moves,
    }
}

pub const PER_LAYER: [PerLayer; 85] = [
    // Where the traced iteration's wall-clock went: self time per layer (span
    // minus child spans) and its share of the traced wall. The eight shares
    // sum to 1.
    lower("graph.self_s", "s", "wall_s where graph code runs in the timed region (serve-churn)"),
    lower("graph.self_share", "share", "as graph.self_s"),
    lower("netsim.self_s", "s", "wall_s@construct-bare by its share; ~nothing @construct-reliable-lossy; nothing @serve-churn"),
    lower("netsim.self_share", "share", "as netsim.self_s"),
    lower("transport.self_s", "s", "wall_s@construct-reliable-lossy, work_per_s@traffic-lossy-reliable; nothing on bare workloads"),
    lower("transport.self_share", "share", "as transport.self_s"),
    lower("core.self_s", "s", "wall_s@construct-* (callbacks + hand-offs), wall_s@serve-churn"),
    lower("core.self_share", "share", "as core.self_s"),
    lower("traffic.self_s", "s", "work_per_s@traffic-*"),
    lower("traffic.self_share", "share", "as traffic.self_s"),
    lower("net.self_s", "s", "wall_s@construct-channel, wall_s@construct-tcp2"),
    lower("net.self_share", "share", "as net.self_s"),
    lower("scenarios.self_s", "s", "work_per_s@traffic-* (run_traffic_over glue)"),
    lower("scenarios.self_share", "share", "as scenarios.self_s"),
    lower("bench.self_s", "s", "none: the harness's own glue inside the traced region (node wrapping, the Ping stub)"),
    lower("bench.self_share", "share", "none"),
    lower("traced_wall_s", "s", "none: base of every share above"),
    lower("untraced_wall_s", "s", "none: wall_s of the untraced iterations of the same run, base of trace_overhead_share"),
    lower("trace_overhead_share", "share", "none: (traced wall - untraced wall) / untraced wall"),
    // graph
    lower("graph.generate_s", "s", "setup_s on every workload"),
    lower("graph.verify_s", "s", "none: output checking is outside the timed region; reported so a slow checker cannot hide"),
    // netsim
    lower("netsim.step_ns_per_node_round", "ns", "node_rounds_per_s@empty-rounds about 1:1"),
    lower("netsim.self_ns_per_node_round", "ns", "wall_s@construct-bare, wall_s@empty-rounds"),
    lower("netsim.self_ns_per_msg", "ns", "msgs_per_s@construct-bare, msgs_per_s@empty-rounds"),
    lower("netsim.new_s", "s", "wall_s on simulator workloads (Simulator::new per phase)"),
    lower("netsim.fault_ns_per_msg", "ns", "wall_s@construct-reliable-lossy (Ping under 0.2% loss minus clean)"),
    lower("netsim.sharded_ns_per_node_round", "ns", "no end-to-end metric while workloads pin serial"),
    lower("netsim.sharded_over_serial", "ratio", "no end-to-end metric while workloads pin serial"),
    lower("netsim.rounds", "rounds", "rounds_per_log2n"),
    lower("netsim.delivered_msgs", "count", "msgs_per_node"),
    lower("netsim.dropped_fault_msgs", "count", "msgs_per_node@construct-reliable-lossy, @traffic-lossy-reliable"),
    // transport
    lower("transport.self_ns_per_node_round", "ns", "wall_s@construct-reliable-lossy, work_per_s@traffic-lossy-reliable"),
    lower("transport.self_ns_per_msg", "ns", "msgs_per_s@construct-reliable-lossy, @traffic-lossy-reliable"),
    lower("transport.reliable_over_bare", "ratio", "wall_s@construct-reliable-lossy (clean reliable / bare build), @empty-rounds (Reliable<Ping> / Ping); ROADMAP target < 2"),
    lower("transport.acks", "count", "msgs_per_node@construct-reliable-lossy, @traffic-lossy-reliable"),
    lower("transport.retransmits", "count", "msgs_per_node, rounds_per_log2n on the lossy workloads"),
    lower("transport.dupes_dropped", "count", "msgs_per_node on the lossy workloads"),
    lower("transport.give_ups", "count", "failed on the lossy workloads"),
    lower("transport.acks_per_data_msg", "ratio", "msgs_per_node on the reliable workloads"),
    lower("transport.msgs_over_bare", "ratio", "msgs_per_node on the reliable workloads"),
    // core
    lower("core.create_expander_s", "s", "wall_s@construct-*"),
    lower("core.bfs_s", "s", "wall_s@construct-*"),
    lower("core.binarize_s", "s", "wall_s@construct-*"),
    lower("core.handoff_s", "s", "wall_s@construct-* (survivor core, BFS convergence, finalize)"),
    lower("core.callback_ns_per_node_round", "ns", "wall_s@construct-bare"),
    lower("core.callback_share", "share", "wall_s@construct-bare"),
    lower("core.rounds.create_expander", "rounds", "rounds_per_log2n@construct-*"),
    lower("core.rounds.bfs", "rounds", "rounds_per_log2n@construct-*"),
    lower("core.rounds.binarize", "rounds", "rounds_per_log2n@construct-*"),
    lower("core.maintenance_new_s", "s", "setup_s@serve-churn"),
    lower("core.epoch_s_p50", "s", "work_per_s@serve-churn"),
    lower("core.epoch_s_max", "s", "work_per_s@serve-churn"),
    lower("core.evolve_s", "s", "work_per_s@serve-churn"),
    lower("core.reinvites", "count", "msgs_per_node@serve-churn"),
    lower("core.repairs", "count", "failed@serve-churn"),
    higher("core.healed", "count", "failed@serve-churn"),
    // traffic
    lower("traffic.next_hops_s", "s", "work_per_s@traffic-*"),
    lower("traffic.next_hops_share", "share", "work_per_s@traffic-*"),
    lower("traffic.schedule_s", "s", "work_per_s@traffic-*"),
    lower("traffic.route_s", "s", "work_per_s@traffic-* (the execute span)"),
    lower("traffic.router_ns_per_forward", "ns", "work_per_s@traffic-*"),
    lower("traffic.report_s", "s", "work_per_s@traffic-*"),
    higher("traffic.injected", "count", "work_per_s@traffic-*"),
    higher("traffic.delivered", "count", "failed@traffic-*"),
    lower("traffic.dropped", "count", "failed@traffic-*"),
    lower("traffic.expired", "count", "failed@traffic-*"),
    lower("traffic.lost", "count", "failed@traffic-lossy-reliable"),
    lower("traffic.max_edge_load", "count", "traffic.latency_p99_rounds"),
    lower("traffic.hops_p99", "count", "traffic.latency_p99_rounds"),
    lower("traffic.latency_p50_rounds", "rounds", "rounds_per_log2n@traffic-*"),
    lower("traffic.latency_p99_rounds", "rounds", "rounds_per_log2n@traffic-*; where a delayed-ack change that helps construct-reliable-lossy would hurt traffic-lossy-reliable"),
    // net
    lower("net.frame_encode_ns", "ns", "wall_s@construct-channel, @construct-tcp2"),
    lower("net.frame_decode_ns", "ns", "wall_s@construct-channel, @construct-tcp2"),
    lower("net.phase_s.create_expander", "s", "wall_s@construct-channel, @construct-tcp2"),
    lower("net.phase_s.bfs", "s", "wall_s@construct-channel, @construct-tcp2"),
    lower("net.phase_s.binarize", "s", "wall_s@construct-channel, @construct-tcp2"),
    lower("net.over_sim", "ratio", "wall_s@construct-channel, @construct-tcp2 (same build_over on SimExecutor as base)"),
    lower("net.tcp_over_channel", "ratio", "wall_s@construct-tcp2 only"),
    lower("net.callback_share", "share", "wall_s@construct-channel, @construct-tcp2"),
    lower("net.ns_per_node_round", "ns", "node_rounds_per_s@construct-channel, @construct-tcp2 (Ping through NetRunner: barrier + hand-off per node-round)"),
    lower("net.tcp_mesh_s", "s", "setup_s@construct-tcp2"),
    lower("net.shutdown_s", "s", "wall_s@construct-tcp2"),
    // scenarios
    lower("scenarios.run_overhead_s", "s", "what sweep users pay on top of wall_s@construct-bare (Scenario::run minus the bare builder call)"),
    // How much slower than `reference::NOMINAL_S` this host ran the reference
    // kernel during the run.
    lower("host.slowdown", "ratio", "none of the program's: every host-time end-to-end metric is divided by it, the per-layer times are not"),
    // What the traced run counted, to compare against the untraced run's.
    lower("traced_matches_untraced", "bool", "none: 1 when the traced iteration's outputs and counts equal the untraced run's"),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        name.len() <= 64
            && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_unique_and_within_the_limits() {
        assert!((2..=8).contains(&WORKLOADS.iter().filter(|w| w.gated).count()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(well_formed(name), "{name}");
        }
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
    }

    /// `BENCHMARK.json` repeats these tables field for field.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        use overlay_networks::scenarios::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let list = |key: &str| match &file {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}")),
            _ => panic!("BENCHMARK.json is not an object"),
        };
        let s = |text: &str| Json::Str(text.into());
        let workloads = WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| Json::obj(vec![("name", s(w.name)), ("why", s(w.why))]))
            .collect();
        assert_eq!(list("workloads"), Json::Arr(workloads));
        let end_to_end = END_TO_END
            .iter()
            .map(|m| {
                Json::obj(vec![
                    ("name", s(m.name)),
                    ("unit", s(m.unit)),
                    ("better", s(m.better.name())),
                    ("bound", Json::Num(m.bound)),
                ])
            })
            .collect();
        assert_eq!(list("end_to_end"), Json::Arr(end_to_end));
        let per_layer = PER_LAYER
            .iter()
            .map(|m| {
                Json::obj(vec![
                    ("name", s(m.name)),
                    ("unit", s(m.unit)),
                    ("better", s(m.better.name())),
                ])
            })
            .collect();
        assert_eq!(list("per_layer"), Json::Arr(per_layer));
    }

    #[test]
    fn bounds_fit_the_contract_and_setup_has_the_largest() {
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup.bound, "{}", m.name);
        }
    }
}
