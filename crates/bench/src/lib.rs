//! Experiment harness: one function per experiment (E1–E14) and one table,
//! [`EXPERIMENTS`], that names each with its title and the sizes it is committed at.
//!
//! `cargo run --release -p overlay-bench --bin experiments` writes every
//! experiment's report to `reports/paper/<name>.json`, or only the named ones
//! (`… --bin experiments -- e4 e8`). Reports are rendered by
//! [`Json::render_pretty`], the renderer of the sweep reports; a cell reading
//! `-1` was not run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unnameable_types)]
#![warn(unreachable_pub)]

use overlay_baselines::{
    rounds_until_all_know_minimum, run_luby_mis, run_pointer_jumping, SupernodeMerge,
};
use overlay_core::{
    make_benign, BfsNode, BinarizeNode, EvolutionEngine, ExpanderNode, ExpanderParams,
    OverlayBuilder,
};
use overlay_graph::{analysis, conductance_estimate, generators, DiGraph};
use overlay_hybrid::{
    sparsify, ComponentsConfig, DistributedBiconnectivity, HybridComponents, HybridMis,
    HybridSpanningTree,
};
use overlay_netsim::caps::log2_ceil;
use overlay_scenarios::Json;

/// One paper experiment: the name of its report, its title, and the experiment
/// at the sizes its committed report holds.
pub struct Experiment {
    /// Report name: the experiment writes `reports/paper/<name>.json`.
    pub name: &'static str,
    /// What the experiment measures, and against which claim of the paper.
    pub title: &'static str,
    rows: fn() -> Vec<Row>,
}

/// Every experiment, at the sizes its committed report holds.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "e1",
        title: "Theorem 1.1 — rounds to well-formed tree (O(log n))",
        rows: || e1_rounds_vs_n(&[64, 128, 256, 512, 1024]),
    },
    Experiment {
        name: "e2",
        title: "Lemma 3.1 — per-evolution conductance growth (compare mean_growth with sqrt(l) shape)",
        rows: || e2_conductance_growth(512, &[4, 8, 16, 32]),
    },
    Experiment {
        name: "e3",
        title: "message bounds — O(log n) per round, O(log^2 n) total per node, zero drops",
        rows: || e3_message_bounds(&[256, 512, 1024]),
    },
    Experiment {
        name: "e4",
        title: "benign invariant — regularity, laziness, and minimum cut vs Lambda",
        rows: || e4_benign_invariants(128),
    },
    Experiment {
        name: "e5",
        title: "final graph quality — constant conductance, O(log n) diameter and tree height",
        rows: || e5_quality(&[64, 256, 1024]),
    },
    Experiment {
        name: "e6",
        title: "Theorem 1.2 — component trees, rounds scale with log m (walk-stitching not applied)",
        rows: || e6_components(&[16, 64, 256, 512]),
    },
    Experiment {
        name: "e7",
        title: "Theorem 1.3 — spanning trees via walk unwinding",
        rows: || e7_spanning_tree(&[128, 256]),
    },
    Experiment {
        name: "e8",
        title: "Theorem 1.4 — biconnected components (validated against Tarjan)",
        rows: e8_biconnectivity,
    },
    Experiment {
        name: "e9",
        title: "Theorem 1.5 — MIS rounds (O(log d + log log n)) vs CONGEST Luby baseline (O(log n))",
        rows: || e9_mis(&[256, 1024], &[4, 8, 16, 32]),
    },
    Experiment {
        name: "e10",
        title: "spanner + delegation — degree drops to O(log n), components preserved",
        rows: || e10_spanner(&[256, 512]),
    },
    Experiment {
        name: "e12",
        title: "baselines — supernode merging (log^2 n), flooding (n), pointer jumping (log n rounds but Omega(n) msgs)",
        rows: || e12_baselines(&[256, 512, 1024]),
    },
    Experiment {
        name: "e14",
        title: "transport parameters — retransmit timer x window vs loss rate (cycle/128)",
        rows: || e14_transport_params(8),
    },
];

impl Experiment {
    /// Runs the experiment and renders its report: name, title, and one object
    /// per row holding the row's `case` label and its columns in order.
    pub fn report(&self) -> String {
        let rows = (self.rows)()
            .into_iter()
            .map(|row| {
                let mut fields = vec![("case".to_string(), Json::Str(row.label))];
                fields.extend(
                    row.values
                        .into_iter()
                        .map(|(name, v)| (name.to_string(), Json::Num(v))),
                );
                Json::Obj(fields)
            })
            .collect();
        Json::obj(vec![
            ("experiment", Json::Str(self.name.to_string())),
            ("title", Json::Str(self.title.to_string())),
            ("rows", Json::Arr(rows)),
        ])
        .render_pretty()
            + "\n"
    }
}

/// A table row: a label plus named numeric columns.
struct Row {
    label: String,
    values: Vec<(&'static str, f64)>,
}

fn constant_degree_workloads(n: usize) -> Vec<(String, DiGraph)> {
    vec![
        (format!("line/{n}"), generators::line(n)),
        (format!("cycle/{n}"), generators::cycle(n)),
        (format!("binary-tree/{n}"), generators::binary_tree(n)),
        (
            format!("random-4-regular/{n}"),
            generators::random_regular(n, 4, 0xE1),
        ),
    ]
}

/// E1 — Theorem 1.1: rounds to a well-formed tree versus `n` (plus tree quality).
fn e1_rounds_vs_n(sizes: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        for (label, g) in constant_degree_workloads(n) {
            let params = ExpanderParams::for_n(n).with_seed(0xE1);
            let result = OverlayBuilder::new(params)
                .build(&g)
                .expect("pipeline succeeds");
            rows.push(Row {
                label,
                values: vec![
                    ("log2_n", log2_ceil(n) as f64),
                    ("rounds", result.rounds.total() as f64),
                    (
                        "rounds/log_n",
                        result.rounds.total() as f64 / log2_ceil(n) as f64,
                    ),
                    ("tree_degree", result.tree.max_degree() as f64),
                    ("tree_height", result.tree.height() as f64),
                ],
            });
        }
    }
    rows
}

/// E2 — Lemma 3.1/3.3: conductance growth per evolution for several walk lengths.
fn e2_conductance_growth(n: usize, walk_lens: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    // A constant-degree low-conductance companion to the line.
    let two_cycles = generators::two_cycles_bridged(n);
    for &walk in walk_lens {
        for (label, g) in [
            (format!("line/{n}/l={walk}"), generators::line(n)),
            (format!("two-cycles/{n}/l={walk}"), two_cycles.clone()),
        ] {
            let params = ExpanderParams::for_n(n).with_seed(0xE2).with_walk_len(walk);
            let start = conductance_estimate(&make_benign(&g, &params).unwrap(), 1);
            let mut engine = EvolutionEngine::from_initial(&g, params).unwrap();
            let stats = engine.run(params.evolutions, false);
            // Mean growth factor over the evolutions before the plateau (phi < 0.05).
            let mut factors = Vec::new();
            let mut prev = start;
            for s in &stats {
                if prev > 0.0 && prev < 0.05 {
                    factors.push(s.conductance / prev);
                }
                prev = s.conductance;
            }
            let mean_growth = if factors.is_empty() {
                1.0
            } else {
                factors
                    .iter()
                    .product::<f64>()
                    .powf(1.0 / factors.len() as f64)
            };
            let evolutions_to_plateau = stats
                .iter()
                .position(|s| s.conductance >= 0.05)
                .map(|p| p + 1)
                .unwrap_or(stats.len());
            rows.push(Row {
                label,
                values: vec![
                    ("phi_0", start),
                    ("phi_final", stats.last().unwrap().conductance),
                    ("mean_growth", mean_growth),
                    ("sqrt_l", (walk as f64).sqrt()),
                    ("evos_to_0.05", evolutions_to_plateau as f64),
                ],
            });
        }
    }
    rows
}

/// E3 — Lemma 3.2 / Theorem 1.1: per-round and total message bounds.
fn e3_message_bounds(sizes: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        let params = ExpanderParams::for_n(n).with_seed(0xE3);
        let g = generators::line(n);
        let result = OverlayBuilder::new(params)
            .build(&g)
            .expect("pipeline succeeds");
        let log_n = log2_ceil(n) as f64;
        rows.push(Row {
            label: format!("line/{n}"),
            values: vec![
                ("cap", params.ncc0_cap as f64),
                (
                    "max_per_round",
                    result.messages.max_per_node_per_round as f64,
                ),
                (
                    "per_round/log_n",
                    result.messages.max_per_node_per_round as f64 / log_n,
                ),
                ("total_per_node", result.messages.max_total_per_node as f64),
                (
                    "total/log2_n",
                    result.messages.max_total_per_node as f64 / (log_n * log_n),
                ),
                (
                    "dropped",
                    (result.messages.dropped_receive + result.messages.dropped_send) as f64,
                ),
            ],
        });
    }
    rows
}

/// E4 — Definition 2.1 / Section 3.2: the benign invariant across evolutions.
fn e4_benign_invariants(n: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for (label, g) in [
        (format!("line/{n}"), generators::line(n)),
        (format!("cycle/{n}"), generators::cycle(n)),
        (
            format!("random-4-regular/{n}"),
            generators::random_regular(n, 4, 0xE4),
        ),
    ] {
        let params = ExpanderParams::for_n(n).with_seed(0xE4).with_walk_len(12);
        let mut engine = EvolutionEngine::from_initial(&g, params).unwrap();
        let stats = engine.run(params.evolutions, true);
        let min_cut_seen = stats.iter().filter_map(|s| s.min_cut).min().unwrap_or(0);
        let final_cut = stats.last().and_then(|s| s.min_cut).unwrap_or(0);
        let regular_lazy_always = stats.iter().all(|s| s.regular_and_lazy);
        rows.push(Row {
            label,
            values: vec![
                ("lambda", params.lambda as f64),
                ("min_cut_seen", min_cut_seen as f64),
                ("final_cut", final_cut as f64),
                ("regular+lazy", f64::from(u8::from(regular_lazy_always))),
            ],
        });
    }
    rows
}

/// E5 — Section 3.3: quality of the final expander and of the well-formed tree.
fn e5_quality(sizes: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        for (label, g) in constant_degree_workloads(n) {
            let params = ExpanderParams::for_n(n).with_seed(0xE5);
            let result = OverlayBuilder::new(params)
                .build(&g)
                .expect("pipeline succeeds");
            let simple = result.expander.simplify();
            let diam = analysis::diameter(&simple).unwrap_or(usize::MAX);
            let phi = conductance_estimate(&result.expander, 0xE5);
            rows.push(Row {
                label,
                values: vec![
                    ("log2_n", log2_ceil(n) as f64),
                    ("expander_diam", diam as f64),
                    ("expander_phi", phi),
                    ("tree_degree", result.tree.max_degree() as f64),
                    ("tree_height", result.tree.height() as f64),
                ],
            });
        }
    }
    rows
}

/// E6 — Theorem 1.2: connected components, rounds versus component size.
fn e6_components(component_sizes: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &m in component_sizes {
        // A forest of four components of size m each, of different shapes.
        let g = generators::disjoint_union(&[
            generators::star(m),
            generators::cycle(m.max(3)),
            generators::line(m),
            generators::connected_random(m, 0.1, 0xE6),
        ]);
        let result = HybridComponents::new(ComponentsConfig {
            seed: 0xE6,
            walk_len: 12,
        })
        .run(&g)
        .expect("components succeed");
        let truth = analysis::connected_components(&g.to_undirected());
        rows.push(Row {
            label: format!("4 components of m={m}"),
            values: vec![
                ("log2_m", log2_ceil(m) as f64),
                ("components", result.component_count() as f64),
                (
                    "correct",
                    f64::from(u8::from(
                        result.component_count() == truth.component_count(),
                    )),
                ),
                ("rounds", result.rounds as f64),
                (
                    "rounds/log_m",
                    result.rounds as f64 / log2_ceil(m).max(1) as f64,
                ),
            ],
        });
    }
    rows
}

/// E7 — Theorem 1.3: spanning trees by walk unwinding.
fn e7_spanning_tree(sizes: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        for (label, g) in [
            (format!("star/{n}"), generators::star(n)),
            (format!("grid/{n}"), generators::grid((n / 16).max(1), 16)),
            (
                format!("random/{n}"),
                generators::connected_random(n, 0.05, 0xE7),
            ),
        ] {
            let result = HybridSpanningTree {
                seed: 0xE7,
                walk_len: 12,
            }
            .run(&g)
            .expect("spanning tree succeeds");
            let valid = analysis::is_spanning_tree(&g.to_undirected(), &result.parent);
            rows.push(Row {
                label,
                values: vec![
                    ("valid", f64::from(u8::from(valid))),
                    ("rounds", result.rounds as f64),
                    (
                        "rounds/log_n",
                        result.rounds as f64 / log2_ceil(g.node_count()).max(1) as f64,
                    ),
                ],
            });
        }
    }
    rows
}

/// E8 — Theorem 1.4 (and Figure 1): biconnected components versus Tarjan.
fn e8_biconnectivity() -> Vec<Row> {
    let mut rows = Vec::new();
    let figure1 = {
        let mut g = DiGraph::new(4);
        g.add_edge(0.into(), 1.into());
        g.add_edge(1.into(), 2.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(2.into(), 3.into());
        g
    };
    let cases: Vec<(String, DiGraph)> = vec![
        ("figure-1".to_string(), figure1),
        (
            "chained-cycles/5x6".to_string(),
            generators::chained_cycles(5, 6),
        ),
        ("barbell/8+2".to_string(), generators::barbell(8, 2)),
        ("grid/6x6".to_string(), generators::grid(6, 6)),
        (
            "random/64".to_string(),
            generators::connected_random(64, 0.06, 0xE8),
        ),
    ];
    for (label, g) in cases {
        let ours = DistributedBiconnectivity { seed: 0xE8 }
            .run(&g)
            .expect("succeeds");
        let truth = overlay_graph::sequential::biconnected_components(&g.to_undirected());
        let mut a = ours.components.clone();
        let mut b = truth.components.clone();
        a.sort();
        b.sort();
        rows.push(Row {
            label,
            values: vec![
                ("blocks", ours.components.len() as f64),
                ("cut_vertices", ours.cut_vertices.len() as f64),
                ("bridges", ours.bridges.len() as f64),
                (
                    "matches_tarjan",
                    f64::from(u8::from(
                        a == b
                            && ours.cut_vertices == truth.cut_vertices
                            && ours.bridges == truth.bridges,
                    )),
                ),
                ("rounds", ours.rounds as f64),
            ],
        });
    }
    rows
}

/// E9 — Theorem 1.5: MIS rounds versus degree and `n`, against the Luby baseline.
fn e9_mis(sizes: &[usize], degrees: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        for &d in degrees {
            if d >= n {
                continue;
            }
            let g = generators::random_regular(n, d, 0xE9 + d as u64);
            let hybrid = HybridMis { seed: 0xE9 }.run(&g);
            let luby = run_luby_mis(&g, 0xE9, 400);
            let valid = overlay_graph::sequential::is_maximal_independent_set(
                &g.to_undirected(),
                &hybrid.mis,
            );
            rows.push(Row {
                label: format!("n={n}, d={d}"),
                values: vec![
                    ("valid", f64::from(u8::from(valid))),
                    ("hybrid_rounds", hybrid.total_rounds() as f64),
                    ("luby_rounds", luby.rounds as f64),
                    (
                        "largest_leftover",
                        hybrid.largest_undecided_component as f64,
                    ),
                    (
                        "log_d+loglog_n",
                        (log2_ceil(d).max(1) + log2_ceil(log2_ceil(n)).max(1)) as f64,
                    ),
                ],
            });
        }
    }
    rows
}

/// E10 — Section 4.2: spanner/degree-reduction quality.
fn e10_spanner(sizes: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        for (label, g) in [
            (format!("star/{n}"), generators::star(n)),
            (
                format!("dense-random/{n}"),
                generators::connected_random(n, 0.25, 0xE10),
            ),
            (format!("caveman/{n}"), generators::caveman(n / 16, 16)),
        ] {
            let before = g.to_undirected();
            let result = sparsify(&g, 0xE10);
            let truth = analysis::connected_components(&before);
            let after = analysis::connected_components(&result.reduced);
            let same = truth.component_count() == after.component_count()
                && g.nodes().all(|u| {
                    g.nodes()
                        .all(|v| truth.same_component(u, v) == after.same_component(u, v))
                });
            rows.push(Row {
                label,
                values: vec![
                    ("deg_before", before.max_degree() as f64),
                    ("spanner_outdeg", result.spanner.max_out_degree() as f64),
                    ("deg_after", result.reduced.max_degree() as f64),
                    ("log2_n", log2_ceil(g.node_count()) as f64),
                    ("components_ok", f64::from(u8::from(same))),
                    ("rounds", result.rounds as f64),
                ],
            });
        }
    }
    rows
}

/// E12 — baseline comparison: supernode merging, pointer jumping, flooding versus the
/// paper's algorithm on the line.
fn e12_baselines(sizes: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        let g = generators::line(n);
        let ours = OverlayBuilder::new(ExpanderParams::for_n(n).with_seed(0xE12))
            .build(&g)
            .expect("pipeline succeeds");
        let merge = SupernodeMerge::new(0xE12).run(&g);
        // Pointer jumping with unbounded communication costs Θ(n²) messages per node in
        // its final rounds; simulating it beyond a few hundred nodes is pointless (the
        // blow-up is the datapoint), so larger sizes report -1.
        let (jump_rounds, jump_max_msgs) = if n <= 256 {
            let jumping = run_pointer_jumping(&g, 2 * log2_ceil(n), 0xE12);
            (
                jumping.rounds as f64,
                jumping.metrics.totals().max_sent as f64,
            )
        } else {
            (-1.0, -1.0)
        };
        let flood = rounds_until_all_know_minimum(&g, 0xE12, 4 * n).unwrap_or(4 * n);
        rows.push(Row {
            label: format!("line/{n}"),
            values: vec![
                ("ours_rounds", ours.rounds.total() as f64),
                ("merge_rounds", merge.total_rounds() as f64),
                ("flooding_rounds", flood as f64),
                ("jump_rounds", jump_rounds),
                ("jump_max_msgs", jump_max_msgs),
                ("ours_max_msgs", ours.messages.max_per_node_per_round as f64),
            ],
        });
    }
    // Schedule rows: at laptop sizes the log n vs log² n separation is hidden by
    // constants (our schedule pays ℓ+1 rounds per evolution), so for large n the row
    // holds our exact round schedule (the pipeline always runs exactly these rounds —
    // see E1) and, up to 2^17 nodes, a run of the centralized supernode-merging
    // accounting; beyond that even the accounting run gets slow. Nothing else is run
    // at these sizes, so every other cell reads -1.
    for n in [1usize << 14, 1 << 17, 1 << 20] {
        let params = ExpanderParams::for_n(n);
        let ours_schedule = ExpanderNode::total_rounds(&params)
            + BfsNode::total_rounds(params.bfs_rounds)
            + BinarizeNode::total_rounds();
        let merge_rounds = if n <= 1 << 17 {
            SupernodeMerge::new(0xE12)
                .run(&generators::line(n))
                .total_rounds() as f64
        } else {
            -1.0
        };
        rows.push(Row {
            label: format!("line/{n} (schedule)"),
            values: vec![
                ("ours_rounds", ours_schedule as f64),
                ("merge_rounds", merge_rounds),
                ("flooding_rounds", -1.0),
                ("jump_rounds", -1.0),
                ("jump_max_msgs", -1.0),
                ("ours_max_msgs", -1.0),
            ],
        });
    }
    rows
}

/// E14 — transport parameter sweep: `retransmit_after` × `window` crossed against
/// the loss rate, on the `lossy-ncc0` cycle/128 workload. Each cell runs the full
/// pipeline over the reliable transport with that configuration and reports the
/// success rate, round cost and retransmission/ack traffic, answering the ROADMAP
/// question of how the retry timer and the in-flight window trade rounds against
/// wire overhead as loss grows.
///
/// The per-phase round slack scales with the retry timer (`4 · retransmit_after +
/// 8`): a retry chain costs a constant number of timer periods, so slower timers
/// need proportionally more flat headroom — keeping every cell's budget equally
/// generous relative to its own timer isolates the *parameter* effect from budget
/// starvation.
fn e14_transport_params(seeds: usize) -> Vec<Row> {
    use overlay_scenarios::{FaultSpec, GraphFamily, Scenario, Sweep, TransportConfig};
    let mut rows = Vec::new();
    for &drop_prob in &[0.002, 0.02, 0.05] {
        for &retransmit_after in &[2usize, 4, 8] {
            for &window in &[2usize, 8, 64] {
                let scenario = Scenario::new(
                    "e14-transport",
                    "transport parameter sweep cell",
                    GraphFamily::Cycle,
                    128,
                )
                .with_faults(FaultSpec::Lossy { drop_prob })
                .reliable(
                    TransportConfig::default()
                        .with_retransmit_after(retransmit_after)
                        .with_window(window),
                    4 * retransmit_after as u32 + 8,
                );
                let report = Sweep::over_seeds(scenario, 0, seeds).run();
                rows.push(Row {
                    label: format!("loss={drop_prob} rto={retransmit_after} win={window}"),
                    values: vec![
                        ("success_rate", report.success_rate()),
                        ("rounds", report.mean_rounds()),
                        ("delivered", report.mean_delivered()),
                        (
                            "retransmits",
                            report.message_total(|m| m.retransmits) as f64,
                        ),
                        ("acks", report.message_total(|m| m.acks) as f64),
                        ("dupes", report.message_total(|m| m.dupes_dropped) as f64),
                    ],
                });
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(row: &Row, key: &str) -> f64 {
        row.values
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .unwrap()
    }

    #[test]
    fn e1_rows_have_consistent_columns() {
        let rows = e1_rounds_vs_n(&[32]);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert_eq!(r.values.len(), 5);
            assert!(get(r, "tree_degree") <= 4.0);
        }
    }

    #[test]
    fn e8_always_matches_tarjan() {
        for r in &e8_biconnectivity() {
            assert_eq!(
                get(r, "matches_tarjan"),
                1.0,
                "{} diverged from Tarjan",
                r.label
            );
        }
    }

    #[test]
    fn e14_covers_the_grid_deterministically() {
        let rows = e14_transport_params(1);
        // 3 loss rates x 3 timers x 3 windows.
        assert_eq!(rows.len(), 27);
        for r in &rows {
            assert!(
                (get(r, "success_rate") - 1.0).abs() < 1e-12,
                "{} failed unexpectedly",
                r.label
            );
            assert!(get(r, "acks") > 0.0, "{} reported no acks", r.label);
            assert!(
                get(r, "retransmits") > 0.0,
                "{} reported no retransmissions under loss",
                r.label
            );
        }
        let again = e14_transport_params(1);
        for (a, b) in rows.iter().zip(&again) {
            assert_eq!(a.values, b.values, "{} not deterministic", a.label);
        }
    }

    #[test]
    fn e12_shows_the_expected_winners() {
        let rows = e12_baselines(&[256]);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            if let Some(n) = r.label.strip_suffix(" (schedule)") {
                // A schedule row holds the exact schedule and, up to 2^17 nodes, a
                // merging run; neither the NCC0 cap nor a fitted trend may stand in
                // for a value that was not run.
                let n: usize = n["line/".len()..].parse().unwrap();
                assert!(get(r, "ours_rounds") > 0.0, "{}", r.label);
                assert_eq!(get(r, "merge_rounds") == -1.0, n > 1 << 17, "{}", r.label);
                for key in [
                    "flooding_rounds",
                    "jump_rounds",
                    "jump_max_msgs",
                    "ours_max_msgs",
                ] {
                    assert_eq!(get(r, key), -1.0, "{} {key}", r.label);
                }
                continue;
            }
            // Flooding pays Θ(n) rounds, far more than the overlay construction.
            assert!(get(r, "flooding_rounds") > get(r, "ours_rounds"));
            // Pointer jumping needs Ω(n) messages somewhere, far above our cap-bounded
            // usage.
            assert!(get(r, "jump_max_msgs") > 4.0 * get(r, "ours_max_msgs"));
        }
    }
}
