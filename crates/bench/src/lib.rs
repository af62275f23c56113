//! Experiment harness: one function per experiment (E1–E14).
//!
//! Every function prints a self-describing table to stdout and returns the rows so that
//! tests can reuse them. Run all experiments with
//! `cargo run --release -p overlay-bench --bin experiments`, or a single one with
//! `cargo run --release -p overlay-bench --bin experiments -- e5`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use overlay_baselines::{flooding, run_luby_mis, run_pointer_jumping, SupernodeMerge};
use overlay_core::{benign, EvolutionEngine, ExpanderParams, OverlayBuilder};
use overlay_graph::{analysis, cuts, generators, DiGraph};
use overlay_hybrid::{
    sparsify, ComponentsConfig, DistributedBiconnectivity, HybridComponents, HybridMis,
    HybridSpanningTree,
};
use overlay_netsim::caps::log2_ceil;

/// A generic table row: a label plus named numeric columns.
#[derive(Clone, Debug)]
pub struct Row {
    /// Row label (e.g. the topology and size).
    pub label: String,
    /// Column name → value.
    pub values: Vec<(&'static str, f64)>,
}

fn print_table(title: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    if rows.is_empty() {
        println!("(no rows)");
        return;
    }
    print!("{:<28}", "case");
    for (name, _) in &rows[0].values {
        print!("{name:>16}");
    }
    println!();
    for row in rows {
        print!("{:<28}", row.label);
        for (_, v) in &row.values {
            if v.fract() == 0.0 && v.abs() < 1e12 {
                print!("{:>16}", *v as i64);
            } else {
                print!("{:>16.5}", v);
            }
        }
        println!();
    }
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
pub fn e1_rounds_vs_n(sizes: &[usize]) -> Vec<Row> {
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
    print_table(
        "E1: Theorem 1.1 — rounds to well-formed tree (O(log n))",
        &rows,
    );
    rows
}

/// E2 — Lemma 3.1/3.3: conductance growth per evolution for several walk lengths.
pub fn e2_conductance_growth(n: usize, walk_lens: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    // A constant-degree low-conductance companion to the line.
    let two_cycles = generators::two_cycles_bridged(n);
    for &walk in walk_lens {
        for (label, g) in [
            (format!("line/{n}/l={walk}"), generators::line(n)),
            (format!("two-cycles/{n}/l={walk}"), two_cycles.clone()),
        ] {
            let params = ExpanderParams::for_n(n).with_seed(0xE2).with_walk_len(walk);
            let start = cuts::conductance_estimate(&benign::make_benign(&g, &params).unwrap(), 1);
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
    print_table(
        "E2: Lemma 3.1 — per-evolution conductance growth (compare mean_growth with sqrt(l) shape)",
        &rows,
    );
    rows
}

/// E3 — Lemma 3.2 / Theorem 1.1: per-round and total message bounds.
pub fn e3_message_bounds(sizes: &[usize]) -> Vec<Row> {
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
    print_table(
        "E3: message bounds — O(log n) per round, O(log^2 n) total per node, zero drops",
        &rows,
    );
    rows
}

/// E4 — Definition 2.1 / Section 3.2: the benign invariant across evolutions.
pub fn e4_benign_invariants(n: usize) -> Vec<Row> {
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
    print_table(
        "E4: benign invariant — regularity, laziness, and minimum cut vs Lambda",
        &rows,
    );
    rows
}

/// E5 — Section 3.3: quality of the final expander and of the well-formed tree.
pub fn e5_quality(sizes: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        for (label, g) in constant_degree_workloads(n) {
            let params = ExpanderParams::for_n(n).with_seed(0xE5);
            let result = OverlayBuilder::new(params)
                .build(&g)
                .expect("pipeline succeeds");
            let simple = result.expander.simplify();
            let diam = analysis::diameter(&simple).unwrap_or(usize::MAX);
            let phi = cuts::conductance_estimate(&result.expander, 0xE5);
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
    print_table(
        "E5: final graph quality — constant conductance, O(log n) diameter and tree height",
        &rows,
    );
    rows
}

/// E6 — Theorem 1.2: connected components, rounds versus component size.
pub fn e6_components(component_sizes: &[usize]) -> Vec<Row> {
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
    print_table(
        "E6: Theorem 1.2 — component trees, rounds scale with log m (walk-stitching not applied)",
        &rows,
    );
    rows
}

/// E7 — Theorem 1.3: spanning trees by walk unwinding.
pub fn e7_spanning_tree(sizes: &[usize]) -> Vec<Row> {
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
    print_table("E7: Theorem 1.3 — spanning trees via walk unwinding", &rows);
    rows
}

/// E8 — Theorem 1.4 (and Figure 1): biconnected components versus Tarjan.
pub fn e8_biconnectivity() -> Vec<Row> {
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
    print_table(
        "E8: Theorem 1.4 — biconnected components (validated against Tarjan)",
        &rows,
    );
    rows
}

/// E9 — Theorem 1.5: MIS rounds versus degree and `n`, against the Luby baseline.
pub fn e9_mis(sizes: &[usize], degrees: &[usize]) -> Vec<Row> {
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
    print_table(
        "E9: Theorem 1.5 — MIS rounds (O(log d + log log n)) vs CONGEST Luby baseline (O(log n))",
        &rows,
    );
    rows
}

/// E10 — Section 4.2: spanner/degree-reduction quality.
pub fn e10_spanner(sizes: &[usize]) -> Vec<Row> {
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
    print_table(
        "E10: spanner + delegation — degree drops to O(log n), components preserved",
        &rows,
    );
    rows
}

/// E12 — baseline comparison: supernode merging, pointer jumping, flooding versus the
/// paper's algorithm on the line.
pub fn e12_baselines(sizes: &[usize]) -> Vec<Row> {
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
        let flood = flooding::rounds_until_all_know_minimum(&g, 0xE12, 4 * n).unwrap_or(4 * n);
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
    // Extrapolation rows: at laptop sizes the log n vs log² n separation is hidden by
    // constants (our schedule pays ℓ+1 rounds per evolution), so for large n we report
    // our exact round schedule (the pipeline always runs exactly these rounds — see E1)
    // against an actual run of the centralized supernode-merging accounting and the
    // analytic Θ(n) flooding time.
    for exp in [14u32, 17, 20] {
        let n = 1usize << exp;
        let params = ExpanderParams::for_n(n);
        let ours_schedule =
            overlay_core::ExpanderNode::total_rounds(&params) + params.bfs_rounds + 1 + 1;
        let merge = if n <= (1 << 17) {
            SupernodeMerge::new(0xE12)
                .run(&generators::line(n))
                .total_rounds() as f64
        } else {
            // Beyond 2^17 nodes even the centralized accounting run gets slow; report
            // the fitted 1.1·log² n trend observed on the smaller sizes.
            1.1 * (exp as f64) * (exp as f64)
        };
        rows.push(Row {
            label: format!("line/{n} (schedule)"),
            values: vec![
                ("ours_rounds", ours_schedule as f64),
                ("merge_rounds", merge),
                ("flooding_rounds", (n - 1) as f64),
                ("jump_rounds", -1.0),
                ("jump_max_msgs", -1.0),
                ("ours_max_msgs", params.ncc0_cap as f64),
            ],
        });
    }
    print_table(
        "E12: baselines — supernode merging (log^2 n), flooding (n), pointer jumping (log n rounds but Omega(n) msgs)",
        &rows,
    );
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
pub fn e14_transport_params(seeds: usize) -> Vec<Row> {
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
    print_table(
        "E14: transport parameters — retransmit timer x window vs loss rate (cycle/128)",
        &rows,
    );
    rows
}

/// Runs every experiment with the default (paper-shaped, laptop-sized) parameters.
pub fn run_all(quick: bool) {
    let sizes: &[usize] = if quick {
        &[64, 128, 256]
    } else {
        &[64, 128, 256, 512, 1024]
    };
    let big: &[usize] = if quick {
        &[128, 256]
    } else {
        &[256, 512, 1024]
    };
    e1_rounds_vs_n(sizes);
    e2_conductance_growth(if quick { 256 } else { 512 }, &[4, 8, 16, 32]);
    e3_message_bounds(big);
    e4_benign_invariants(if quick { 96 } else { 128 });
    e5_quality(if quick { sizes } else { &[64, 256, 1024] });
    e6_components(if quick {
        &[16, 64, 128]
    } else {
        &[16, 64, 256, 512]
    });
    e7_spanning_tree(if quick { &[64, 128] } else { &[128, 256] });
    e8_biconnectivity();
    e9_mis(
        if quick { &[128, 256] } else { &[256, 1024] },
        &[4, 8, 16, 32],
    );
    e10_spanner(if quick { &[128] } else { &[256, 512] });
    e12_baselines(big);
    e14_transport_params(if quick { 2 } else { 8 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_rows_have_consistent_columns() {
        let rows = e1_rounds_vs_n(&[32]);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert_eq!(r.values.len(), 5);
            assert!(r
                .values
                .iter()
                .any(|(k, v)| *k == "tree_degree" && *v <= 4.0));
        }
    }

    #[test]
    fn e8_always_matches_tarjan() {
        let rows = e8_biconnectivity();
        for r in &rows {
            let ok = r
                .values
                .iter()
                .find(|(k, _)| *k == "matches_tarjan")
                .map(|(_, v)| *v)
                .unwrap();
            assert_eq!(ok, 1.0, "{} diverged from Tarjan", r.label);
        }
    }

    #[test]
    fn e14_covers_the_grid_deterministically() {
        let rows = e14_transport_params(1);
        // 3 loss rates x 3 timers x 3 windows.
        assert_eq!(rows.len(), 27);
        for r in &rows {
            let get = |key: &str| {
                r.values
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, v)| *v)
                    .unwrap()
            };
            assert!(
                (get("success_rate") - 1.0).abs() < 1e-12,
                "{} failed unexpectedly",
                r.label
            );
            assert!(get("acks") > 0.0, "{} reported no acks", r.label);
            assert!(
                get("retransmits") > 0.0,
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
        let get = |row: &Row, key: &str| {
            row.values
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| *v)
                .unwrap()
        };
        for r in &rows {
            // Flooding pays Θ(n) rounds, far more than the overlay construction.
            assert!(get(r, "flooding_rounds") > get(r, "ours_rounds"));
            // Pointer jumping needs Ω(n) messages somewhere, far above our cap-bounded
            // usage. Extrapolation rows report the -1 sentinel instead of a simulated
            // value (see e12_baselines) and are skipped.
            if get(r, "jump_max_msgs") >= 0.0 {
                assert!(get(r, "jump_max_msgs") > 4.0 * get(r, "ours_max_msgs"));
            }
        }
    }
}
