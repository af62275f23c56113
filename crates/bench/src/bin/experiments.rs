//! Regenerates the experiment tables E1–E14 of [`overlay_bench`].
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p overlay-bench --bin experiments            # all, full sizes
//! cargo run --release -p overlay-bench --bin experiments -- quick   # all, small sizes
//! cargo run --release -p overlay-bench --bin experiments -- e2 e5   # selected ones
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        overlay_bench::run_all(false);
        return;
    }
    if args.iter().any(|a| a == "quick") {
        overlay_bench::run_all(true);
        return;
    }
    for arg in &args {
        match arg.as_str() {
            "e1" => drop(overlay_bench::e1_rounds_vs_n(&[64, 128, 256, 512, 1024])),
            "e2" => drop(overlay_bench::e2_conductance_growth(512, &[4, 8, 16, 32])),
            "e3" => drop(overlay_bench::e3_message_bounds(&[256, 512, 1024, 2048])),
            "e4" => drop(overlay_bench::e4_benign_invariants(128)),
            "e5" => drop(overlay_bench::e5_quality(&[64, 256, 1024])),
            "e6" => drop(overlay_bench::e6_components(&[16, 64, 256, 512])),
            "e7" => drop(overlay_bench::e7_spanning_tree(&[128, 256])),
            "e8" => drop(overlay_bench::e8_biconnectivity()),
            "e9" => drop(overlay_bench::e9_mis(&[256, 1024], &[4, 8, 16, 32])),
            "e10" => drop(overlay_bench::e10_spanner(&[256, 512])),
            "e12" => drop(overlay_bench::e12_baselines(&[256, 512, 1024, 2048])),
            "e14" => drop(overlay_bench::e14_transport_params(8)),
            other => eprintln!("unknown experiment: {other}"),
        }
    }
}
