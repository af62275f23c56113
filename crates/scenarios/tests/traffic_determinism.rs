//! Property tests for the traffic subsystem's determinism contract.
//!
//! A traffic run is a pure function of `(scenario, seed)`: the workload is
//! pre-scheduled from a seed derived before any rounds execute, the routers
//! draw no mid-round randomness, and the underlying round loop is
//! bitwise-invariant under worker sharding. So the full `RunRecord` — with
//! its embedded `TrafficRecord` delivery ledgers, hop and latency percentiles
//! and congestion counters — must come out identical whether the round loop
//! steps serially or across worker threads, and whether tracing is attached
//! or not. Sampled over the registered traffic cells, seeds, and worker
//! counts.

use overlay_scenarios::{registry, to_jsonl, ParallelismConfig, Scenario};
use proptest::prelude::*;

/// The registered traffic cells (the `traffic-*` family plus any future cell
/// that declares a traffic spec).
fn traffic_cells() -> Vec<&'static Scenario> {
    let cells: Vec<_> = registry().iter().filter(|s| s.traffic.is_some()).collect();
    assert!(!cells.is_empty(), "registry lost its traffic-* family");
    cells
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn any_traffic_cell_is_bitwise_identical_serial_vs_sharded(
        cell in 0usize..8,
        seed in 0u64..10_000,
        workers in 2usize..9,
    ) {
        let cells = traffic_cells();
        let scenario = cells[cell % cells.len()].clone();
        let serial = scenario
            .clone()
            .with_parallelism(ParallelismConfig::serial())
            .run_traced(seed);
        let parallel = scenario
            .clone()
            .with_parallelism(ParallelismConfig::fixed(workers, 0))
            .run_traced(seed);
        prop_assert_eq!(
            &serial.record,
            &parallel.record,
            "{} seed={} workers={}: records (incl. traffic) diverged",
            scenario.name,
            seed,
            workers
        );
        prop_assert_eq!(
            to_jsonl(&serial.events),
            to_jsonl(&parallel.events),
            "{} seed={} workers={}: trace JSONL diverged",
            scenario.name,
            seed,
            workers
        );
    }

    #[test]
    fn tracing_does_not_perturb_a_traffic_run(
        cell in 0usize..8,
        seed in 0u64..10_000,
    ) {
        let cells = traffic_cells();
        let scenario = cells[cell % cells.len()].clone();
        let untraced = scenario.run(seed);
        let traced = scenario.run_traced(seed);
        prop_assert_eq!(
            &untraced,
            &traced.record,
            "{} seed={}: attaching a trace buffer changed the run",
            scenario.name,
            seed
        );
    }
}
