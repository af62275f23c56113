//! Property tests for the maintenance subsystem's two standing contracts.
//!
//! **Determinism.** A serve run is a pure function of `(scenario, seed)`: the
//! maintenance loop itself is single-threaded, and the construction it serves
//! is bitwise-invariant under worker sharding, so the full run — `RunRecord`
//! with its embedded `ServeRecord` plus the serialized trace JSONL, epoch and
//! repair events included — must come out byte-identical whether the round
//! loop steps serially or across worker threads. Sampled over the registered
//! `serve-*` cells, seeds, and worker counts.
//!
//! **Well-formedness.** On a clean network (churn but no message faults), the
//! repair evolution must hand every epoch boundary a valid bounded-degree
//! tree: exactly one `Repair` trace event per epoch, every one reporting
//! `tree_valid`, and the aggregated record counting zero violations.

use overlay_scenarios::{registry, to_jsonl, ParallelismConfig, Scenario, TraceEvent};
use proptest::prelude::*;

/// The registered serve cells (the `serve-*` family plus any future cell that
/// declares a serve spec).
fn serve_cells() -> Vec<&'static Scenario> {
    let cells: Vec<_> = registry().iter().filter(|s| s.serve.is_some()).collect();
    assert!(!cells.is_empty(), "registry lost its serve-* family");
    cells
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn any_serve_cell_is_bitwise_identical_serial_vs_sharded(
        cell in 0usize..4,
        seed in 0u64..10_000,
        workers in 2usize..9,
    ) {
        let cells = serve_cells();
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
            "{} seed={} workers={}: records (incl. serve) diverged",
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
}

#[test]
fn clean_serve_run_is_well_formed_at_every_epoch_boundary() {
    let scenario = registry()
        .find("serve-churn-reinvite")
        .expect("headline serve cell registered")
        .clone();
    let epochs = scenario.serve.expect("serve cell has a spec").epochs;
    let run = scenario.run_traced(7);

    let repairs: Vec<bool> = run
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Repair { tree_valid, .. } => Some(*tree_valid),
            _ => None,
        })
        .collect();
    assert_eq!(repairs.len(), epochs, "one repair event per epoch boundary");
    assert!(
        repairs.iter().all(|&valid| valid),
        "clean-network repair must keep the tree well-formed at every boundary"
    );

    let serve = run.record.serve.expect("serve cell records serve outcome");
    assert!(serve.served);
    assert_eq!(serve.outcome.wf_violations, 0);
    assert!(run.record.success);
}
