//! Property test for the simulator's parallelism contract: any committed
//! matrix cell, run at any seed, produces bitwise-identical results whether
//! the round loop steps nodes serially or sharded across worker threads.
//!
//! Each case draws a random `(scenario, seed, workers)` triple, runs the cell
//! once with parallelism forced off and once with `workers` threads engaged
//! from node 0 up (`min_nodes = 0`, so even n=128 cells take the sharded
//! path), and compares the full [`ForensicRun`]: the `RunRecord`, the phase
//! metrics, and the serialized trace JSONL byte for byte. This is the same
//! identity `sweep_runner --check --par-threshold 0` gates in CI, but sampled
//! across the whole matrix and a spread of worker counts rather than the
//! ambient thread pool.

use overlay_scenarios::{registry, to_jsonl, ParallelismConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn any_cell_is_bitwise_identical_serial_vs_parallel(
        cell in 0usize..registry().len(),
        seed in 0u64..10_000,
        workers in 2usize..9,
    ) {
        let scenario = registry().iter().nth(cell).expect("index in range").clone();
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
            "{} seed={} workers={}: records diverged",
            scenario.name,
            seed,
            workers
        );
        prop_assert_eq!(
            &serial.report.phase_metrics,
            &parallel.report.phase_metrics,
            "{} seed={} workers={}: phase metrics diverged",
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
