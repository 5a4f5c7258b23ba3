//! Parallel-vs-serial parity: `execute_batch_parallel` must be bit-for-bit
//! identical to `execute_batch` on every backend, for every worker count and
//! sharding configuration — values *and* performance counters.  The value
//! checks are slices of the parity matrix (`tests/parity/mod.rs`).

mod parity;

use rand::rngs::StdRng;
use rand::SeedableRng;
use spn_accel::core::flatten::OpList;
use spn_accel::core::random::{random_spn, RandomSpnConfig};
use spn_accel::core::EvidenceBatch;
use spn_accel::platforms::{
    Backend, CpuModel, Engine, EngineOptions, GpuModel, Parallelism, WorkerState,
};

/// Random SPNs of several sizes, every backend, every worker count:
/// parallel output is indistinguishable from serial output.
#[test]
fn parallel_matches_serial_bit_for_bit_on_all_backends() {
    parity::run("parallel_matches_serial_bit_for_bit_on_all_backends");
}

/// Batches smaller than the worker count, one-query batches and empty
/// batches all round-trip through the parallel path.
#[test]
fn parallel_handles_degenerate_batch_shapes() {
    parity::run("parallel_handles_degenerate_batch_shapes");
}

/// Worker errors propagate: a mismatched batch fails through the parallel
/// path exactly like the serial one, whichever shard hits it.
#[test]
fn parallel_propagates_shard_errors() {
    let spn = random_spn(
        &RandomSpnConfig::with_vars(5),
        &mut StdRng::seed_from_u64(41),
    );
    let mut engine = Engine::new(GpuModel::new(), &spn, EngineOptions::default()).unwrap();
    let wrong = EvidenceBatch::marginals(6, 64);
    let parallelism = Parallelism {
        workers: 4,
        min_shard: 1,
    };
    assert!(engine.execute_batch_parallel(&wrong, &parallelism).is_err());
}

/// The mode-aware parallel path agrees with the serial mode-aware path for
/// every query mode (values bit-for-bit, assignments exactly).
#[test]
fn parallel_query_modes_match_serial_query_modes() {
    parity::run("parallel_query_modes_match_serial_query_modes");
}

/// Direct backend-level use (no engine): the caller-owned worker pool grows
/// to the shard count and is reused across differently sized batches.
#[test]
fn worker_pool_grows_and_is_reused() {
    let spn = random_spn(
        &RandomSpnConfig::with_vars(8),
        &mut StdRng::seed_from_u64(61),
    );
    let ops = OpList::from_spn(&spn);
    let backend = CpuModel::new();
    let compiled = backend.compile(&ops).unwrap();
    let mut workers: Vec<WorkerState<CpuModel>> = Vec::new();

    let small = parity::rows(8, 6);
    let large = parity::rows(8, 40);
    let parallelism = Parallelism {
        workers: 4,
        min_shard: 2,
    };
    let out_small = backend
        .execute_batch_parallel(&compiled, &small, &parallelism, &mut workers)
        .unwrap();
    assert_eq!(out_small.values.len(), 6);
    let grown = workers.len();
    assert!(grown >= 3, "6 queries / min_shard 2 should use 3 shards");
    let out_large = backend
        .execute_batch_parallel(&compiled, &large, &parallelism, &mut workers)
        .unwrap();
    assert_eq!(out_large.values.len(), 40);
    assert!(workers.len() >= grown, "pool never shrinks");

    let mut engine = Engine::from_ops(CpuModel::new(), &ops).unwrap();
    let serial = engine.execute_batch(&large).unwrap();
    parity::assert_bits(&serial.values, &out_large.values, "pool reuse");
}
