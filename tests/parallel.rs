//! Parallel-vs-serial parity: `execute_batch_parallel` must be bit-for-bit
//! identical to `execute_batch` on every backend, for every worker count and
//! sharding configuration — values *and* performance counters.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spn_accel::core::flatten::OpList;
use spn_accel::core::query::QueryBatch;
use spn_accel::core::random::{random_spn, RandomSpnConfig};
use spn_accel::core::{Evidence, EvidenceBatch};
use spn_accel::platforms::{
    Backend, CpuModel, Engine, EngineOptions, GpuModel, Parallelism, ProcessorBackend, WorkerState,
};

/// A deterministic batch mixing marginal, complete and partial queries.
fn mixed_batch(num_vars: usize, queries: usize, seed: u64) -> EvidenceBatch {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = EvidenceBatch::with_capacity(num_vars, queries);
    for q in 0..queries {
        match q % 3 {
            0 => batch.push_marginal(),
            1 => {
                let assignment: Vec<bool> = (0..num_vars).map(|_| rng.gen_bool(0.5)).collect();
                batch.push_assignment(&assignment).unwrap();
            }
            _ => {
                let mut e = Evidence::marginal(num_vars);
                for var in 0..num_vars {
                    if rng.gen_bool(0.4) {
                        e.observe(var, rng.gen_bool(0.5));
                    }
                }
                batch.push(&e).unwrap();
            }
        }
    }
    batch
}

/// Asserts bit-for-bit equality of two value vectors.
fn assert_bits_equal(serial: &[f64], parallel: &[f64], context: &str) {
    assert_eq!(serial.len(), parallel.len(), "{context}: length");
    for (q, (s, p)) in serial.iter().zip(parallel).enumerate() {
        assert_eq!(
            s.to_bits(),
            p.to_bits(),
            "{context}: query {q} differs ({s} vs {p})"
        );
    }
}

/// One backend's parity check across worker counts and shard sizes.
fn check_backend<B: Backend>(name: &str, backend: B, ops: &OpList, batch: &EvidenceBatch) {
    let mut engine = Engine::from_ops(backend, ops).unwrap();
    let serial = engine.execute_batch(batch).unwrap();
    for workers in [1usize, 2, 3, 4, 8] {
        // min_shard 1 forces real sharding even on small batches, so the
        // stitching logic is exercised with every worker count.
        for min_shard in [1usize, 4, Parallelism::DEFAULT_MIN_SHARD] {
            let parallelism = Parallelism { workers, min_shard };
            let parallel = engine.execute_batch_parallel(batch, &parallelism).unwrap();
            let context = format!("{name} workers {workers} min_shard {min_shard}");
            assert_bits_equal(&serial.values, &parallel.values, &context);
            assert_eq!(serial.perf, parallel.perf, "{context}: perf");
        }
    }
}

/// Property-style sweep: random SPNs of several sizes, every backend, every
/// worker count — parallel output is indistinguishable from serial output.
#[test]
fn parallel_matches_serial_bit_for_bit_on_all_backends() {
    for (seed, vars, queries) in [(11u64, 6usize, 17usize), (12, 13, 64), (13, 20, 97)] {
        let spn = random_spn(
            &RandomSpnConfig::with_vars(vars),
            &mut StdRng::seed_from_u64(seed),
        );
        let ops = OpList::from_spn(&spn);
        let batch = mixed_batch(vars, queries, seed ^ 0xBEEF);
        check_backend("CPU", CpuModel::new(), &ops, &batch);
        check_backend("GPU", GpuModel::new(), &ops, &batch);
        check_backend("Ptree", ProcessorBackend::ptree(), &ops, &batch);
        check_backend("Pvect", ProcessorBackend::pvect(), &ops, &batch);
    }
}

/// Degenerate shapes: batches smaller than the worker count, one-query
/// batches and empty batches all round-trip through the parallel path.
#[test]
fn parallel_handles_degenerate_batch_shapes() {
    let spn = random_spn(
        &RandomSpnConfig::with_vars(7),
        &mut StdRng::seed_from_u64(31),
    );
    let mut engine = Engine::new(CpuModel::new(), &spn, EngineOptions::default()).unwrap();
    let force = Parallelism {
        workers: 8,
        min_shard: 1,
    };
    for queries in [0usize, 1, 2, 5, 7, 8, 9] {
        let batch = mixed_batch(7, queries, queries as u64);
        let serial = engine.execute_batch(&batch).unwrap();
        let parallel = engine.execute_batch_parallel(&batch, &force).unwrap();
        assert_bits_equal(&serial.values, &parallel.values, &format!("q={queries}"));
        assert_eq!(serial.perf, parallel.perf, "q={queries}");
    }
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
    let vars = 9usize;
    let spn = random_spn(
        &RandomSpnConfig::with_vars(vars),
        &mut StdRng::seed_from_u64(51),
    );
    let mut engine = Engine::new(CpuModel::new(), &spn, EngineOptions::default()).unwrap();
    let parallelism = Parallelism {
        workers: 4,
        min_shard: 1,
    };

    let marginal = QueryBatch::Marginal(mixed_batch(vars, 33, 3));
    let map = QueryBatch::Map(mixed_batch(vars, 33, 4));
    let mut cond = spn_accel::core::ConditionalBatch::new(vars);
    for q in 0..33usize {
        let mut target = Evidence::marginal(vars);
        target.observe(q % vars, q % 2 == 0);
        let mut given = Evidence::marginal(vars);
        given.observe((q + 3) % vars, q % 3 == 0);
        cond.push(&target, &given).unwrap();
    }
    let conditional = QueryBatch::Conditional(cond);

    for query in [&marginal, &map, &conditional] {
        let serial = engine.execute_query(query).unwrap();
        let parallel = engine.execute_query_parallel(query, &parallelism).unwrap();
        let context = format!("mode {}", query.mode());
        assert_bits_equal(&serial.values, &parallel.values, &context);
        assert_eq!(serial.assignments, parallel.assignments, "{context}");
        assert_eq!(serial.perf, parallel.perf, "{context}");
    }
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

    let small = mixed_batch(8, 6, 1);
    let large = mixed_batch(8, 40, 2);
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
    assert_bits_equal(&serial.values, &out_large.values, "pool reuse");
}
