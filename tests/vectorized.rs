//! Parity suite for the lane-blocked (batch-major) CPU hot path.
//!
//! The lane width must be *invisible*: every value `run_lanes::<L>`
//! produces — across every lane width × numeric mode × precision × query
//! mode, on ragged (`len % lanes ≠ 0`) and empty batches, serial or sharded
//! — must equal the reference interpreter `OpList::run_into` bit for bit,
//! and the modelled performance counters must be identical (lane blocking
//! regroups independent queries; it does not change what any query
//! computes or costs in the model).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use spn_accel::core::flatten::OpList;
use spn_accel::core::random::{random_spn, RandomSpnConfig};
use spn_accel::core::vectorized::{normalize_lanes, LANE_WIDTHS, MAX_LANES};
use spn_accel::core::{
    ConditionalBatch, Evidence, EvidenceBatch, NumericMode, Precision, QueryBatch, QueryMode, Spn,
};
use spn_accel::platforms::{
    Backend, BatchResult, CpuModel, Engine, EngineOptions, ExecBuffers, GpuModel, Parallelism,
    PerfReport, Plan,
};

const NUM_VARS: usize = 10;

/// Batch lengths covering empty, sub-block, exact-block and every ragged
/// tail (`len % lanes` from 1 to 7, each decomposed into 4 + 2 + 1 blocks)
/// of every supported lane width, plus a multi-block ragged one.
fn batch_lens() -> impl Iterator<Item = usize> {
    (0..=17).chain([33])
}

fn test_spn() -> Spn {
    let mut rng = StdRng::seed_from_u64(2020);
    random_spn(&RandomSpnConfig::with_vars(NUM_VARS), &mut rng)
}

/// A deterministic mixed batch: marginal, partially observed and fully
/// observed rows interleaved.
fn build_batch(len: usize) -> EvidenceBatch {
    let mut batch = EvidenceBatch::new(NUM_VARS);
    for q in 0..len {
        match q % 3 {
            0 => batch.push_marginal(),
            1 => {
                let mut e = Evidence::marginal(NUM_VARS);
                e.observe(q % NUM_VARS, q % 2 == 0);
                e.observe((q + 3) % NUM_VARS, q % 4 == 0);
                batch.push(&e).unwrap();
            }
            _ => {
                let row: Vec<bool> = (0..NUM_VARS).map(|v| (v + q) % 2 == 0).collect();
                batch.push_assignment(&row).unwrap();
            }
        }
    }
    batch
}

/// Asserts two batch results are equal to the bit: values and counters.
fn assert_bitwise(got: &BatchResult, want: &BatchResult, context: &str) {
    assert_eq!(got.values.len(), want.values.len(), "{context}");
    for (q, (g, w)) in got.values.iter().zip(&want.values).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{context} query {q}: {g} vs {w}");
    }
    assert_eq!(got.perf, want.perf, "{context}");
}

/// Runs every batch shape through one backend whose widest lane block is
/// `lanes`: values equal the reference interpreter bit for bit, the model
/// charges `len` merges of `perf_per_query`, and the tiles are sized by the
/// widest block the batch actually uses.
fn check_batch_shapes<B: Backend<Scratch = ()>>(
    backend: &B,
    ops: &OpList,
    lanes: usize,
    perf_per_query: impl Fn(&B::Compiled) -> &PerfReport,
    context: &str,
) {
    let compiled = backend.compile(ops).unwrap();
    let recipe = ops.input_recipe();
    let mut inputs = vec![0.0; ops.num_inputs()];
    let mut results = vec![0.0; ops.num_ops()];
    let mut buffers = ExecBuffers::new();
    for len in batch_lens() {
        let context = format!("{context} lanes={lanes} len={len}");
        let batch = build_batch(len);
        let mut want = BatchResult {
            values: Vec::with_capacity(len),
            perf: PerfReport::default(),
        };
        for q in 0..len {
            recipe.fill_query(&batch, q, &mut inputs);
            want.values.push(ops.run_into(&inputs, &mut results));
            want.perf.merge(perf_per_query(&compiled));
        }
        let got = backend
            .execute_batch(&compiled, &batch, &mut buffers, &mut ())
            .unwrap();
        assert_eq!(got.perf.queries, len as u64, "{context}");
        if len == 0 {
            want.perf.platform = backend.name();
        }
        assert_bitwise(&got, &want, &context);
        // Tiles hold the widest block of *this* batch: a one-row
        // request on an 8-lane engine allocates one lane.
        let widest = normalize_lanes(lanes.min(len));
        assert_eq!(buffers.inputs.len(), ops.num_inputs() * widest, "{context}");
        assert_eq!(buffers.scratch.len(), ops.num_ops() * widest, "{context}");
    }
}

/// Every backend that takes its values from `run_lanes` — the CPU model at
/// every lane width and the GPU model — × numeric mode × precision × batch
/// shape (including empty and ragged) agrees with the reference interpreter
/// bit for bit.
#[test]
fn lane_blocked_execute_matches_scalar_across_modes_precisions_and_shapes() {
    let spn = test_spn();
    for mode in NumericMode::ALL {
        for precision in Precision::SWEEP {
            let options = EngineOptions::default().mode(mode).precision(precision);
            let ops = options.lower(&spn);
            let context = format!("{mode}/{precision}");
            for &lanes in &LANE_WIDTHS {
                let backend = CpuModel::new().with_lanes(lanes);
                assert_eq!(backend.lanes(), lanes);
                check_batch_shapes(&backend, &ops, lanes, |c| c.perf_per_query(), &context);
            }
            check_batch_shapes(
                &GpuModel::new(),
                &ops,
                MAX_LANES,
                |c| c.perf_per_query(),
                &format!("{context} gpu"),
            );
        }
    }
}

/// All four query modes produce bit-identical values and assignments
/// through the lane-blocked path.
#[test]
fn lane_blocked_query_modes_match_scalar_bit_for_bit() {
    let spn = test_spn();
    let queries: Vec<QueryBatch> = {
        let rows = build_batch(11);
        let mut cond = ConditionalBatch::new(NUM_VARS);
        let mut given = Evidence::marginal(NUM_VARS);
        given.observe(NUM_VARS - 1, true);
        for q in 0..9 {
            let mut target = Evidence::marginal(NUM_VARS);
            target.observe(q % NUM_VARS, q % 2 == 0);
            cond.push(&target, &given).unwrap();
        }
        vec![
            QueryBatch::Joint({
                let mut b = EvidenceBatch::new(NUM_VARS);
                for q in 0..10 {
                    b.push_assignment(&(0..NUM_VARS).map(|v| (v + q) % 3 == 0).collect::<Vec<_>>())
                        .unwrap();
                }
                b
            }),
            QueryBatch::Marginal(rows.clone()),
            QueryBatch::Map(rows),
            QueryBatch::Conditional(cond),
        ]
    };
    for mode in NumericMode::ALL {
        let mut oracle = Engine::new(
            CpuModel::scalar(),
            &spn,
            EngineOptions::default().mode(mode),
        )
        .unwrap();
        let mut engine =
            Engine::new(CpuModel::new(), &spn, EngineOptions::default().mode(mode)).unwrap();
        for query in &queries {
            let want = oracle.execute_query(query).unwrap();
            let got = engine.execute_query(query).unwrap();
            for (q, (g, w)) in got.values.iter().zip(&want.values).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{mode} {} query {q}",
                    query.mode()
                );
            }
            assert_eq!(got.assignments, want.assignments, "{mode} {}", query.mode());
            if query.mode() == QueryMode::Map {
                assert!(got.assignments.is_some());
            }
        }
    }
}

/// Batch lengths whose lane-block sequences differ: 8+8+1, 8, 4+2+1,
/// 8+8+8+8+1, 1.
const TILE_LENS: [usize; 5] = [17, 8, 7, 33, 1];

/// The input tile carries parameters only within one call: one set of
/// buffers alternated between two programs of the same input shape but
/// different parameters (F64 / e8m10, linear / log) over batch lengths with
/// different block sequences — directly through the backend, and through
/// one engine rebound between two plans as a serving worker does — agrees
/// with the reference interpreter bit for bit on every value.
#[test]
fn lane_tile_never_leaks_parameters_across_calls_widths_or_plans() {
    let spn = test_spn();
    let lower = |mode, precision| {
        EngineOptions::default()
            .mode(mode)
            .precision(precision)
            .lower(&spn)
    };
    let pairs = [
        (
            lower(NumericMode::Linear, Precision::F64),
            lower(NumericMode::Linear, Precision::E8M10),
        ),
        (
            lower(NumericMode::Linear, Precision::F64),
            lower(NumericMode::Log, Precision::F64),
        ),
    ];
    let reference = |ops: &OpList, batch: &EvidenceBatch| -> Vec<f64> {
        let recipe = ops.input_recipe();
        let mut inputs = vec![0.0; ops.num_inputs()];
        let mut results = vec![0.0; ops.num_ops()];
        (0..batch.len())
            .map(|q| {
                recipe.fill_query(batch, q, &mut inputs);
                ops.run_into(&inputs, &mut results)
            })
            .collect()
    };
    let check = |got: &[f64], ops: &OpList, batch: &EvidenceBatch, context: &str| {
        let want = reference(ops, batch);
        assert_eq!(got.len(), want.len(), "{context}");
        for (q, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{context} query {q}: {g} vs {w}");
        }
    };
    for (a, b) in &pairs {
        assert_eq!(a.num_inputs(), b.num_inputs());
        let programs = [a, b];
        let context = |ops: &OpList, len| format!("{}/{} len={len}", ops.mode(), ops.precision());

        let backend = CpuModel::new();
        let compiled = programs.map(|ops| backend.compile(ops).unwrap());
        let mut buffers = ExecBuffers::new();
        for (i, &len) in TILE_LENS.iter().chain(&TILE_LENS).enumerate() {
            let batch = build_batch(len);
            for k in [i % 2, 1 - i % 2] {
                let got = backend
                    .execute_batch(&compiled[k], &batch, &mut buffers, &mut ())
                    .unwrap();
                check(&got.values, programs[k], &batch, &context(programs[k], len));
            }
        }

        let plans = programs
            .map(|ops| Arc::new(Plan::compile(CpuModel::new(), ops.clone(), None).unwrap()));
        let mut engine = Engine::from_plan(Arc::clone(&plans[0]));
        for (i, &len) in TILE_LENS.iter().chain(&TILE_LENS).enumerate() {
            let batch = build_batch(len);
            for k in [i % 2, 1 - i % 2] {
                engine.rebind(Arc::clone(&plans[k]));
                let got = engine.execute_batch(&batch).unwrap();
                check(
                    &got.values,
                    programs[k],
                    &batch,
                    &format!("rebound {}", context(programs[k], len)),
                );
            }
        }
    }
}

/// Sharded (parallel) dispatch composes with lane blocking: every shard
/// runs the lane-blocked kernels with its own ragged tail, and the stitched
/// result still equals the serial scalar oracle bit for bit.
#[test]
fn lane_blocked_parallel_sharding_composes_bit_for_bit() {
    let spn = test_spn();
    // 331 is prime: every shard count yields ragged shards, and every shard
    // ends in a ragged lane tail.
    let batch = build_batch(331);
    let mut oracle = Engine::new(CpuModel::scalar(), &spn, EngineOptions::default()).unwrap();
    let want = oracle.execute_batch(&batch).unwrap();
    let mut engine = Engine::new(
        CpuModel::new().with_lanes(MAX_LANES),
        &spn,
        EngineOptions::default(),
    )
    .unwrap();
    for workers in [1, 2, 3, 4] {
        let got = engine
            .execute_batch_parallel(&batch, &Parallelism::workers(workers))
            .unwrap();
        assert_bitwise(&got, &want, &format!("workers={workers}"));
    }
}
