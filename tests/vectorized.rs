//! Parity suite for the lane-blocked (batch-major) CPU hot path.
//!
//! The lane width must be *invisible*: every value `run_lanes::<L>`
//! produces — across every lane width × numeric mode × precision × query
//! mode, on ragged (`len % lanes ≠ 0`) and empty batches, serial or sharded
//! — must equal the reference interpreter `OpList::run_into` bit for bit,
//! and the modelled performance counters must be identical (lane blocking
//! regroups independent queries; it does not change what any query
//! computes or costs in the model).  Those checks are slices of the parity
//! matrix (`tests/parity/mod.rs`).

mod parity;

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use spn_accel::core::flatten::OpList;
use spn_accel::core::random::{random_spn, RandomSpnConfig};
use spn_accel::core::{EvidenceBatch, NumericMode, Precision};
use spn_accel::platforms::{Backend, CpuModel, Engine, EngineOptions, ExecBuffers, Plan};

/// Every backend that takes its values from `run_lanes` — the CPU model at
/// every lane width and the GPU model — × numeric mode × precision × batch
/// shape (including empty and ragged) agrees with the reference interpreter
/// bit for bit, costs `len` times its per-query report, and sizes its tiles
/// by the widest block the batch uses.
#[test]
fn lane_blocked_execute_matches_scalar_across_modes_precisions_and_shapes() {
    parity::run("lane_blocked_execute_matches_scalar_across_modes_precisions_and_shapes");
}

/// All four query modes produce bit-identical values and assignments
/// through the lane-blocked path.
#[test]
fn lane_blocked_query_modes_match_scalar_bit_for_bit() {
    parity::run("lane_blocked_query_modes_match_scalar_bit_for_bit");
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
    let spn = random_spn(
        &RandomSpnConfig::with_vars(10),
        &mut StdRng::seed_from_u64(2020),
    );
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
    let check = |got: &[f64], ops: &OpList, batch: &EvidenceBatch, context: &str| {
        let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, parity::oracle_bits(ops, batch), "{context}");
    };
    for (a, b) in &pairs {
        assert_eq!(a.num_inputs(), b.num_inputs());
        let programs = [a, b];
        let context = |ops: &OpList, len| format!("{}/{} len={len}", ops.mode(), ops.precision());

        let backend = CpuModel::new();
        let compiled = programs.map(|ops| backend.compile(ops).unwrap());
        let mut buffers = ExecBuffers::new();
        for (i, &len) in TILE_LENS.iter().chain(&TILE_LENS).enumerate() {
            let batch = parity::rows(10, len);
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
            let batch = parity::rows(10, len);
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
    parity::run("lane_blocked_parallel_sharding_composes_bit_for_bit");
}
