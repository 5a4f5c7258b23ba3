//! Parity suite for the lane-blocked (batch-major) CPU hot path.
//!
//! The lane width must be *invisible*: every value the CPU and GPU models'
//! `LaneProgram` produces — across every lane width × numeric mode ×
//! precision × query mode, on ragged (`len % lanes ≠ 0`) and empty batches, serial or sharded
//! — must equal the reference interpreter `OpList::run_into` bit for bit,
//! and the modelled performance counters must be identical (lane blocking
//! regroups independent queries; it does not change what any query
//! computes or costs in the model).  Those checks are slices of the parity
//! matrix (`tests/parity/mod.rs`).  The lane program's register file is
//! also held to its exact size.

mod parity;

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use spn_accel::core::flatten::{OpList, OperandRef};
use spn_accel::core::random::{random_spn, RandomSpnConfig};
use spn_accel::core::vectorized::LaneProgram;
use spn_accel::core::{EvidenceBatch, NumericMode, Precision};
use spn_accel::learn::Benchmark;
use spn_accel::platforms::{Backend, CpuModel, Engine, EngineOptions, ExecBuffers, Plan};

/// Every backend that takes its values from a `LaneProgram` — the CPU model
/// at every lane width and the GPU model — × numeric mode × precision ×
/// batch shape (including empty and ragged) agrees with the reference
/// interpreter bit for bit, costs `len` times its per-query report, and
/// sizes its register file by the widest block the batch uses.
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

/// The register file carries no value from one call, width or program to
/// the next: one set of buffers alternated between two programs of the same input shape but
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

/// The most operation results live at once in `ops`, counted from each
/// result's last reader: result `j` is live from its own op up to (not at)
/// its last reader, where it is freed before that op takes its slot; an
/// unread result only at its own op; the root to the end.
fn peak_live_results(ops: &OpList) -> usize {
    let n = ops.num_ops();
    let mut last_reader: Vec<Option<usize>> = vec![None; n];
    for (i, op) in ops.ops().iter().enumerate() {
        for operand in [op.lhs, op.rhs] {
            if let OperandRef::Op(j) = operand {
                last_reader[j as usize] = Some(i);
            }
        }
    }
    if let OperandRef::Op(root) = ops.output() {
        last_reader[root as usize] = Some(n);
    }
    let mut change = vec![0isize; n + 1];
    for (j, last) in last_reader.iter().enumerate() {
        change[j] += 1;
        change[last.unwrap_or(j + 1)] -= 1;
    }
    let mut live = 0isize;
    let mut peak = 0isize;
    for delta in &change[..n] {
        live += delta;
        peak = peak.max(live);
    }
    peak as usize
}

/// The CPU and GPU models' register file is exactly as small as a linear
/// scan can make it: two indicator lane groups per variable plus the most
/// results live at any one operation, on the nine circuits of Fig. 4 in
/// each form their engines run.
#[test]
fn lane_program_slots_are_two_per_variable_plus_the_peak_live_results() {
    for benchmark in Benchmark::all() {
        let flat = OpList::from_spn(&benchmark.spn());
        let forms = [
            ("log", flat.to_log_domain()),
            ("max-product", flat.to_max_product()),
            ("linear", flat),
        ];
        for (form, ops) in forms {
            let program = LaneProgram::from_op_list(&ops);
            let peak = peak_live_results(&ops);
            assert!(peak > 0, "{} {form}", benchmark.name());
            assert_eq!(
                program.slots(),
                2 * ops.num_vars() + peak,
                "{} {form}",
                benchmark.name()
            );
        }
    }
}
