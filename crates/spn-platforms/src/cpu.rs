//! Superscalar CPU execution model.
//!
//! Models the paper's CPU baseline: an Intel Core i5-7200U executing the SPN
//! as a flat list of scalar operations (Algorithm 1) compiled to straight-line
//! code.  The model executes the real operation list for the value and counts
//! cycles from the bottlenecks such code runs into:
//!
//! * only two floating-point units and two load ports per cycle,
//! * the working array no longer fits the architectural/physical registers,
//!   so most operands come from loads and most results go back to memory,
//! * the straight-line code itself is megabytes long, so the front end can
//!   only feed the core at its fetch bandwidth,
//! * data sets bigger than the 32 KB L1 pay an extra miss penalty,
//! * dependency chains through the DAG put a floor on latency.
//!
//! The default parameters are calibrated so that large irregular SPNs land
//! near the paper's measured peak of ≈ 0.55 effective operations per cycle.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use spn_core::batch::EvidenceBatch;
use spn_core::flatten::{OpList, OperandRef};
use spn_core::incremental::ConeAnalysis;
use spn_core::vectorized::{self, LaneProgram};
use spn_processor::PerfReport;

use crate::backend::{execute_op_list, Backend, BackendError, BatchResult, ExecBuffers};
use crate::options::EngineOptions;

/// Microarchitectural parameters of the CPU model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct CpuConfig {
    /// Display name.
    pub name: String,
    /// Micro-ops the front end can issue per cycle.
    pub issue_width: f64,
    /// Floating-point units (arithmetic operations per cycle).
    pub fp_units: f64,
    /// Load ports (loads per cycle).
    pub load_ports: f64,
    /// Store ports (stores per cycle).
    pub store_ports: f64,
    /// Latency of a floating-point operation in cycles.
    pub fp_latency: u64,
    /// L1 load-to-use latency in cycles.
    pub l1_latency: u64,
    /// L1 data-cache capacity in bytes.
    pub l1_bytes: usize,
    /// Additional latency of an L2 hit, in cycles.
    pub l2_extra_latency: f64,
    /// Overlapping outstanding misses (memory-level parallelism).
    pub miss_parallelism: f64,
    /// Values that stay in registers: operands produced at most this many
    /// operations earlier need no load.
    pub register_window: usize,
    /// Average machine-code bytes per SPN operation in the straight-line code.
    pub code_bytes_per_op: f64,
    /// Instruction-fetch bandwidth in bytes per cycle.
    pub fetch_bytes_per_cycle: f64,
    /// Fixed micro-op overhead per operation (addressing, loop bookkeeping).
    pub overhead_uops: f64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            name: "CPU".to_string(),
            issue_width: 4.0,
            fp_units: 2.0,
            load_ports: 2.0,
            store_ports: 1.0,
            fp_latency: 4,
            l1_latency: 4,
            l1_bytes: 32 * 1024,
            l2_extra_latency: 10.0,
            miss_parallelism: 4.0,
            register_window: 168,
            code_bytes_per_op: 22.0,
            fetch_bytes_per_cycle: 16.0,
            overhead_uops: 1.0,
        }
    }
}

/// The CPU execution model.
///
/// Every batch runs the program's register-allocated
/// [`LaneProgram`] (see [`CpuCompiled::lane_program`]): the batch is cut
/// into lane blocks of the configured width
/// ([`spn_core::vectorized::MAX_LANES`], 32 queries, by default — each step
/// pays its dispatch once per block, and its fixed-trip inner loops are
/// what the autovectorizer turns into SIMD), and what is left over into
/// blocks of the next supported widths down to one.  Lane blocking only regroups
/// independent queries, so results do not depend on the width;
/// [`CpuModel::scalar`] runs one query per pass (the benchmark baseline).
#[derive(Debug, Clone)]
pub struct CpuModel {
    config: CpuConfig,
    lanes: usize,
}

impl Default for CpuModel {
    /// Default parameters, lane-blocked at the widest supported width.
    fn default() -> Self {
        CpuModel {
            config: CpuConfig::default(),
            lanes: vectorized::MAX_LANES,
        }
    }
}

impl CpuModel {
    /// Creates a model with default (i5-7200U class) parameters and
    /// lane-blocked execution.
    pub fn new() -> Self {
        CpuModel::default()
    }

    /// Creates a model with explicit parameters (lane-blocked execution).
    #[cfg(test)]
    fn with_config(config: CpuConfig) -> Self {
        CpuModel {
            config,
            lanes: vectorized::MAX_LANES,
        }
    }

    /// A model that executes one query per pass (`lanes = 1`) — the baseline
    /// the benchmarks compare the wider lane blocks to.
    pub fn scalar() -> Self {
        CpuModel::new().with_lanes(1)
    }

    /// Sets the lane-block width of the execute-many path.
    ///
    /// `lanes` is normalised onto the supported widths
    /// ([`spn_core::vectorized::normalize_lanes`]): `0`/`1` select one
    /// query per pass, larger values round down to `2`, `4`, `8`, `16` or
    /// `32`.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = vectorized::normalize_lanes(lanes);
        self
    }

    /// The widest lane block the execute-many path cuts a batch into.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Counts cycles for one inference pass over `ops`.
    pub(crate) fn model_cycles(&self, ops: &OpList) -> PerfReport {
        let cfg = &self.config;
        let n = ops.num_ops();
        if n == 0 {
            return PerfReport {
                platform: cfg.name.clone(),
                queries: 1,
                cycles: 1,
                ..Default::default()
            };
        }

        // Memory traffic: operands count as loads when they are program
        // inputs or were produced too long ago to still sit in a register;
        // results count as stores when some consumer is that far away.
        let mut loads = 0usize;
        let mut last_consumer = vec![0usize; n];
        for (i, op) in ops.ops().iter().enumerate() {
            for operand in [op.lhs, op.rhs] {
                match operand {
                    OperandRef::Input(_) => loads += 1,
                    OperandRef::Op(j) => {
                        let distance = i - j as usize;
                        if distance > cfg.register_window {
                            loads += 1;
                        }
                        last_consumer[j as usize] = i;
                    }
                }
            }
        }
        let stores = (0..n)
            .filter(|&j| last_consumer[j].saturating_sub(j) > cfg.register_window)
            .count()
            + 1; // the root is always written out

        // Throughput bounds.
        let uops = n as f64 * (1.0 + cfg.overhead_uops) + (loads + stores) as f64;
        let fp_bound = n as f64 / cfg.fp_units;
        let load_bound = loads as f64 / cfg.load_ports;
        let store_bound = stores as f64 / cfg.store_ports;
        let issue_bound = uops / cfg.issue_width;
        let fetch_bound = n as f64 * cfg.code_bytes_per_op / cfg.fetch_bytes_per_cycle;

        // Latency bound: the critical path through the DAG, paying the FP
        // latency per level and the L1 latency when the operand was loaded.
        let mut depth = vec![0u64; n];
        let mut critical = 0u64;
        for (i, op) in ops.ops().iter().enumerate() {
            let mut d = 0u64;
            for operand in [op.lhs, op.rhs] {
                let operand_depth = match operand {
                    OperandRef::Input(_) => cfg.l1_latency,
                    OperandRef::Op(j) => {
                        let dist = i - j as usize;
                        depth[j as usize]
                            + if dist > cfg.register_window {
                                cfg.l1_latency
                            } else {
                                0
                            }
                    }
                };
                d = d.max(operand_depth);
            }
            depth[i] = d + cfg.fp_latency;
            critical = critical.max(depth[i]);
        }

        // Cache behaviour: the working array (inputs + intermediates, 32-bit
        // words) beyond L1 capacity pays an L2 penalty on its share of loads.
        let working_set = (ops.num_inputs() + n) * 4;
        let miss_fraction = if working_set > cfg.l1_bytes {
            1.0 - cfg.l1_bytes as f64 / working_set as f64
        } else {
            0.0
        };
        let miss_penalty =
            loads as f64 * miss_fraction * cfg.l2_extra_latency / cfg.miss_parallelism;

        let cycles = fp_bound
            .max(load_bound)
            .max(store_bound)
            .max(issue_bound)
            .max(fetch_bound)
            .max(critical as f64)
            + miss_penalty;

        PerfReport {
            platform: cfg.name.clone(),
            queries: 1,
            cycles: cycles.ceil() as u64,
            source_ops: n as u64,
            issued_ops: n as u64,
            instructions: uops.ceil() as u64,
            stall_cycles: 0,
            memory_loads: loads as u64,
            memory_stores: stores as u64,
            writebacks: stores as u64,
            operand_reads: 2 * n as u64,
        }
    }
}

/// The CPU model's compiled artifact: everything evidence-independent
/// about a program — its register-allocated [`LaneProgram`], which every
/// batch runs, the modelled per-query cost (straight-line code has
/// the same cycle count for every query, so the whole microarchitectural
/// model runs once at compile time), and the per-variable reachability
/// cones backing incremental session evaluation.
#[derive(Debug, Clone)]
pub struct CpuCompiled {
    program: LaneProgram,
    perf_per_query: PerfReport,
    cones: Arc<ConeAnalysis>,
}

impl CpuCompiled {
    /// The register-allocated program batches run.
    pub fn lane_program(&self) -> &LaneProgram {
        &self.program
    }

    /// The modelled cost of one inference pass.
    pub fn perf_per_query(&self) -> &PerfReport {
        &self.perf_per_query
    }
}

impl Backend for CpuModel {
    type Compiled = CpuCompiled;
    type Scratch = ();

    fn name(&self) -> String {
        self.config.name.clone()
    }

    /// Takes [`EngineOptions::lanes`] as the lane-block width (normalised
    /// like [`CpuModel::with_lanes`]); other knobs are not the CPU model's.
    fn configure(&mut self, options: &EngineOptions) -> Result<(), BackendError> {
        if let Some(lanes) = options.lanes {
            self.lanes = vectorized::normalize_lanes(lanes);
        }
        Ok(())
    }

    fn compile(&self, ops: &OpList) -> Result<CpuCompiled, BackendError> {
        Ok(CpuCompiled {
            program: LaneProgram::from_op_list(ops),
            perf_per_query: self.model_cycles(ops),
            cones: Arc::new(ConeAnalysis::from_op_list(ops)),
        })
    }

    /// The CPU model supports incremental sessions: its batches and the
    /// session's cone replay apply the same
    /// [`OpKind::apply_lanes`](spn_core::flatten::OpKind::apply_lanes), so
    /// cone re-execution and full passes agree bit-for-bit.
    fn cone_analysis(&self, compiled: &CpuCompiled) -> Option<Arc<ConeAnalysis>> {
        Some(Arc::clone(&compiled.cones))
    }

    fn execute_batch(
        &self,
        compiled: &CpuCompiled,
        batch: &EvidenceBatch,
        buffers: &mut ExecBuffers,
        _scratch: &mut (),
    ) -> Result<BatchResult, BackendError> {
        execute_op_list(
            &compiled.program,
            &compiled.perf_per_query,
            self.lanes,
            batch,
            buffers,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spn_core::random::{random_spn, RandomSpnConfig};

    fn big_ops() -> OpList {
        let mut rng = StdRng::seed_from_u64(41);
        let spn = random_spn(&RandomSpnConfig::with_vars(200), &mut rng);
        OpList::from_spn(&spn)
    }

    #[test]
    fn executes_and_matches_reference() {
        let mut rng = StdRng::seed_from_u64(42);
        let spn = random_spn(&RandomSpnConfig::with_vars(12), &mut rng);
        let ops = OpList::from_spn(&spn);
        let cpu = CpuModel::new();
        let compiled = cpu.compile(&ops).unwrap();
        let evidence = spn_core::Evidence::marginal(12);
        let batch = EvidenceBatch::from_evidences(12, std::slice::from_ref(&evidence)).unwrap();
        let result = cpu
            .execute_batch(&compiled, &batch, &mut ExecBuffers::new(), &mut ())
            .unwrap();
        assert!((result.values[0] - spn.evaluate(&evidence).unwrap()).abs() < 1e-9);
        assert_eq!(result.perf.source_ops, ops.num_ops() as u64);
        assert_eq!(result.perf.queries, 1);
        assert!(result.perf.cycles > 0);
    }

    #[test]
    fn batched_execution_reuses_buffers_and_accumulates() {
        let mut rng = StdRng::seed_from_u64(45);
        let spn = random_spn(&RandomSpnConfig::with_vars(10), &mut rng);
        let ops = OpList::from_spn(&spn);
        let cpu = CpuModel::new();
        let compiled = cpu.compile(&ops).unwrap();
        let mut buffers = ExecBuffers::new();

        let mut batch = EvidenceBatch::new(10);
        batch.push_marginal();
        batch.push_assignment(&[true; 10]).unwrap();
        batch.push_assignment(&[false; 10]).unwrap();
        let result = cpu
            .execute_batch(&compiled, &batch, &mut buffers, &mut ())
            .unwrap();
        assert_eq!(result.values.len(), 3);
        assert_eq!(result.perf.queries, 3);
        assert_eq!(result.perf.cycles, 3 * compiled.perf_per_query().cycles);
        for (q, value) in result.values.iter().enumerate() {
            let expected = spn.evaluate(&batch.to_evidence(q)).unwrap();
            assert!((value - expected).abs() < 1e-9, "query {q}");
        }
        // Wrong-arity batches are rejected.
        assert!(cpu
            .execute_batch(
                &compiled,
                &EvidenceBatch::marginals(4, 1),
                &mut buffers,
                &mut ()
            )
            .is_err());
    }

    #[test]
    fn lane_blocked_path_matches_scalar_bit_for_bit_on_ragged_batches() {
        let mut rng = StdRng::seed_from_u64(46);
        let spn = random_spn(&RandomSpnConfig::with_vars(11), &mut rng);
        let ops = OpList::from_spn(&spn).to_log_domain();
        let scalar = CpuModel::scalar();
        let scalar_compiled = scalar.compile(&ops).unwrap();
        for len in [0usize, 1, 7, 8, 9, 16, 23, 31, 32, 33, 65] {
            let mut batch = EvidenceBatch::new(11);
            for q in 0..len {
                let mut e = spn_core::Evidence::marginal(11);
                e.observe(q % 11, q % 3 == 0);
                batch.push(&e).unwrap();
            }
            let want = scalar
                .execute_batch(&scalar_compiled, &batch, &mut ExecBuffers::new(), &mut ())
                .unwrap();
            for lanes in [2usize, 4, 8, 16, 32] {
                let cpu = CpuModel::new().with_lanes(lanes);
                assert_eq!(cpu.lanes(), lanes);
                let compiled = cpu.compile(&ops).unwrap();
                let got = cpu
                    .execute_batch(&compiled, &batch, &mut ExecBuffers::new(), &mut ())
                    .unwrap();
                assert_eq!(got.values.len(), len);
                for (q, (g, w)) in got.values.iter().zip(&want.values).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "len {len} lanes {lanes} query {q}"
                    );
                }
                assert_eq!(got.perf, want.perf, "len {len} lanes {lanes}");
            }
        }
    }

    #[test]
    fn throughput_lands_in_the_sub_one_ops_per_cycle_regime() {
        let ops = big_ops();
        let report = CpuModel::new().model_cycles(&ops);
        let throughput = report.ops_per_cycle();
        assert!(
            (0.2..1.2).contains(&throughput),
            "CPU model throughput {throughput} outside the plausible range"
        );
    }

    #[test]
    fn more_fp_units_do_not_slow_it_down() {
        let ops = big_ops();
        let slow = CpuModel::new().model_cycles(&ops);
        let fast = CpuModel::with_config(CpuConfig {
            fp_units: 8.0,
            load_ports: 8.0,
            store_ports: 4.0,
            issue_width: 16.0,
            fetch_bytes_per_cycle: 64.0,
            ..Default::default()
        })
        .model_cycles(&ops);
        assert!(fast.cycles <= slow.cycles);
    }

    #[test]
    fn bigger_register_window_reduces_memory_traffic() {
        let ops = big_ops();
        let narrow = CpuModel::with_config(CpuConfig {
            register_window: 8,
            ..Default::default()
        })
        .model_cycles(&ops);
        let wide = CpuModel::with_config(CpuConfig {
            register_window: 100_000,
            ..Default::default()
        })
        .model_cycles(&ops);
        assert!(wide.memory_loads < narrow.memory_loads);
    }

    #[test]
    fn empty_program_costs_one_cycle() {
        let mut b = spn_core::SpnBuilder::new(1);
        let x = b.indicator(spn_core::VarId(0), true);
        let spn = b.finish(x).unwrap();
        let report = CpuModel::new().model_cycles(&OpList::from_spn(&spn));
        assert_eq!(report.cycles, 1);
    }
}
