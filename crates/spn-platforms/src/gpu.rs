//! SIMT GPU execution model of the paper's CUDA kernel (Algorithm 3).
//!
//! The CUDA implementation decomposes the SPN into dependency groups,
//! executes each group across the thread block, and synchronises with
//! `__syncthreads()` between groups.  The paper identifies three reasons the
//! resulting scaling is sublinear:
//!
//! 1. **Thread-synchronisation overhead** paid once per dependency group,
//! 2. **Shared-memory bandwidth**: 32 banks serve all threads, and threads
//!    in a warp that hit the same bank are serialised,
//! 3. **Thread divergence** between the sum and product sides of the `if`.
//!
//! The model is analytic: at compile time it decomposes the operation list
//! into dependency groups, assigns working-array elements to shared memory
//! banks with the same greedy colouring idea used in the paper, and charges
//! cycles for exactly those three mechanisms plus plain instruction issue.
//! The *values* of a batch are by construction those of the CPU model — a
//! kernel computes each operation once from the same operands in whatever
//! order its groups run — so `execute_batch` takes them from the same
//! register-allocated [`spn_core::vectorized::LaneProgram`] the CPU model
//! runs (`backend::execute_op_list`).

use serde::{Deserialize, Serialize};
use spn_core::batch::EvidenceBatch;
use spn_core::flatten::{OpKind, OpList, OperandRef};
use spn_core::levelize::Levelization;
use spn_core::vectorized::{self, LaneProgram};
use spn_processor::PerfReport;

use crate::backend::{execute_op_list, Backend, BackendError, BatchResult, ExecBuffers};

/// Parameters of the GPU model (defaults follow the Jetson TX2 block used in
/// the paper: 128 CUDA cores, 32 shared-memory banks).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Display name.
    pub name: String,
    /// Threads in the thread block.
    pub threads: usize,
    /// Threads per warp.
    pub warp_size: usize,
    /// Warps that can be resident/issuing concurrently (CUDA cores / warp).
    pub concurrent_warps: usize,
    /// Shared-memory banks.
    pub shared_banks: usize,
    /// Cycles charged per `__syncthreads()` barrier.
    pub sync_overhead: u64,
    /// Instructions issued per operation per thread (index loads, address
    /// arithmetic, the arithmetic operation itself, the result store).
    pub instructions_per_op: f64,
    /// Extra issue factor when a warp diverges between sum and product.
    pub divergence_penalty: f64,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            name: "GPU".to_string(),
            threads: 256,
            warp_size: 32,
            concurrent_warps: 4,
            shared_banks: 32,
            sync_overhead: 36,
            instructions_per_op: 6.0,
            divergence_penalty: 1.6,
        }
    }
}

impl GpuConfig {
    /// A configuration with a different thread-block size (used for the
    /// thread-scaling experiment of Fig. 2c).
    pub fn with_threads(threads: usize) -> Self {
        GpuConfig {
            name: format!("GPU-{threads}"),
            threads,
            ..Default::default()
        }
    }
}

/// The SIMT execution model.
#[derive(Debug, Clone, Default)]
pub struct GpuModel {
    config: GpuConfig,
}

impl GpuModel {
    /// Creates a model with the default 256-thread configuration.
    pub fn new() -> Self {
        GpuModel::default()
    }

    /// Creates a model with explicit parameters.
    pub fn with_config(config: GpuConfig) -> Self {
        GpuModel { config }
    }

    /// Assigns every working-array element (inputs then op results) to a
    /// shared-memory bank.  A greedy colouring spreads the operands of
    /// consecutive operations across banks, mimicking the paper's
    /// graph-colouring allocation that minimises warp bank conflicts.
    fn assign_banks(&self, ops: &OpList) -> Vec<usize> {
        let banks = self.config.shared_banks;
        let total = ops.num_inputs() + ops.num_ops();
        let mut bank_of = vec![usize::MAX; total];
        let mut next = 0usize;
        // Inputs round-robin.
        for (i, slot) in bank_of.iter_mut().enumerate().take(ops.num_inputs()) {
            *slot = i % banks;
            next = (i + 1) % banks;
        }
        // Results: avoid the banks of the operation's own operands, then
        // round-robin.
        let index_of = |r: OperandRef| match r {
            OperandRef::Input(i) => i as usize,
            OperandRef::Op(i) => ops.num_inputs() + i as usize,
        };
        for (i, op) in ops.ops().iter().enumerate() {
            let avoid = [bank_of[index_of(op.lhs)], bank_of[index_of(op.rhs)]];
            let mut chosen = next;
            for _ in 0..banks {
                if !avoid.contains(&chosen) {
                    break;
                }
                chosen = (chosen + 1) % banks;
            }
            bank_of[ops.num_inputs() + i] = chosen;
            next = (chosen + 1) % banks;
        }
        bank_of
    }

    /// Counts cycles for one inference pass over `ops`: derives the
    /// dependency groups and the bank assignment, then charges barriers,
    /// shared-memory serialisation, divergence and issue group by group.
    /// The SIMT schedule is evidence-independent, so [`Backend::compile`]
    /// runs this once and every query of every batch is charged the result.
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
        let levels = Levelization::from_op_list(ops);
        let bank_of = self.assign_banks(ops);
        let index_of = |r: OperandRef| match r {
            OperandRef::Input(i) => i as usize,
            OperandRef::Op(i) => ops.num_inputs() + i as usize,
        };

        let mut cycles: u64 = 0;
        let mut shared_accesses: u64 = 0;
        let mut stall_cycles: u64 = 0;
        for group in levels.iter() {
            // One barrier per group (the paper's sync bottleneck).
            cycles += cfg.sync_overhead;
            stall_cycles += cfg.sync_overhead;
            // Threads take ops in order; each chunk of `threads` ops is one
            // pass over the block, executed warp by warp with at most
            // `concurrent_warps` warps in flight.
            for chunk in group.chunks(cfg.threads.max(1)) {
                // Shared memory is a block-wide resource: 32 banks serve the
                // whole chunk, so its bandwidth bounds the chunk from below.
                let block_bandwidth_cycles = (3 * chunk.len()).div_ceil(cfg.shared_banks) as u64;
                let mut warp_costs: Vec<u64> = Vec::new();
                for warp_ops in chunk.chunks(cfg.warp_size) {
                    // Shared-memory serialisation: reads of both operands and
                    // the write of the result, phase by phase.
                    let mut phases = [
                        vec![0u32; cfg.shared_banks],
                        vec![0u32; cfg.shared_banks],
                        vec![0u32; cfg.shared_banks],
                    ];
                    let mut has_sum = false;
                    let mut has_product = false;
                    for &op_idx in warp_ops {
                        let op = ops.ops()[op_idx];
                        phases[0][bank_of[index_of(op.lhs)]] += 1;
                        phases[1][bank_of[index_of(op.rhs)]] += 1;
                        phases[2][bank_of[ops.num_inputs() + op_idx]] += 1;
                        match op.kind {
                            // Max and log-sum-exp ops take the sum side of
                            // the paper's sum/product divergence split: the
                            // max-product and log-domain kernels diverge
                            // exactly where the sum-product kernel does.  (A
                            // log-domain program's products lower to Add, so
                            // it never mixes both sides in one warp — its
                            // transcendental cost is modelled through
                            // instructions_per_op, not divergence.)
                            OpKind::Add | OpKind::Max | OpKind::LogAdd => has_sum = true,
                            // The sampler comparator is a one-instruction
                            // select: cost-model it with the product side
                            // (no transcendental, no extra divergence).
                            OpKind::Mul | OpKind::Sam => has_product = true,
                        }
                        shared_accesses += 3;
                    }
                    let shared_cycles: u64 = phases
                        .iter()
                        .map(|p| u64::from(*p.iter().max().unwrap_or(&1)))
                        .sum();
                    let mut issue = cfg.instructions_per_op;
                    if has_sum && has_product {
                        issue *= cfg.divergence_penalty;
                    }
                    warp_costs.push(shared_cycles.max(issue.ceil() as u64));
                }
                // Warps beyond the concurrent capacity run back to back, and
                // the whole chunk can never beat the shared-memory bandwidth.
                let batches = warp_costs.len().div_ceil(cfg.concurrent_warps.max(1));
                let max_cost = warp_costs.iter().copied().max().unwrap_or(0);
                cycles += (max_cost * batches as u64).max(block_bandwidth_cycles);
            }
        }

        PerfReport {
            platform: cfg.name.clone(),
            queries: 1,
            cycles: cycles.max(1),
            source_ops: n as u64,
            issued_ops: n as u64,
            instructions: (n as f64 * cfg.instructions_per_op) as u64,
            stall_cycles,
            memory_loads: ops.num_inputs() as u64,
            memory_stores: 1,
            writebacks: n as u64,
            operand_reads: shared_accesses,
        }
    }
}

/// The GPU model's compiled artifact: the program's register-allocated
/// [`LaneProgram`] (which batches run, as on the CPU model) and the
/// modelled per-query cost (the SIMT schedule is evidence-independent, so
/// it is counted once at compile time).
#[derive(Debug, Clone)]
pub struct GpuCompiled {
    program: LaneProgram,
    perf_per_query: PerfReport,
}

impl GpuCompiled {
    /// The register-allocated program batches run.
    pub fn lane_program(&self) -> &LaneProgram {
        &self.program
    }

    /// The modelled cost of one inference pass.
    pub fn perf_per_query(&self) -> &PerfReport {
        &self.perf_per_query
    }
}

impl Backend for GpuModel {
    type Compiled = GpuCompiled;
    type Scratch = ();

    fn name(&self) -> String {
        self.config.name.clone()
    }

    fn compile(&self, ops: &OpList) -> Result<GpuCompiled, BackendError> {
        Ok(GpuCompiled {
            program: LaneProgram::from_op_list(ops),
            perf_per_query: self.model_cycles(ops),
        })
    }

    fn execute_batch(
        &self,
        compiled: &GpuCompiled,
        batch: &EvidenceBatch,
        buffers: &mut ExecBuffers,
        _scratch: &mut (),
    ) -> Result<BatchResult, BackendError> {
        execute_op_list(
            &compiled.program,
            &compiled.perf_per_query,
            vectorized::MAX_LANES,
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
        let mut rng = StdRng::seed_from_u64(43);
        let spn = random_spn(&RandomSpnConfig::with_vars(200), &mut rng);
        OpList::from_spn(&spn)
    }

    #[test]
    fn executes_and_matches_reference() {
        let mut rng = StdRng::seed_from_u64(44);
        let spn = random_spn(&RandomSpnConfig::with_vars(10), &mut rng);
        let ops = OpList::from_spn(&spn);
        let gpu = GpuModel::new();
        let compiled = gpu.compile(&ops).unwrap();
        let mut batch = EvidenceBatch::marginals(10, 1);
        batch.push_assignment(&[true; 10]).unwrap();
        let result = gpu
            .execute_batch(&compiled, &batch, &mut ExecBuffers::new(), &mut ())
            .unwrap();
        for (q, value) in result.values.iter().enumerate() {
            let expected = spn.evaluate(&batch.to_evidence(q)).unwrap();
            assert!((value - expected).abs() < 1e-9, "query {q}");
        }
        assert_eq!(result.perf.queries, 2);
        assert_eq!(result.perf.cycles, 2 * compiled.perf_per_query().cycles);
        assert!(result.perf.cycles > 0);
    }

    #[test]
    fn single_thread_is_slower_than_the_full_block() {
        let ops = big_ops();
        let one = GpuModel::with_config(GpuConfig::with_threads(1)).model_cycles(&ops);
        let full = GpuModel::with_config(GpuConfig::with_threads(256)).model_cycles(&ops);
        assert!(full.ops_per_cycle() > one.ops_per_cycle() * 2.0);
    }

    #[test]
    fn thread_scaling_is_sublinear() {
        let ops = big_ops();
        let t32 = GpuModel::with_config(GpuConfig::with_threads(32)).model_cycles(&ops);
        let t256 = GpuModel::with_config(GpuConfig::with_threads(256)).model_cycles(&ops);
        let speedup = t256.ops_per_cycle() / t32.ops_per_cycle();
        assert!(
            speedup < 8.0,
            "8x the threads must give less than 8x the throughput, got {speedup}"
        );
        assert!(speedup > 1.0);
    }

    #[test]
    fn throughput_never_exceeds_the_shared_memory_bandwidth_ceiling() {
        // Wide, regular random SPNs are the GPU's best case; even there the
        // 32-bank shared memory (3 accesses per op) caps the throughput.
        // Irregular benchmark circuits land near 1 ops/cycle (asserted by the
        // figure-shape integration tests).
        let ops = big_ops();
        let report = GpuModel::new().model_cycles(&ops);
        let throughput = report.ops_per_cycle();
        let ceiling = 32.0 / 3.0;
        assert!(
            throughput > 0.1 && throughput <= ceiling,
            "GPU model throughput {throughput} outside (0.1, {ceiling}]"
        );
    }

    #[test]
    fn sync_overhead_dominates_for_deep_narrow_circuits() {
        // A chain SPN has one op per group: almost all time is barriers.
        let mut b = spn_core::SpnBuilder::new(1);
        let mut prev = b.indicator(spn_core::VarId(0), true);
        for _ in 0..50 {
            let c = b.constant(1.0);
            prev = b.product(vec![prev, c]).unwrap();
        }
        let spn = b.finish(prev).unwrap();
        let ops = OpList::from_spn(&spn);
        let report = GpuModel::new().model_cycles(&ops);
        assert!(report.stall_cycles as f64 / report.cycles as f64 > 0.8);
    }

    #[test]
    fn bank_assignment_avoids_own_operand_banks() {
        let ops = big_ops();
        let model = GpuModel::new();
        let banks = model.assign_banks(&ops);
        for (i, op) in ops.ops().iter().enumerate().take(500) {
            let index_of = |r: OperandRef| match r {
                OperandRef::Input(k) => k as usize,
                OperandRef::Op(k) => ops.num_inputs() + k as usize,
            };
            let own = banks[ops.num_inputs() + i];
            assert_ne!(own, banks[index_of(op.lhs)]);
            assert_ne!(own, banks[index_of(op.rhs)]);
        }
    }

    #[test]
    fn empty_program_costs_one_cycle() {
        let mut b = spn_core::SpnBuilder::new(1);
        let x = b.indicator(spn_core::VarId(0), true);
        let spn = b.finish(x).unwrap();
        let report = GpuModel::new().model_cycles(&OpList::from_spn(&spn));
        assert_eq!(report.cycles, 1);
    }
}
