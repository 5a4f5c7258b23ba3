//! The N-core processor simulator.
//!
//! [`MultiCoreProcessor`] executes compiled programs on
//! [`MultiCoreConfig::cores`] identical single-core datapaths behind a
//! shared parameter memory and a linear interconnect
//! (see `interconnect`).  Two execution modes cover the paper's
//! scaling story:
//!
//! * **Batch-sharded** ([`MultiCoreProcessor::run_batch_sharded`]): every
//!   core runs the *full* program on a contiguous shard of the evidence
//!   batch, so outputs are bit-for-bit equal to the single-core batch
//!   order.  Cores contend for the shared parameter memory: under lockstep
//!   wave arbitration core `c` pays `c / ports` extra cycles per memory
//!   transaction, so a later core's pass can cost more
//!   ([`MultiCoreProcessor::pass_costs`]).  Each shard is sized by its
//!   core's pass cost ([`MultiCoreProcessor::shard_ranges_by_cost`]) so that
//!   the busiest core, whose cycle count is the makespan, finishes as early
//!   as any contiguous split allows; where every core costs the same this
//!   is the even split `spn-platforms`' host-thread parallelism uses.
//! * **Pipelined / partitioned** ([`MultiCoreProcessor::run_partitioned`]):
//!   the flattened op list is split into pipeline stages, one per core
//!   ([`PartitionedProgram`], produced by
//!   `spn_compiler::Compiler::compile_partitioned`), and intermediate
//!   operands travel over the interconnect.  Stage `j` starts once the
//!   last imported operand has arrived (`start_j = max_k(start_k +
//!   cycles_k + latency(k→j))`); queries then stream at an initiation
//!   interval of `max_j cycles_j`, so the batch makespan is
//!   `finish(first query) + (Q-1) × II`.
//!
//! Both modes return a [`MultiCoreBatch`] whose [`MultiCorePerf`] attributes
//! every makespan cycle of every core to compute, memory stalls,
//! interconnect stalls or idle time — an exact partition that
//! [`MultiCorePerf::check_accounting`] verifies.  It is a pure function of
//! the programs ([`Program::perf`]), the machine and the query count.  A
//! [`CheckedProgram`] is checked ([`Processor::check`]), costed and lowered
//! to a dataflow list once per plan, and [`MultiCoreProcessor::sharded_perf`]
//! costs its batches without running one; the runners below take a bare
//! program and do all three once per call, before query 0.  Queries replay
//! the list for values only, up to eight side by side.  Both modes exist in
//! `_traced` variants that record per-cycle golden traces on the global
//! timeline (stage starts and steady-state offsets included), so a change
//! to any latency model moves trace rows and is caught at the first
//! divergent cycle by `crate::trace::diff_traces`.

use std::ops::Range;

use crate::config::MultiCoreConfig;
use crate::dataflow::Dataflow;
use crate::error::ProcessorError;
use crate::isa::Program;
use crate::perf::{CorePerf, MultiCorePerf, PerfReport};
use crate::processor::{CheckedProgram, Processor, SimState};
use crate::trace::{NoTrace, TraceHook, TraceRecorder};
use crate::Result;

/// Where one input slot of a pipeline stage's program gets its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferSource {
    /// Global program input `index` (filled from the evidence batch).
    Input(u32),
    /// Export `export` of the stage running on `core` (an earlier stage),
    /// delivered over the interconnect.
    Core {
        /// Producing core (must be an earlier stage).
        core: u32,
        /// Index into that stage's [`Program::exports`].
        export: u32,
    },
}

/// One pipeline stage of a partitioned program: the compiled sub-program a
/// core runs plus the source of each of its input slots.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreProgram {
    /// The stage's compiled program (its [`Program::exports`] are the
    /// operands later stages import).
    pub program: Program,
    /// One entry per input slot of `program`, in input-layout order.
    pub inputs: Vec<TransferSource>,
}

/// A program partitioned into pipeline stages, one per core.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedProgram {
    /// The stages in pipeline order; stage `j` runs on core `j`.
    pub stages: Vec<CoreProgram>,
    /// Number of global program inputs ([`TransferSource::Input`] indices
    /// range over `0..num_inputs`).
    pub num_inputs: usize,
}

impl PartitionedProgram {
    /// Validates the stage graph against a machine with `cores` cores.
    ///
    /// # Errors
    ///
    /// Returns [`ProcessorError::InvalidConfig`] when there are no stages or
    /// more stages than cores, when a transfer references a global input or
    /// an export out of range or a non-earlier core, or when a non-final
    /// stage feeds no later stage (its cycles could never overlap the
    /// pipeline, breaking cycle accounting).
    pub(crate) fn validate(&self, cores: usize) -> Result<()> {
        let fail = |reason: String| Err(ProcessorError::InvalidConfig { reason });
        if self.stages.is_empty() {
            return fail("partitioned program has no stages".to_string());
        }
        if self.stages.len() > cores {
            return fail(format!(
                "partitioned program has {} stages but the machine has {} cores",
                self.stages.len(),
                cores
            ));
        }
        let mut feeds_later = vec![false; self.stages.len()];
        for (j, stage) in self.stages.iter().enumerate() {
            if stage.inputs.len() != stage.program.input_layout.len() {
                return fail(format!(
                    "stage {j} declares {} transfer sources for {} program inputs",
                    stage.inputs.len(),
                    stage.program.input_layout.len()
                ));
            }
            for src in &stage.inputs {
                match *src {
                    TransferSource::Input(i) => {
                        if i as usize >= self.num_inputs {
                            return fail(format!(
                                "stage {j} reads global input {i} of {}",
                                self.num_inputs
                            ));
                        }
                    }
                    TransferSource::Core { core, export } => {
                        let k = core as usize;
                        if k >= j {
                            return fail(format!(
                                "stage {j} imports from core {k}, which is not an earlier stage"
                            ));
                        }
                        if export as usize >= self.stages[k].program.exports.len() {
                            return fail(format!(
                                "stage {j} imports export {export} of stage {k}, which has {}",
                                self.stages[k].program.exports.len()
                            ));
                        }
                        feeds_later[k] = true;
                    }
                }
            }
        }
        for (j, feeds) in feeds_later.iter().enumerate().take(self.stages.len() - 1) {
            if !feeds {
                return fail(format!("stage {j} feeds no later stage"));
            }
        }
        Ok(())
    }
}

/// The outcome of a multi-core batch execution.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCoreBatch {
    /// One SPN root value per query, in batch order.
    pub outputs: Vec<f64>,
    /// Batch-level report: summed work counters, makespan cycles
    /// (see [`MultiCorePerf::merged`]).
    pub perf: PerfReport,
    /// Per-core cycle attribution.
    pub cores: MultiCorePerf,
}

/// The N-core SPN processor simulator.
#[derive(Debug, Clone)]
pub struct MultiCoreProcessor {
    config: MultiCoreConfig,
    core: Processor,
}

impl MultiCoreProcessor {
    /// Creates a multi-core processor for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`ProcessorError::InvalidConfig`] when the configuration is
    /// inconsistent (zero cores, zero shared-memory ports, or an invalid
    /// per-core datapath).
    pub fn new(config: MultiCoreConfig) -> Result<Self> {
        config.validate()?;
        let core = Processor::new(config.core.clone())?;
        Ok(MultiCoreProcessor { config, core })
    }

    /// The configuration this processor simulates.
    pub fn config(&self) -> &MultiCoreConfig {
        &self.config
    }

    /// The contiguous shard ranges of `queries` queries over `cores` shards
    /// of equal cost: `queries / cores` queries each, the first
    /// `queries % cores` taking one extra.  This is
    /// [`MultiCoreProcessor::shard_ranges_by_cost`] with every cost equal;
    /// host-thread parallelism and the sampler's shards in `spn-platforms`
    /// call it, so shard outputs concatenate to the exact serial batch order.
    pub fn shard_ranges(cores: usize, queries: usize) -> Vec<Range<usize>> {
        Self::shard_ranges_by_cost(&vec![1; cores.max(1)], queries)
    }

    /// The contiguous shard ranges of `queries` queries over one core per
    /// entry of `costs`, where a query costs core `c` `costs[c]` cycles:
    /// the lengths minimise the busiest core's `length × cost`, and when two
    /// cores would finish an extra query on the same cycle the
    /// lower-numbered one takes it.  Equal costs give the even split of
    /// [`MultiCoreProcessor::shard_ranges`]; a zero cost counts as one, so
    /// free passes split evenly too.  Integer arithmetic, `O(costs²)` steps
    /// whatever `queries` is.
    ///
    /// # Panics
    ///
    /// When `costs` is empty: a batch needs a core to run on.
    pub fn shard_ranges_by_cost(costs: &[u64], queries: usize) -> Vec<Range<usize>> {
        assert!(
            !costs.is_empty(),
            "a batch is sharded over at least one core"
        );
        let costs: Vec<u128> = costs.iter().map(|&c| u128::from(c.max(1))).collect();
        // Query `k` of core `c` finishes at `k × costs[c]`; the best split
        // runs the `queries` earliest of those finishes, ties going to the
        // lower core.  Every finish at or before `t ≤ queries / Σ 1/cost`
        // is among them, so each core starts with its `⌊t / cost⌋` (the
        // reciprocals are rounded up in 64-bit fixed point, which keeps `t`
        // at or below the bound), and the few queries left (under
        // `2 × cores`) go one at a time to the core that would finish one
        // first.
        let scale = 1u128 << 64;
        let rate: u128 = costs.iter().map(|&c| scale.div_ceil(c)).sum();
        let t = queries as u128 * scale / rate;
        let mut lengths: Vec<usize> = costs.iter().map(|&c| (t / c) as usize).collect();
        for _ in lengths.iter().sum::<usize>()..queries {
            let next = (0..costs.len())
                .min_by_key(|&c| (lengths[c] as u128 + 1) * costs[c])
                .expect("at least one core");
            lengths[next] += 1;
        }
        let mut start = 0;
        lengths
            .into_iter()
            .map(|len| {
                let range = start..start + len;
                start += len;
                range
            })
            .collect()
    }

    /// What one pass of `per_query` keeps each core busy: its compute cycles
    /// plus the stalls wave arbitration adds to that core's memory
    /// transactions.  Batch-sharded execution sizes shards by these
    /// ([`MultiCoreProcessor::shard_ranges_by_cost`]).
    pub fn pass_costs(&self, per_query: &PerfReport) -> Vec<u64> {
        (0..self.config.cores)
            .map(|c| per_query.cycles + self.memory_stall(c, per_query))
            .collect()
    }

    fn check_hooks(&self, hooks: usize, needed: usize) -> Result<()> {
        if hooks < needed {
            return Err(ProcessorError::InvalidConfig {
                reason: format!("{hooks} trace recorders for {needed} cores"),
            });
        }
        Ok(())
    }

    /// Executes `program` over a batch, sharding the queries across cores.
    ///
    /// `flat_inputs` holds `queries` consecutive input vectors (query-major,
    /// each one input-layout entry long) — the layout produced by
    /// `spn_core::batch::InputRecipe::fill_batch`; `states` is resized to
    /// one [`SimState`] per core when it does not fit.  Outputs are in batch
    /// order, bit-for-bit equal to a single-core run.  The program is
    /// checked, costed and lowered on every call; each core's shard is then
    /// replayed block by block, straight from its input vectors, by the
    /// same pass as [`CheckedProgram::run_block`].
    ///
    /// # Errors
    ///
    /// Returns [`ProcessorError::InputMismatch`] when `flat_inputs` is not
    /// exactly `queries` input vectors long, and any [`ProcessorError`] a
    /// single [`Processor::run_with`] can produce — for an illegal program
    /// whatever the batch, an empty one included.
    pub fn run_batch_sharded(
        &self,
        program: &Program,
        flat_inputs: &[f64],
        queries: usize,
        states: &mut Vec<SimState>,
    ) -> Result<MultiCoreBatch> {
        let mut hooks = vec![NoTrace; self.config.cores];
        self.run_batch_sharded_with_hooks(program, flat_inputs, queries, states, &mut hooks)
    }

    /// [`MultiCoreProcessor::run_batch_sharded`] with one trace recorder per
    /// core (`recorders[c]` collects core `c`'s per-cycle events, with a
    /// query marker before each query).  Queries are rebased onto the
    /// core's cumulative shard timeline — compute plus modeled
    /// shared-memory stalls of the preceding queries — so both schedule and
    /// contention changes move recorded cycles.
    ///
    /// # Errors
    ///
    /// As for [`MultiCoreProcessor::run_batch_sharded`], plus
    /// [`ProcessorError::InvalidConfig`] when fewer recorders than cores are
    /// supplied.
    pub fn run_batch_sharded_traced(
        &self,
        program: &Program,
        flat_inputs: &[f64],
        queries: usize,
        states: &mut Vec<SimState>,
        recorders: &mut [TraceRecorder],
    ) -> Result<MultiCoreBatch> {
        self.check_hooks(recorders.len(), self.config.cores)?;
        self.run_batch_sharded_with_hooks(program, flat_inputs, queries, states, recorders)
    }

    fn run_batch_sharded_with_hooks<H: TraceHook>(
        &self,
        program: &Program,
        flat_inputs: &[f64],
        queries: usize,
        states: &mut Vec<SimState>,
        hooks: &mut [H],
    ) -> Result<MultiCoreBatch> {
        let per_query = program.input_layout.len();
        if flat_inputs.len() != queries * per_query {
            return Err(ProcessorError::InputMismatch {
                expected: queries * per_query,
                got: flat_inputs.len(),
            });
        }
        if states.len() != self.config.cores {
            *states = vec![SimState::default(); self.config.cores];
        }
        // Legality, cost and dataflow are properties of the program: all
        // three are taken before query 0 (once per plan for a
        // `CheckedProgram`, once per call here); the queries are replayed
        // for values alone.
        let flow = Dataflow::checked(&self.core, program, H::ENABLED)?;
        let pass = program.perf();
        let costs = self.pass_costs(&pass);
        let ranges = Self::shard_ranges_by_cost(&costs, queries);
        let mut outputs = vec![0.0; queries];
        let exported = program.exports.len();
        let mut exports = vec![0.0; queries * exported];
        for (c, (range, &busy)) in ranges.iter().zip(&costs).enumerate() {
            // Traced queries sit on the core's cumulative timeline: compute
            // plus the modeled wave-arbitration stalls of the earlier ones.
            flow.run(
                &flat_inputs[range.start * per_query..range.end * per_query],
                &mut outputs[range.clone()],
                &mut exports[range.start * exported..range.end * exported],
                &mut states[c],
                &mut hooks[c],
                |hook, q| {
                    hook.on_query((range.start + q) as u64);
                    hook.rebase(q as u64 * busy);
                },
            );
        }
        let cores = self.shard_attribution(&pass, queries);
        let perf = cores.merged(&self.config.name(), queries as u64);
        Ok(MultiCoreBatch {
            outputs,
            perf,
            cores,
        })
    }

    /// Executes a partitioned program over a batch, pipelining the stages
    /// across cores.
    ///
    /// `flat_inputs` holds `queries` consecutive *global* input vectors
    /// ([`PartitionedProgram::num_inputs`] values each); stage-to-stage
    /// operands are forwarded in-process and their interconnect latency is
    /// folded into the timing model.  Outputs are the final stage's root
    /// values, bit-for-bit equal to running the unpartitioned program.
    ///
    /// # Errors
    ///
    /// Any `PartitionedProgram::validate` error, plus the single-core
    /// errors of each stage's program.
    pub fn run_partitioned(
        &self,
        parts: &PartitionedProgram,
        flat_inputs: &[f64],
        queries: usize,
        states: &mut Vec<SimState>,
    ) -> Result<MultiCoreBatch> {
        let mut hooks = vec![NoTrace; self.config.cores];
        self.run_partitioned_with_hooks(parts, flat_inputs, queries, states, &mut hooks)
    }

    /// [`MultiCoreProcessor::run_partitioned`] with one trace recorder per
    /// core.  Each stage's events are rebased onto the global pipeline
    /// timeline (`start_j + q × II`), so any change to stage cycles or
    /// interconnect latency shifts the recorded cycles and is caught by the
    /// trace differ.
    ///
    /// # Errors
    ///
    /// As for [`MultiCoreProcessor::run_partitioned`], plus
    /// [`ProcessorError::InvalidConfig`] when fewer recorders than stages
    /// are supplied.
    pub fn run_partitioned_traced(
        &self,
        parts: &PartitionedProgram,
        flat_inputs: &[f64],
        queries: usize,
        states: &mut Vec<SimState>,
        recorders: &mut [TraceRecorder],
    ) -> Result<MultiCoreBatch> {
        self.check_hooks(recorders.len(), parts.stages.len())?;
        self.run_partitioned_with_hooks(parts, flat_inputs, queries, states, recorders)
    }

    fn run_partitioned_with_hooks<H: TraceHook>(
        &self,
        parts: &PartitionedProgram,
        flat_inputs: &[f64],
        queries: usize,
        states: &mut Vec<SimState>,
        hooks: &mut [H],
    ) -> Result<MultiCoreBatch> {
        parts.validate(self.config.cores)?;
        let stages = &parts.stages;
        let num_stages = stages.len();
        if flat_inputs.len() != queries * parts.num_inputs {
            return Err(ProcessorError::InputMismatch {
                expected: queries * parts.num_inputs,
                got: flat_inputs.len(),
            });
        }
        if states.len() < num_stages {
            *states = vec![SimState::default(); self.config.cores];
        }

        let flows = stages
            .iter()
            .map(|stage| Dataflow::checked(&self.core, &stage.program, H::ENABLED))
            .collect::<Result<Vec<_>>>()?;
        let (cores, starts, ii) = self.pipelined_perf(parts, queries);

        // Queries are independent, so the stages run one after the other
        // over the whole batch; each leaves its exports (query-major) for
        // the later stages, and the last one's outputs are the batch's.
        let mut outputs = vec![0.0; queries];
        let mut exports: Vec<Vec<f64>> = Vec::with_capacity(num_stages);
        let mut local_inputs: Vec<f64> = Vec::new();
        for (j, (stage, flow)) in stages.iter().zip(&flows).enumerate() {
            local_inputs.clear();
            for q in 0..queries {
                let global = &flat_inputs[q * parts.num_inputs..(q + 1) * parts.num_inputs];
                for src in &stage.inputs {
                    local_inputs.push(match *src {
                        TransferSource::Input(i) => global[i as usize],
                        TransferSource::Core { core, export } => {
                            let k = core as usize;
                            exports[k][q * stages[k].program.exports.len() + export as usize]
                        }
                    });
                }
            }
            let mut stage_exports = vec![0.0; queries * stage.program.exports.len()];
            flow.run(
                &local_inputs,
                &mut outputs,
                &mut stage_exports,
                &mut states[j],
                &mut hooks[j],
                |hook, q| {
                    hook.on_query(q as u64);
                    hook.rebase(starts[j] + q as u64 * ii);
                },
            );
            exports.push(stage_exports);
        }
        let perf = cores.merged(&self.config.name(), queries as u64);
        Ok(MultiCoreBatch {
            outputs,
            perf,
            cores,
        })
    }

    /// Cycles core `core` loses to wave arbitration over `work`'s transactions.
    fn memory_stall(&self, core: usize, work: &PerfReport) -> u64 {
        self.config.shared_memory.wave_penalty(core) * (work.memory_loads + work.memory_stores)
    }

    /// Closes an attribution: core `c` did `work[c].0` and waited `work[c].1`
    /// cycles on the interconnect, the other cores ran nothing, and each idles
    /// for the rest of `makespan` (the busiest core when `None`).
    fn attribute(
        &self,
        work: impl IntoIterator<Item = (PerfReport, u64)>,
        makespan: Option<u64>,
    ) -> MultiCorePerf {
        let mut per_core: Vec<CorePerf> = (0..self.config.cores)
            .map(|core| CorePerf {
                core,
                ..CorePerf::default()
            })
            .collect();
        for (core, (work, interconnect_stall)) in per_core.iter_mut().zip(work) {
            core.compute_cycles = work.cycles;
            core.memory_stall_cycles = self.memory_stall(core.core, &work);
            core.interconnect_stall_cycles = interconnect_stall;
            core.work = work;
        }
        let busiest = per_core.iter().map(CorePerf::busy_cycles).max();
        let makespan_cycles = makespan.or(busiest).unwrap_or(0);
        for core in &mut per_core {
            core.idle_cycles = makespan_cycles - core.busy_cycles();
        }
        MultiCorePerf {
            makespan_cycles,
            per_core,
        }
    }

    /// What [`MultiCoreProcessor::run_batch_sharded`] of `queries` queries
    /// of `checked` attributes to the cores, computed without a query: the
    /// shard split alone decides it, and the values of a batch do not depend
    /// on it, so a caller can replay the batch in lane blocks
    /// ([`CheckedProgram::run_block`]) and take its cost from here.
    ///
    /// # Errors
    ///
    /// Returns [`ProcessorError::InvalidConfig`] when `checked` was checked
    /// for another core configuration than this machine's.
    pub fn sharded_perf(&self, checked: &CheckedProgram, queries: usize) -> Result<MultiCorePerf> {
        if checked.config != self.config.core {
            return Err(ProcessorError::InvalidConfig {
                reason: format!(
                    "program checked for `{}` run on `{}`",
                    checked.config.name, self.config.core.name
                ),
            });
        }
        Ok(self.shard_attribution(&checked.perf, queries))
    }

    /// The attribution of `queries` passes costing `per_query` each, sharded
    /// over the cores by their pass costs: core `c` is charged its shard
    /// length × the per-query counters, and the busiest core sets the
    /// makespan.
    fn shard_attribution(&self, per_query: &PerfReport, queries: usize) -> MultiCorePerf {
        let shards = Self::shard_ranges_by_cost(&self.pass_costs(per_query), queries);
        let work = shards.iter().map(|s| (per_query.times(s.len() as u64), 0));
        self.attribute(work, None)
    }

    /// The attribution of `queries` passes through the pipeline `parts`, the
    /// start cycle of every stage and the initiation interval (stage `j`
    /// begins query `q` at `starts[j] + q × II` on the global timeline).
    fn pipelined_perf(
        &self,
        parts: &PartitionedProgram,
        queries: usize,
    ) -> (MultiCorePerf, Vec<u64>, u64) {
        let stages = &parts.stages;
        let per_query: Vec<PerfReport> = stages.iter().map(|s| s.program.perf()).collect();
        let mut stage_cycles = vec![0u64; stages.len()];
        let mut starts = vec![0u64; stages.len()];
        let mut exposed_transfer = vec![0u64; stages.len()];
        for j in 0..stages.len() {
            stage_cycles[j] = per_query[j].cycles + self.memory_stall(j, &per_query[j]);
            let mut start = 0u64;
            let mut producers_done = 0u64;
            for src in &stages[j].inputs {
                if let TransferSource::Core { core, .. } = *src {
                    let k = core as usize;
                    let finish = starts[k] + stage_cycles[k];
                    start = start.max(finish + self.config.interconnect.latency(k, j));
                    producers_done = producers_done.max(finish);
                }
            }
            starts[j] = start;
            // The wait beyond "all producers finished" is transfer latency
            // exposed once at pipeline fill; steady-state transfers overlap
            // with the previous query's compute.
            exposed_transfer[j] = start - producers_done;
        }
        let ii = stage_cycles.iter().copied().max().unwrap_or(0);
        let last = stages.len() - 1;
        let makespan = if queries == 0 {
            // An empty batch never fills the pipeline.
            exposed_transfer.fill(0);
            0
        } else {
            starts[last] + stage_cycles[last] + (queries as u64 - 1) * ii
        };
        let work = per_query.iter().map(|perf| perf.times(queries as u64));
        let cores = self.attribute(work.zip(exposed_transfer), Some(makespan));
        (cores, starts, ii)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProcessorConfig;
    use crate::isa::{
        InputSlot, Instruction, MemOp, PeOp, ReadSel, TreeInstr, ValueLocation, WriteCmd,
    };
    use crate::precision::Precision;

    fn cfg() -> ProcessorConfig {
        ProcessorConfig::ptree()
    }

    /// Loads (a, b, c, d) from row 0 and computes (a + b) × (c + d).
    fn sum_of_products_program() -> Program {
        let config = cfg();
        let mut load = Instruction::nop(&config);
        load.mem = MemOp::Load { row: 0, reg: 0 };
        let mut compute = Instruction::nop(&config);
        {
            let tree = &mut compute.trees[0];
            for (i, sel) in tree.reads.iter_mut().enumerate().take(4) {
                *sel = ReadSel::Reg {
                    bank: i as u16,
                    reg: 0,
                };
            }
            tree.pe_ops[TreeInstr::pe_flat_index(&config, 0, 0)] = PeOp::Add;
            tree.pe_ops[TreeInstr::pe_flat_index(&config, 0, 1)] = PeOp::Add;
            tree.pe_ops[TreeInstr::pe_flat_index(&config, 1, 0)] = PeOp::Mul;
            tree.writes.push(WriteCmd {
                level: 1,
                pe: 0,
                bank: 0,
                reg: 1,
            });
        }
        Program {
            config,
            instructions: vec![load, compute],
            input_layout: (0..4).map(|lane| InputSlot { row: 0, lane }).collect(),
            memory_rows_used: 1,
            output: ValueLocation::Register { bank: 0, reg: 1 },
            exports: Vec::new(),
            num_source_ops: 3,
            pe_precision: Precision::F64,
        }
    }

    /// Two-stage pipeline computing (a + b) × c: stage 0 exports a + b,
    /// stage 1 multiplies the import by global input c.
    fn two_stage_pipeline() -> PartitionedProgram {
        let config = cfg();
        // Stage 0: load (a, b), add, export the sum.
        let mut load = Instruction::nop(&config);
        load.mem = MemOp::Load { row: 0, reg: 0 };
        let mut compute = Instruction::nop(&config);
        compute.trees[0].reads[0] = ReadSel::Reg { bank: 0, reg: 0 };
        compute.trees[0].reads[1] = ReadSel::Reg { bank: 1, reg: 0 };
        compute.trees[0].pe_ops[TreeInstr::pe_flat_index(&config, 0, 0)] = PeOp::Add;
        compute.trees[0].writes.push(WriteCmd {
            level: 0,
            pe: 0,
            bank: 0,
            reg: 1,
        });
        let stage0 = CoreProgram {
            program: Program {
                config: config.clone(),
                instructions: vec![load.clone(), compute],
                input_layout: vec![InputSlot { row: 0, lane: 0 }, InputSlot { row: 0, lane: 1 }],
                memory_rows_used: 1,
                output: ValueLocation::Register { bank: 0, reg: 1 },
                exports: vec![ValueLocation::Register { bank: 0, reg: 1 }],
                num_source_ops: 1,
                pe_precision: Precision::F64,
            },
            inputs: vec![TransferSource::Input(0), TransferSource::Input(1)],
        };
        // Stage 1: load (sum, c), multiply.
        let mut compute = Instruction::nop(&config);
        compute.trees[0].reads[0] = ReadSel::Reg { bank: 0, reg: 0 };
        compute.trees[0].reads[1] = ReadSel::Reg { bank: 1, reg: 0 };
        compute.trees[0].pe_ops[TreeInstr::pe_flat_index(&config, 0, 0)] = PeOp::Mul;
        compute.trees[0].writes.push(WriteCmd {
            level: 0,
            pe: 0,
            bank: 1,
            reg: 1,
        });
        let stage1 = CoreProgram {
            program: Program {
                config: config.clone(),
                instructions: vec![load, compute],
                input_layout: vec![InputSlot { row: 0, lane: 0 }, InputSlot { row: 0, lane: 1 }],
                memory_rows_used: 1,
                output: ValueLocation::Register { bank: 1, reg: 1 },
                exports: Vec::new(),
                num_source_ops: 1,
                pe_precision: Precision::F64,
            },
            inputs: vec![
                TransferSource::Core { core: 0, export: 0 },
                TransferSource::Input(2),
            ],
        };
        PartitionedProgram {
            stages: vec![stage0, stage1],
            num_inputs: 3,
        }
    }

    #[test]
    fn sharded_outputs_match_single_core_batch() {
        let program = sum_of_products_program();
        let flat: Vec<f64> = (0..20).map(|i| i as f64 + 0.5).collect(); // 5 queries
        let single = Processor::new(cfg()).unwrap();
        let mut state = SimState::default();
        let mut serial_outputs = Vec::new();
        let mut serial_perf = PerfReport::default();
        for inputs in flat.chunks(4) {
            let run = single.run_with(&program, inputs, &mut state).unwrap();
            serial_outputs.push(run.output);
            serial_perf.merge(&run.perf);
        }
        for cores in [1usize, 2, 3, 4] {
            let mc = MultiCoreProcessor::new(MultiCoreConfig::new(cores, cfg())).unwrap();
            let mut states = Vec::new();
            let batch = mc
                .run_batch_sharded(&program, &flat, 5, &mut states)
                .unwrap();
            assert_eq!(batch.outputs, serial_outputs, "{cores} cores");
            assert_eq!(batch.perf.source_ops, serial_perf.source_ops);
            assert_eq!(batch.perf.memory_loads, serial_perf.memory_loads);
            assert_eq!(batch.perf.queries, 5);
            batch.cores.check_accounting().unwrap();
            assert!(batch.perf.cycles <= serial_perf.cycles);
            if cores == 1 {
                assert_eq!(batch.perf, serial_perf);
            }
            // Mis-sized flat input is rejected.
            assert!(matches!(
                mc.run_batch_sharded(&program, &flat[..10], 5, &mut states),
                Err(ProcessorError::InputMismatch { .. })
            ));
        }
    }

    /// Loads row 0, computes `(a + b) × (c + d)` on tree 0 while tree 1
    /// forwards lane 16 up four levels, stores and reloads the product row,
    /// then multiplies the reloaded product by the forwarded lane.
    fn load_store_program() -> Program {
        let config = cfg();
        let mut program = sum_of_products_program();
        let forward = &mut program.instructions[1].trees[1];
        forward.reads[0] = ReadSel::Reg { bank: 16, reg: 0 };
        for level in 0..config.tree_levels {
            forward.pe_ops[TreeInstr::pe_flat_index(&config, level, 0)] = PeOp::PassA;
        }
        forward.writes.push(WriteCmd {
            level: 3,
            pe: 0,
            bank: 16,
            reg: 2,
        });
        let nop = Instruction::nop(&config);
        let mut store = nop.clone();
        store.mem = MemOp::Store { row: 1, reg: 1 };
        let mut reload = nop.clone();
        reload.mem = MemOp::Load { row: 1, reg: 3 };
        let mut product = nop.clone();
        product.trees[0].reads[0] = ReadSel::Reg { bank: 0, reg: 3 };
        product.trees[0].reads[1] = ReadSel::Reg { bank: 16, reg: 2 };
        product.trees[0].pe_ops[0] = PeOp::Mul;
        product.trees[0].writes.push(WriteCmd {
            level: 0,
            pe: 0,
            bank: 0,
            reg: 4,
        });
        program
            .instructions
            .extend([nop.clone(), nop, store, reload, product]);
        program.input_layout = (0..32).map(|lane| InputSlot { row: 0, lane }).collect();
        program.memory_rows_used = 2;
        program.output = ValueLocation::Register { bank: 0, reg: 4 };
        program
    }

    /// Counts the hook calls of each query.
    #[derive(Clone, Default)]
    struct Counter {
        pe: Vec<usize>,
        mem: Vec<usize>,
    }

    impl TraceHook for Counter {
        const ENABLED: bool = true;

        fn on_pe(
            &mut self,
            _cycle: u64,
            _tree: usize,
            _level: usize,
            _index: usize,
            _op: PeOp,
            _a: f64,
            _b: f64,
            _result: f64,
            _occupancy: u32,
        ) {
            *self.pe.last_mut().expect("a query started") += 1;
        }

        fn on_mem(&mut self, _cycle: u64, _store: bool, _row: u32, _reg: u16) {
            *self.mem.last_mut().expect("a query started") += 1;
        }

        fn on_query(&mut self, _index: u64) {
            self.pe.push(0);
            self.mem.push(0);
        }
    }

    #[test]
    fn traces_come_from_the_replay() {
        let program = load_store_program();
        let active: usize = program
            .instructions
            .iter()
            .flat_map(|i| &i.trees)
            .map(|t| t.pe_ops.iter().filter(|&&op| op != PeOp::Nop).count())
            .sum();
        let perf = program.perf();
        let traffic = (perf.memory_loads + perf.memory_stores) as usize;
        assert_eq!((active, traffic), (3 + 4 + 1, 3));
        // Eleven queries: blocks of eight, two and one untraced, one by one
        // traced.
        let flat: Vec<f64> = (0..11 * 32).map(|i| f64::from(i % 97) * 0.25).collect();
        for cores in [1usize, 3] {
            let mc = MultiCoreProcessor::new(MultiCoreConfig::new(cores, cfg())).unwrap();
            let plain = mc
                .run_batch_sharded(&program, &flat, 11, &mut Vec::new())
                .unwrap();
            let mut counters = vec![Counter::default(); cores];
            let traced = mc
                .run_batch_sharded_with_hooks(&program, &flat, 11, &mut Vec::new(), &mut counters)
                .unwrap();
            assert_eq!(traced, plain, "{cores} cores");
            for (q, inputs) in flat.chunks(32).enumerate() {
                let (a, b, c, d) = (inputs[0], inputs[1], inputs[2], inputs[3]);
                let want = (a + b) * (c + d) * inputs[16];
                assert_eq!(plain.outputs[q].to_bits(), want.to_bits(), "query {q}");
            }
            let queries: usize = counters.iter().map(|c| c.pe.len()).sum();
            assert_eq!(queries, 11);
            for counter in &counters {
                assert!(counter.pe.iter().all(|&n| n == active));
                assert!(counter.mem.iter().all(|&n| n == traffic));
            }
        }
    }

    #[test]
    fn lane_blocks_of_every_width_replay_the_query_major_run() {
        let mut program = load_store_program();
        let n = program.input_layout.len();
        let flat: Vec<f64> = (0..8 * n)
            .map(|i| f64::from(i as u32 % 89) * 0.37 - 3.0)
            .collect();
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mc = MultiCoreProcessor::new(MultiCoreConfig::new(1, cfg())).unwrap();
        let custom = Precision::Custom {
            exp_bits: 8,
            mant_bits: 10,
        };
        // One state across precisions and widths: nothing leaks between them.
        let mut state = SimState::default();
        for precision in [Precision::F64, custom] {
            program.pe_precision = precision;
            let want = mc
                .run_batch_sharded(&program, &flat, 8, &mut Vec::new())
                .unwrap()
                .outputs;
            for (q, inputs) in flat.chunks(n).enumerate() {
                let single = mc.core.run(&program, inputs).unwrap().output;
                assert_eq!(
                    single.to_bits(),
                    want[q].to_bits(),
                    "{precision:?} query {q}"
                );
            }
            let checked = CheckedProgram::new(&mc.core, program.clone()).unwrap();
            for lanes in [1, 2, 4, 8] {
                let mut got = vec![0.0; 8];
                for (block, out) in flat.chunks(lanes * n).zip(got.chunks_mut(lanes)) {
                    // tile[input * lanes + lane] = block[lane * n + input]
                    let tile: Vec<f64> = (0..n * lanes)
                        .map(|k| block[k % lanes * n + k / lanes])
                        .collect();
                    checked.run_block(lanes, &tile, out, &mut state);
                }
                assert_eq!(bits(&got), bits(&want), "{precision:?} at {lanes} lanes");
            }
        }
    }

    #[test]
    fn a_checked_program_is_costed_only_on_its_own_machine() {
        // Loads (a, b) and multiplies them on a Pvect leaf.
        let pvect = ProcessorConfig::pvect();
        let mut load = Instruction::nop(&pvect);
        load.mem = MemOp::Load { row: 0, reg: 0 };
        let mut compute = Instruction::nop(&pvect);
        compute.trees[0].reads[0] = ReadSel::Reg { bank: 0, reg: 0 };
        compute.trees[0].reads[1] = ReadSel::Reg { bank: 1, reg: 0 };
        compute.trees[0].pe_ops[0] = PeOp::Mul;
        compute.trees[0].writes.push(WriteCmd {
            level: 0,
            pe: 0,
            bank: 1,
            reg: 3,
        });
        let program = Program {
            config: pvect.clone(),
            instructions: vec![load, compute],
            input_layout: vec![InputSlot { row: 0, lane: 0 }, InputSlot { row: 0, lane: 1 }],
            memory_rows_used: 1,
            output: ValueLocation::Register { bank: 1, reg: 3 },
            exports: Vec::new(),
            num_source_ops: 1,
            pe_precision: Precision::F64,
        };
        let checked =
            CheckedProgram::new(&Processor::new(pvect.clone()).unwrap(), program).unwrap();
        let ptree = MultiCoreProcessor::new(MultiCoreConfig::new(2, cfg())).unwrap();
        assert!(matches!(
            ptree.sharded_perf(&checked, 3),
            Err(ProcessorError::InvalidConfig { .. })
        ));
        // On its own machine the cost is what a run of the batch reports.
        let own = MultiCoreProcessor::new(MultiCoreConfig::new(2, pvect)).unwrap();
        let flat = [6.0, 7.0, 0.5, 4.0, -1.0, 3.0];
        let run = own
            .run_batch_sharded(&checked, &flat, 3, &mut Vec::new())
            .unwrap();
        assert_eq!(run.outputs, [42.0, 2.0, -3.0]);
        assert_eq!(own.sharded_perf(&checked, 3).unwrap(), run.cores);
    }

    #[test]
    fn sharded_memory_contention_scales_with_wave() {
        let program = sum_of_products_program();
        let flat: Vec<f64> = vec![1.0; 32]; // 8 queries
        let mut config = MultiCoreConfig::new(4, cfg());
        config.shared_memory.ports = 1;
        let mc = MultiCoreProcessor::new(config).unwrap();
        let mut states = Vec::new();
        let batch = mc
            .run_batch_sharded(&program, &flat, 8, &mut states)
            .unwrap();
        // Three cycles and one load per query: core c stalls c cycles a query.
        let costs = mc.pass_costs(&program.perf());
        assert_eq!(costs, [3, 4, 5, 6]);
        // Two queries per core would end at cycle 12 on core 3; core 0 takes
        // a third and core 3 one, and core 2 ends last, at cycle 10.
        let per_core = &batch.cores.per_core;
        let lengths: Vec<u64> = per_core.iter().map(|c| c.work.queries).collect();
        assert_eq!(lengths, [3, 2, 2, 1]);
        let stalls: Vec<u64> = per_core.iter().map(|c| c.memory_stall_cycles).collect();
        assert_eq!(stalls, [0, 2, 4, 3]);
        batch.cores.check_accounting().unwrap();
        assert_eq!(batch.cores.makespan_cycles, 10);
        assert_eq!(makespan(&even_split(4, 8), &costs), 12);
    }

    /// The even split as it was written before shards were sized by cost:
    /// the oracle for every equal-cost split.
    fn even_split(cores: usize, queries: usize) -> Vec<Range<usize>> {
        let (base, remainder) = (queries / cores, queries % cores);
        let mut start = 0;
        (0..cores)
            .map(|i| {
                let len = base + usize::from(i < remainder);
                start += len;
                start - len..start
            })
            .collect()
    }

    fn makespan(ranges: &[Range<usize>], costs: &[u64]) -> u64 {
        let busy = ranges.iter().zip(costs).map(|(r, &c)| r.len() as u64 * c);
        busy.max().unwrap_or(0)
    }

    #[test]
    fn equal_costs_split_evenly() {
        for cores in 1..=8 {
            for queries in 0..=100 {
                let want = even_split(cores, queries);
                assert_eq!(MultiCoreProcessor::shard_ranges(cores, queries), want);
                for cost in [0, 1, 7, 1178, 2603, u64::from(u32::MAX)] {
                    let got = MultiCoreProcessor::shard_ranges_by_cost(&vec![cost; cores], queries);
                    assert_eq!(got, want, "{cores} cores of cost {cost}, {queries} queries");
                }
            }
        }
    }

    /// Every way to cut `queries` into `cores` contiguous shards, by length.
    fn all_splits(
        cores: usize,
        queries: usize,
        prefix: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if prefix.len() + 1 == cores {
            out.push([prefix.as_slice(), &[queries]].concat());
            return;
        }
        for len in 0..=queries {
            prefix.push(len);
            all_splits(cores, queries - len, prefix, out);
            prefix.pop();
        }
    }

    #[test]
    fn cost_sized_shards_reach_the_brute_force_optimum() {
        // A fixed linear congruential stream: the costs are the same every run.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next_cost = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            1 + (state >> 33) % 50
        };
        for cores in 1..=5 {
            for _ in 0..12 {
                let costs: Vec<u64> = (0..cores).map(|_| next_cost()).collect();
                for queries in 0..=20 {
                    let context = format!("costs {costs:?}, {queries} queries");
                    let got = MultiCoreProcessor::shard_ranges_by_cost(&costs, queries);
                    assert_eq!(got.len(), cores, "{context}");
                    assert_eq!(got.first().map(|r| r.start), Some(0), "{context}");
                    assert_eq!(got.last().map(|r| r.end), Some(queries), "{context}");
                    assert!(got.windows(2).all(|w| w[0].end == w[1].start), "{context}");
                    let mut splits = Vec::new();
                    all_splits(cores, queries, &mut Vec::new(), &mut splits);
                    let best = splits
                        .iter()
                        .map(|lengths| {
                            let busy = lengths.iter().zip(&costs).map(|(&n, &c)| n as u64 * c);
                            busy.max().unwrap_or(0)
                        })
                        .min();
                    assert_eq!(Some(makespan(&got, &costs)), best, "{context}");
                    let even = makespan(&even_split(cores, queries), &costs);
                    assert!(makespan(&got, &costs) <= even, "{context}");
                }
            }
        }
    }

    #[test]
    fn partitioned_pipeline_computes_and_accounts() {
        let parts = two_stage_pipeline();
        let mc = MultiCoreProcessor::new(MultiCoreConfig::new(2, cfg())).unwrap();
        let mut states = Vec::new();
        let flat: Vec<f64> = [[1.0, 2.0, 3.0], [0.5, 0.25, 4.0], [10.0, -1.0, 2.0]].concat();
        let batch = mc.run_partitioned(&parts, &flat, 3, &mut states).unwrap();
        assert_eq!(batch.outputs, vec![9.0, 3.0, 18.0]);
        batch.cores.check_accounting().unwrap();
        // Stage 0 takes 2 cycles (load, compute; leaf commits same cycle);
        // stage 1 takes 3 (plus one shared-memory wave cycle on its load)
        // and starts after stage 0 finishes plus the 0→1 transfer
        // (2 setup + 1 hop).  The slowest stage sets the initiation
        // interval.
        let ii = 3;
        let start1 = 2 + 3;
        assert_eq!(batch.cores.makespan_cycles, start1 + 3 + (3 - 1) * ii);
        assert_eq!(batch.cores.per_core[0].interconnect_stall_cycles, 0);
        assert_eq!(batch.cores.per_core[1].interconnect_stall_cycles, 3);
        assert_eq!(batch.perf.queries, 3);
        assert_eq!(batch.perf.source_ops, 2 * 3);
    }

    #[test]
    fn partitioned_traces_sit_on_the_global_timeline() {
        let parts = two_stage_pipeline();
        let mc = MultiCoreProcessor::new(MultiCoreConfig::new(2, cfg())).unwrap();
        let mut states = Vec::new();
        let mut recorders = vec![TraceRecorder::new(0), TraceRecorder::new(1)];
        let flat = vec![1.0, 2.0, 3.0];
        mc.run_partitioned_traced(&parts, &flat, 1, &mut states, &mut recorders)
            .unwrap();
        let stage1 = recorders[1].render();
        // Stage 1 starts at global cycle 5 (stage 0 cycles + transfer).
        assert!(stage1.contains("C00005 core=1 mem load"), "{stage1}");
        // A slower interconnect shifts stage 1's rows — the divergence the
        // golden-trace suite pins.
        let mut config = MultiCoreConfig::new(2, cfg());
        config.interconnect.hop_latency += 2;
        let slow = MultiCoreProcessor::new(config).unwrap();
        let mut slow_recorders = vec![TraceRecorder::new(0), TraceRecorder::new(1)];
        slow.run_partitioned_traced(&parts, &flat, 1, &mut Vec::new(), &mut slow_recorders)
            .unwrap();
        let divergence = crate::trace::diff_traces(&stage1, &slow_recorders[1].render()).unwrap();
        assert_eq!(divergence.line, 2); // query marker matches, first row moves
        assert_eq!(divergence.cycle, Some(5));
    }

    #[test]
    fn malformed_partitions_are_rejected() {
        let mc = MultiCoreProcessor::new(MultiCoreConfig::new(2, cfg())).unwrap();
        let parts = two_stage_pipeline();
        // More stages than cores.
        let single = MultiCoreProcessor::new(MultiCoreConfig::new(1, cfg())).unwrap();
        assert!(matches!(
            single.run_partitioned(&parts, &[0.0; 3], 1, &mut Vec::new()),
            Err(ProcessorError::InvalidConfig { .. })
        ));
        // Import from a non-earlier core.
        let mut bad = two_stage_pipeline();
        bad.stages[1].inputs[0] = TransferSource::Core { core: 1, export: 0 };
        assert!(bad.validate(2).is_err());
        // Export index out of range.
        let mut bad = two_stage_pipeline();
        bad.stages[1].inputs[0] = TransferSource::Core { core: 0, export: 9 };
        assert!(bad.validate(2).is_err());
        // Global input out of range.
        let mut bad = two_stage_pipeline();
        bad.stages[0].inputs[0] = TransferSource::Input(7);
        assert!(bad.validate(2).is_err());
        // A dangling non-final stage breaks pipeline accounting.
        let mut bad = two_stage_pipeline();
        bad.stages[1].inputs[0] = TransferSource::Input(0);
        assert!(bad.validate(2).is_err());
        // The good pipeline passes on the 2-core machine.
        let flat = vec![1.0, 2.0, 3.0];
        assert!(mc
            .run_partitioned(&parts, &flat, 1, &mut Vec::new())
            .is_ok());
    }

    #[test]
    fn attribution_accounts_for_every_shape_without_simulating() {
        let program = sum_of_products_program();
        let one_stage = PartitionedProgram {
            stages: vec![CoreProgram {
                inputs: (0..4).map(TransferSource::Input).collect(),
                program: program.clone(),
            }],
            num_inputs: 4,
        };
        let two_stages = two_stage_pipeline();
        for cores in 1..=4usize {
            let mc = MultiCoreProcessor::new(MultiCoreConfig::new(cores, cfg())).unwrap();
            let parts = if cores == 1 { &one_stage } else { &two_stages };
            for queries in 0..=9usize {
                let sharded = mc.shard_attribution(&program.perf(), queries);
                let (pipelined, starts, _) = mc.pipelined_perf(parts, queries);
                assert_eq!(starts[0], 0);
                // Sharded runs charge each query once, pipelined runs once
                // per stage.
                let passes = [queries, queries * parts.stages.len()];
                for (perf, passes) in [sharded, pipelined].iter().zip(passes) {
                    let context = format!("{cores} cores, {queries} queries: {perf}");
                    perf.check_accounting().expect(&context);
                    assert_eq!(perf.per_core.len(), cores, "{context}");
                    let mut work = PerfReport::default();
                    let mut modeled_stalls = 0;
                    for core in &perf.per_core {
                        assert_eq!(core.work.cycles, core.compute_cycles, "{context}");
                        work.merge(&core.work);
                        modeled_stalls += core.memory_stall_cycles + core.interconnect_stall_cycles;
                    }
                    assert_eq!(work.queries as usize, passes, "{context}");
                    if queries == 0 {
                        assert_eq!(perf.makespan_cycles, 0, "{context}");
                        assert_eq!(modeled_stalls, 0, "{context}");
                    }
                    let merged = perf.merged("mc", queries as u64);
                    work.platform = "mc".to_string();
                    work.queries = queries as u64;
                    work.cycles = perf.makespan_cycles;
                    work.stall_cycles += modeled_stalls;
                    assert_eq!(merged, work, "{context}");
                }
            }
        }
    }

    #[test]
    fn shard_ranges_are_contiguous_and_balanced() {
        let ranges = MultiCoreProcessor::shard_ranges(3, 8);
        assert_eq!(ranges, vec![0..3, 3..6, 6..8]);
        assert_eq!(
            MultiCoreProcessor::shard_ranges(4, 2),
            vec![0..1, 1..2, 2..2, 2..2]
        );
    }
}
