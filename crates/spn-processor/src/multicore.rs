//! The N-core processor simulator.
//!
//! [`MultiCoreProcessor`] executes a compiled program on
//! [`MultiCoreConfig::cores`] identical single-core datapaths behind a
//! shared parameter memory ([`crate::SharedMemoryConfig`]), sharding the
//! batch ([`MultiCoreProcessor::run_batch_sharded`]): every core runs the
//! *full* program on a contiguous shard of the evidence batch, so outputs
//! are bit-for-bit equal to the single-core batch order.  Cores contend for
//! the shared parameter memory: under lockstep wave arbitration core `c`
//! pays `c / ports` extra cycles per memory transaction, so a later core's
//! pass can cost more ([`MultiCoreProcessor::pass_costs`]).  Each shard is
//! sized by its core's pass cost
//! ([`MultiCoreProcessor::shard_ranges_by_cost`]) so that the busiest core,
//! whose cycle count is the makespan, finishes as early as any contiguous
//! split allows; where every core costs the same this is the even split
//! `spn-platforms`' host-thread parallelism uses.
//!
//! A run returns a [`MultiCoreBatch`] whose [`MultiCorePerf`] attributes
//! every makespan cycle of every core to compute, memory stalls or idle
//! time — an exact partition that [`MultiCorePerf::check_accounting`]
//! verifies.  It is a pure function of the program ([`Program::perf`]), the
//! machine and the query count.  A [`CheckedProgram`] is checked
//! ([`Processor::check`]), costed and lowered to a dataflow list once per
//! plan, and [`MultiCoreProcessor::sharded_perf`] costs its batches without
//! running one; the runners below take a bare program and do all three once
//! per call, before query 0.  Queries replay the list for values only, up
//! to eight side by side.  [`MultiCoreProcessor::run_batch_sharded_traced`]
//! records per-cycle golden traces on each core's shard timeline, so a
//! change to any latency model moves trace rows and is caught at the first
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
        let cost = |c: usize| u128::from(costs[c].max(1));
        // Query `k` of core `c` finishes at `k × cost(c)`; the best split
        // runs the `queries` earliest of those finishes, ties going to the
        // lower core.  Every finish at or before `t ≤ queries / Σ 1/cost`
        // is among them, so each core starts with its `⌊t / cost⌋` (the
        // reciprocals are rounded up in 64-bit fixed point, which keeps `t`
        // at or below the bound), and the few queries left (under
        // `2 × cores`) go one at a time to the core that would finish one
        // first.  Each range holds its shard's length in `end` until the
        // starts are laid out, so the split allocates its answer alone.
        let scale = 1u128 << 64;
        let rate: u128 = (0..costs.len()).map(|c| scale.div_ceil(cost(c))).sum();
        let t = queries as u128 * scale / rate;
        let mut ranges: Vec<Range<usize>> = (0..costs.len())
            .map(|c| 0..(t / cost(c)) as usize)
            .collect();
        for _ in ranges.iter().map(|range| range.end).sum::<usize>()..queries {
            let next = (0..costs.len())
                .min_by_key(|&c| (ranges[c].end as u128 + 1) * cost(c))
                .expect("at least one core");
            ranges[next].end += 1;
        }
        let mut start = 0;
        for range in &mut ranges {
            let len = range.end;
            *range = start..start + len;
            start += len;
        }
        ranges
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
        let (hooks, cores) = (recorders.len(), self.config.cores);
        if hooks < cores {
            return Err(ProcessorError::InvalidConfig {
                reason: format!("{hooks} trace recorders for {cores} cores"),
            });
        }
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
        for (c, (range, &busy)) in ranges.iter().zip(&costs).enumerate() {
            // Traced queries sit on the core's cumulative timeline: compute
            // plus the modeled wave-arbitration stalls of the earlier ones.
            flow.run(
                &flat_inputs[range.start * per_query..range.end * per_query],
                &mut outputs[range.clone()],
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

    /// Cycles core `core` loses to wave arbitration over `work`'s transactions.
    fn memory_stall(&self, core: usize, work: &PerfReport) -> u64 {
        self.config.shared_memory.wave_penalty(core) * (work.memory_loads + work.memory_stores)
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
    /// makespan; each core idles for the rest of it.
    fn shard_attribution(&self, per_query: &PerfReport, queries: usize) -> MultiCorePerf {
        let shards = Self::shard_ranges_by_cost(&self.pass_costs(per_query), queries);
        let mut per_core: Vec<CorePerf> = shards
            .iter()
            .enumerate()
            .map(|(core, shard)| {
                let work = per_query.times(shard.len() as u64);
                CorePerf {
                    core,
                    compute_cycles: work.cycles,
                    memory_stall_cycles: self.memory_stall(core, &work),
                    work,
                    ..CorePerf::default()
                }
            })
            .collect();
        let makespan_cycles = per_core
            .iter()
            .map(CorePerf::busy_cycles)
            .max()
            .unwrap_or(0);
        for core in &mut per_core {
            core.idle_cycles = makespan_cycles - core.busy_cycles();
        }
        MultiCorePerf {
            makespan_cycles,
            per_core,
        }
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
            num_source_ops: 3,
            pe_precision: Precision::F64,
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
    fn attribution_accounts_for_every_shape_without_simulating() {
        let program = sum_of_products_program();
        for cores in 1..=4usize {
            let mc = MultiCoreProcessor::new(MultiCoreConfig::new(cores, cfg())).unwrap();
            for queries in 0..=9usize {
                let perf = mc.shard_attribution(&program.perf(), queries);
                let context = format!("{cores} cores, {queries} queries: {perf}");
                perf.check_accounting().expect(&context);
                assert_eq!(perf.per_core.len(), cores, "{context}");
                let mut work = PerfReport::default();
                let mut modeled_stalls = 0;
                for core in &perf.per_core {
                    assert_eq!(core.work.cycles, core.compute_cycles, "{context}");
                    assert_eq!(core.interconnect_stall_cycles, 0, "{context}");
                    work.merge(&core.work);
                    modeled_stalls += core.memory_stall_cycles;
                }
                // Each query is charged once, to the core whose shard holds it.
                assert_eq!(work.queries as usize, queries, "{context}");
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
