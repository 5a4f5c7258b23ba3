//! The cycle-accurate processor model.
//!
//! [`Processor::run`] executes a compiled [`Program`] instruction by
//! instruction.  Every structural rule of the architecture is enforced:
//!
//! * at most one read and one write per register bank per cycle,
//! * PE write-backs restricted to the banks reachable from the PE's position,
//! * per-level pipeline latency — a value written by a PE at level `l` of an
//!   instruction issued in cycle `t` commits at the end of cycle `t + l` and
//!   is readable from cycle `t + l + 1`,
//! * a single vectorised data-memory operation per cycle, sharing the
//!   register-file ports with everything else.
//!
//! Violations are reported as [`ProcessorError`]s rather than silently
//! producing wrong values, which turns the simulator into a verification
//! oracle for `spn-compiler`.

use crate::config::{PePosition, ProcessorConfig};
use crate::datamem::DataMemory;
use crate::error::ProcessorError;
use crate::isa::{Instruction, MemOp, PeOp, Program, ReadSel, ValueLocation};
use crate::perf::PerfReport;
use crate::regfile::RegisterFile;
use crate::trace::{NoTrace, TraceHook};
use crate::tree::evaluate_tree;
use crate::Result;

/// The outcome of executing a program on one input vector.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionResult {
    /// The SPN root value computed by the program.
    pub output: f64,
    /// The values of the program's export locations ([`Program::exports`]),
    /// in declaration order; empty for ordinary single-output programs.
    pub exports: Vec<f64>,
    /// Performance counters of the run ([`Program::perf`]).
    pub perf: PerfReport,
}

/// Reusable simulator storage for the execute-many half of the
/// compile-once / execute-many split.
///
/// Holds the register file, data memory, pipeline bookkeeping and the
/// data-memory image buffer, so repeated runs of one compiled [`Program`]
/// (e.g. over an evidence batch) allocate nothing per query.  Build one with
/// [`Processor::state_for`] and pass it to [`Processor::run_with`].
#[derive(Debug, Clone)]
pub struct SimState {
    regfile: RegisterFile,
    datamem: DataMemory,
    pending: Vec<PendingWrite>,
    image: Vec<f64>,
}

/// A write travelling through the PE pipeline, not yet visible to reads.
#[derive(Debug, Clone, Copy)]
struct PendingWrite {
    commit_cycle: u64,
    bank: usize,
    reg: usize,
    value: f64,
}

/// The SPN processor simulator.
#[derive(Debug, Clone)]
pub struct Processor {
    config: ProcessorConfig,
}

impl Processor {
    /// Creates a processor for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`ProcessorError::InvalidConfig`] when the configuration is
    /// inconsistent.
    pub fn new(config: ProcessorConfig) -> Result<Self> {
        config.validate()?;
        Ok(Processor { config })
    }

    /// The configuration this processor simulates.
    pub fn config(&self) -> &ProcessorConfig {
        &self.config
    }

    /// Builds reusable simulator storage sized for `program`.
    ///
    /// The data memory is sized to the rows the program actually uses (the
    /// row-by-row interface and therefore the cycle counts are unchanged —
    /// see [`DataMemory::with_rows`]): a compiled program never addresses
    /// beyond `memory_rows_used`, and the tight sizing keeps the per-query
    /// reset of a batched run proportional to the program instead of the
    /// full on-chip capacity.  Oversized programs get a proportionally
    /// larger backing memory the same way.
    pub fn state_for(&self, program: &Program) -> SimState {
        let rows = program.memory_rows_used.max(1);
        SimState {
            regfile: RegisterFile::new(&self.config),
            datamem: DataMemory::with_rows(rows, self.config.total_banks()),
            pending: Vec::new(),
            image: Vec::new(),
        }
    }

    /// Executes `program` on the input values of one inference pass.
    ///
    /// `inputs` must contain one value per entry of the program's input
    /// layout (see [`Program::input_layout`]); they are placed into the data
    /// memory before the first cycle.
    ///
    /// Convenience wrapper that allocates fresh simulator storage; repeated
    /// runs should reuse a [`SimState`] via [`Processor::run_with`] or go
    /// through [`crate::MultiCoreProcessor::run_batch_sharded`].
    ///
    /// # Errors
    ///
    /// Returns a [`ProcessorError`] when the program violates a structural
    /// rule of the architecture, reads a value still in flight, or does not
    /// match this processor's configuration.
    pub fn run(&self, program: &Program, inputs: &[f64]) -> Result<ExecutionResult> {
        let mut state = self.state_for(program);
        self.run_with(program, inputs, &mut state)
    }

    /// Executes `program` on one input vector, reusing `state`'s storage.
    ///
    /// `state` is replaced by a freshly sized one when its geometry does not
    /// fit `program` (smaller data memory, or banks/registers from a
    /// different configuration), so a cached state can be carried across
    /// programs safely.
    ///
    /// # Errors
    ///
    /// Returns a [`ProcessorError`] as for [`Processor::run`].
    pub fn run_with(
        &self,
        program: &Program,
        inputs: &[f64],
        state: &mut SimState,
    ) -> Result<ExecutionResult> {
        self.run_with_hook(program, inputs, state, &mut NoTrace)
    }

    /// The generic run loop behind [`Processor::run_with`]: executes
    /// `program` on one input vector, reporting every cycle's PE and memory
    /// activity (opcode, operands, result, instruction occupancy, memory row
    /// operations) to `hook`.
    ///
    /// The untraced path pays nothing for the hook — the loop monomorphizes
    /// to hook-free code for [`NoTrace`].
    ///
    /// # Errors
    ///
    /// As for [`Processor::run_with`].
    pub fn run_with_hook<H: TraceHook>(
        &self,
        program: &Program,
        inputs: &[f64],
        state: &mut SimState,
        hook: &mut H,
    ) -> Result<ExecutionResult> {
        let (output, exports) = self.run_values(program, inputs, state, hook)?;
        Ok(ExecutionResult {
            output,
            exports,
            perf: program.perf(),
        })
    }

    /// One pass for its values (root, exports), every structural rule
    /// enforced; nothing is counted — the cost is [`Program::perf`].
    pub(crate) fn run_values<H: TraceHook>(
        &self,
        program: &Program,
        inputs: &[f64],
        state: &mut SimState,
        hook: &mut H,
    ) -> Result<(f64, Vec<f64>)> {
        if program.config != self.config {
            return Err(ProcessorError::InvalidConfig {
                reason: format!(
                    "program compiled for `{}` run on `{}`",
                    program.config.name, self.config.name
                ),
            });
        }
        if state.datamem.rows() < program.memory_rows_used.max(1)
            || state.datamem.width() != self.config.total_banks()
            || state.regfile.banks() != self.config.total_banks()
            || state.regfile.regs_per_bank() != self.config.regs_per_bank
        {
            *state = self.state_for(program);
        }
        program.write_memory_image(inputs, &mut state.image)?;
        state.regfile.reset();
        // The image covers every row the program may address
        // (`memory_rows_used` rows, zero-filled where unspecified), so
        // loading it re-initialises the reachable address space without
        // zeroing a possibly larger reused backing memory.  Memory
        // operations beyond `memory_rows_used` are rejected per instruction
        // below, so stale rows of a reused state are never observable.
        state.datamem.load_image(&state.image)?;
        state.pending.clear();
        let regfile = &mut state.regfile;
        let datamem = &mut state.datamem;
        let pending = &mut state.pending;

        let rows_used = program.memory_rows_used;
        for (cycle, instr) in program.instructions.iter().enumerate() {
            let cycle = cycle as u64;
            Self::commit_ready(pending, regfile, cycle)?;
            self.execute_instruction(
                instr,
                cycle,
                rows_used,
                program.pe_precision,
                regfile,
                datamem,
                pending,
                hook,
            )?;
        }
        // Drain the pipeline: commit everything that is still in flight.
        Self::commit_ready(pending, regfile, u64::MAX)?;

        let peek = |loc: ValueLocation| -> Result<f64> {
            Ok(match loc {
                ValueLocation::Register { bank, reg } => regfile.peek(bank as usize, reg as usize),
                ValueLocation::Memory { row, lane } => {
                    Self::check_program_row(row as usize, rows_used)?;
                    datamem.peek(row as usize, lane as usize)
                }
            })
        };
        let output = peek(program.output)?;
        let exports = program
            .exports
            .iter()
            .map(|&loc| peek(loc))
            .collect::<Result<Vec<f64>>>()?;
        Ok((output, exports))
    }

    /// Applies all pending writes whose commit cycle is strictly before
    /// `cycle` (they become visible to reads of `cycle`).
    fn commit_ready(
        pending: &mut Vec<PendingWrite>,
        regfile: &mut RegisterFile,
        cycle: u64,
    ) -> Result<()> {
        let mut ready: Vec<PendingWrite> = Vec::new();
        pending.retain(|w| {
            if w.commit_cycle < cycle {
                ready.push(*w);
                false
            } else {
                true
            }
        });
        ready.sort_by_key(|w| w.commit_cycle);
        for w in ready {
            regfile.write(w.bank, w.reg, w.value, w.commit_cycle)?;
        }
        Ok(())
    }

    /// Checks that a memory operation stays inside the program's declared
    /// address space (`memory_rows_used`), so reused simulator storage can
    /// never leak a previous program's rows.
    fn check_program_row(row: usize, rows_used: usize) -> Result<()> {
        if row >= rows_used {
            return Err(ProcessorError::MemoryOutOfRange {
                row,
                rows: rows_used,
            });
        }
        Ok(())
    }

    /// Checks that `(bank, reg)` has no write still in flight at `cycle`.
    fn check_no_inflight(
        pending: &[PendingWrite],
        bank: usize,
        reg: usize,
        cycle: u64,
    ) -> Result<()> {
        if pending
            .iter()
            .any(|w| w.bank == bank && w.reg == reg && w.commit_cycle >= cycle)
        {
            return Err(ProcessorError::ReadBeforeWrite { cycle, bank, reg });
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn execute_instruction<H: TraceHook>(
        &self,
        instr: &Instruction,
        cycle: u64,
        rows_used: usize,
        pe_precision: crate::precision::Precision,
        regfile: &mut RegisterFile,
        datamem: &mut DataMemory,
        pending: &mut Vec<PendingWrite>,
        hook: &mut H,
    ) -> Result<()> {
        if instr.trees.len() != self.config.num_trees {
            return Err(ProcessorError::MalformedInstruction {
                cycle,
                reason: format!(
                    "instruction configures {} trees, processor has {}",
                    instr.trees.len(),
                    self.config.num_trees
                ),
            });
        }
        // 1. A memory load enqueues its row write first so that reads of the
        //    destination register in the same cycle are flagged as hazards.
        if let MemOp::Load { row, reg } = instr.mem {
            Self::check_program_row(row as usize, rows_used)?;
            if H::ENABLED {
                hook.on_mem(cycle, false, row, reg);
            }
            let values = datamem.load_row(row as usize)?.to_vec();
            for (bank, value) in values.into_iter().enumerate() {
                pending.push(PendingWrite {
                    commit_cycle: cycle,
                    bank,
                    reg: reg as usize,
                    value,
                });
            }
        }

        // 2. Resolve crossbar reads and evaluate every tree.
        let occupancy = if H::ENABLED {
            instr
                .trees
                .iter()
                .flat_map(|t| t.pe_ops.iter())
                .filter(|&&op| op != PeOp::Nop)
                .count() as u32
        } else {
            0
        };
        let mut tree_outputs = Vec::with_capacity(instr.trees.len());
        for (tree_idx, tree_instr) in instr.trees.iter().enumerate() {
            let mut values = Vec::with_capacity(tree_instr.reads.len());
            if tree_instr.reads.len() != self.config.tree_inputs_per_tree() {
                return Err(ProcessorError::MalformedInstruction {
                    cycle,
                    reason: format!(
                        "tree has {} read selections, expected {}",
                        tree_instr.reads.len(),
                        self.config.tree_inputs_per_tree()
                    ),
                });
            }
            for sel in &tree_instr.reads {
                let v = match *sel {
                    ReadSel::None | ReadSel::Zero => 0.0,
                    ReadSel::One => 1.0,
                    ReadSel::Reg { bank, reg } => {
                        let (bank, reg) = (bank as usize, reg as usize);
                        Self::check_no_inflight(pending, bank, reg, cycle)?;
                        regfile.read(bank, reg, cycle)?
                    }
                };
                values.push(v);
            }
            let outputs = evaluate_tree(&self.config, tree_instr, &values, cycle, pe_precision)?;
            if H::ENABLED {
                // Reconstruct each active PE's operands: level 0 reads the
                // crossbar values, level l > 0 reads the level below.
                for level in 0..self.config.tree_levels {
                    for pe in 0..self.config.pes_at_level(level) {
                        let flat = crate::isa::TreeInstr::pe_flat_index(&self.config, level, pe);
                        let op = tree_instr.pe_ops[flat];
                        if op == PeOp::Nop {
                            continue;
                        }
                        let (a, b) = if level == 0 {
                            (values[2 * pe], values[2 * pe + 1])
                        } else {
                            let below = &outputs.levels[level - 1];
                            (below[2 * pe], below[2 * pe + 1])
                        };
                        hook.on_pe(
                            cycle,
                            tree_idx,
                            level,
                            pe,
                            op,
                            a,
                            b,
                            outputs.value(level, pe),
                            occupancy,
                        );
                    }
                }
            }
            tree_outputs.push(outputs);
        }

        // 3. Queue PE write-backs with their pipeline latency.
        for (tree_idx, tree_instr) in instr.trees.iter().enumerate() {
            for w in &tree_instr.writes {
                let level = w.level as usize;
                let pe = w.pe as usize;
                if level >= self.config.tree_levels || pe >= self.config.pes_at_level(level) {
                    return Err(ProcessorError::MalformedInstruction {
                        cycle,
                        reason: format!("write from non-existent PE level {level} index {pe}"),
                    });
                }
                let position = PePosition {
                    tree: tree_idx,
                    level,
                    index: pe,
                };
                let bank = w.bank as usize;
                if !self.config.can_write(position, bank) {
                    return Err(ProcessorError::IllegalWriteBank {
                        cycle,
                        tree: tree_idx,
                        level,
                        pe,
                        bank,
                    });
                }
                if w.reg as usize >= self.config.regs_per_bank {
                    return Err(ProcessorError::MalformedInstruction {
                        cycle,
                        reason: format!("write to register {} out of range", w.reg),
                    });
                }
                pending.push(PendingWrite {
                    commit_cycle: cycle + self.config.commit_latency(level),
                    bank,
                    reg: w.reg as usize,
                    value: tree_outputs[tree_idx].value(level, pe),
                });
            }
        }

        // 4. Intra-bank copies (read and write the same bank this cycle).
        for copy in &instr.copies {
            let bank = copy.bank as usize;
            Self::check_no_inflight(pending, bank, copy.src as usize, cycle)?;
            let value = regfile.read(bank, copy.src as usize, cycle)?;
            pending.push(PendingWrite {
                commit_cycle: cycle,
                bank,
                reg: copy.dst as usize,
                value,
            });
        }

        // 5. A store reads the register file after all other reads of the
        //    cycle have been accounted for.
        if let MemOp::Store { row, reg } = instr.mem {
            Self::check_program_row(row as usize, rows_used)?;
            if H::ENABLED {
                hook.on_mem(cycle, true, row, reg);
            }
            for bank in 0..self.config.total_banks() {
                Self::check_no_inflight(pending, bank, reg as usize, cycle)?;
            }
            let values = regfile.read_row(reg as usize, cycle)?;
            datamem.store_row(row as usize, &values)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{CopyCmd, InputSlot, PeOp, TreeInstr, WriteCmd};

    fn cfg() -> ProcessorConfig {
        ProcessorConfig::ptree()
    }

    /// Builds a program that loads 4 values (a, b, c, d) from memory row 0
    /// and computes (a + b) × (c + d) on one tree pass, writing the result to
    /// bank 0, register 1.
    fn sum_of_products_program() -> Program {
        let config = cfg();
        let mut load = Instruction::nop(&config);
        load.mem = MemOp::Load { row: 0, reg: 0 };

        let mut compute = Instruction::nop(&config);
        {
            let tree = &mut compute.trees[0];
            // Inputs 0..4 read banks 0..4 (lane = bank for row loads).
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
            pe_precision: crate::precision::Precision::F64,
        }
    }

    #[test]
    fn computes_sum_of_products() {
        let program = sum_of_products_program();
        let proc = Processor::new(cfg()).unwrap();
        let result = proc.run(&program, &[2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(result.output, (2.0 + 3.0) * (4.0 + 5.0));
        assert_eq!(result.perf.source_ops, 3);
        assert_eq!(result.perf.issued_ops, 3);
        assert_eq!(result.perf.memory_loads, 1);
        // Load cycle + compute cycle + one level of pipeline latency.
        assert_eq!(result.perf.cycles, 3);
        assert!(result.perf.ops_per_cycle() > 0.9);
    }

    #[test]
    fn batched_run_reuses_state_and_accumulates_perf() {
        let program = sum_of_products_program();
        let proc = Processor::new(cfg()).unwrap();
        // Three queries through one reused state.
        let queries = [
            [2.0, 3.0, 4.0, 5.0],
            [1.0, 1.0, 1.0, 1.0],
            [0.5, 0.5, 2.0, 2.0],
        ];
        let mut state = proc.state_for(&program);
        let mut outputs = Vec::new();
        let mut perf = PerfReport::default();
        for inputs in &queries {
            let run = proc.run_with(&program, inputs, &mut state).unwrap();
            outputs.push(run.output);
            perf.merge(&run.perf);
        }
        assert_eq!(outputs, vec![45.0, 4.0, 4.0]);
        assert_eq!(perf.queries, 3);
        let single = proc.run(&program, &queries[0]).unwrap();
        assert_eq!(perf.cycles, 3 * single.perf.cycles);
        assert_eq!(perf.source_ops, 3 * single.perf.source_ops);
        assert_eq!(perf.memory_loads, 3 * single.perf.memory_loads);
    }

    #[test]
    fn state_reuse_is_equivalent_to_fresh_state() {
        let program = sum_of_products_program();
        let proc = Processor::new(cfg()).unwrap();
        let mut state = proc.state_for(&program);
        let a = proc
            .run_with(&program, &[2.0, 3.0, 4.0, 5.0], &mut state)
            .unwrap();
        // A second, different query through the same state must not see any
        // residue of the first.
        let b = proc
            .run_with(&program, &[1.0, 0.0, 1.0, 0.0], &mut state)
            .unwrap();
        assert_eq!(a.output, 45.0);
        assert_eq!(b.output, 1.0);
        assert_eq!(
            b.perf,
            proc.run(&program, &[1.0, 0.0, 1.0, 0.0]).unwrap().perf
        );
    }

    #[test]
    fn rejects_mismatched_input_count() {
        let program = sum_of_products_program();
        let proc = Processor::new(cfg()).unwrap();
        assert!(matches!(
            proc.run(&program, &[1.0, 2.0]),
            Err(ProcessorError::InputMismatch { .. })
        ));
    }

    #[test]
    fn rejects_wrong_configuration() {
        let program = sum_of_products_program();
        let proc = Processor::new(ProcessorConfig::pvect()).unwrap();
        assert!(matches!(
            proc.run(&program, &[1.0; 4]),
            Err(ProcessorError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn detects_read_before_write_hazard() {
        // Same as the reference program but the compute instruction reads the
        // loaded row in the same cycle as the load (illegal: the load commits
        // at the end of the cycle).
        let mut program = sum_of_products_program();
        let compute = program.instructions.remove(1);
        program.instructions[0].trees = compute.trees;
        let proc = Processor::new(cfg()).unwrap();
        assert!(matches!(
            proc.run(&program, &[1.0; 4]),
            Err(ProcessorError::ReadBeforeWrite { .. })
        ));
    }

    #[test]
    fn detects_read_port_conflict() {
        let mut program = sum_of_products_program();
        // Make two tree inputs read the same bank in the compute cycle.
        program.instructions[1].trees[0].reads[1] = ReadSel::Reg { bank: 0, reg: 0 };
        let proc = Processor::new(cfg()).unwrap();
        assert!(matches!(
            proc.run(&program, &[1.0; 4]),
            Err(ProcessorError::ReadPortConflict { .. })
        ));
    }

    #[test]
    fn detects_illegal_write_bank() {
        let mut program = sum_of_products_program();
        // Level-1 PE 0 of tree 0 can write banks 0..4 only; bank 12 is illegal.
        program.instructions[1].trees[0].writes[0].bank = 12;
        let proc = Processor::new(cfg()).unwrap();
        assert!(matches!(
            proc.run(&program, &[1.0; 4]),
            Err(ProcessorError::IllegalWriteBank { .. })
        ));
    }

    #[test]
    fn detects_write_port_conflict() {
        let mut program = sum_of_products_program();
        // Add a second write committing to bank 0 in the same cycle: leaf PE 0
        // (level 0) commits one cycle earlier, so use another level-1 write by
        // making PE level 1 index 0 write twice... instead write from leaf PE 0
        // in the *next* instruction so commits collide at the same cycle.
        let config = program.config.clone();
        let mut extra = Instruction::nop(&config);
        extra.trees[0].pe_ops[0] = PeOp::Add;
        extra.trees[0].reads[0] = ReadSel::One;
        extra.trees[0].reads[1] = ReadSel::One;
        extra.trees[0].writes.push(WriteCmd {
            level: 0,
            pe: 0,
            bank: 0,
            reg: 5,
        });
        // The level-1 write of instruction 1 commits at cycle 2; this leaf
        // write issued at cycle 2 also commits at cycle 2 on bank 0.
        program.instructions.push(extra);
        let proc = Processor::new(cfg()).unwrap();
        assert!(matches!(
            proc.run(&program, &[1.0; 4]),
            Err(ProcessorError::WritePortConflict { .. })
        ));
    }

    #[test]
    fn copies_move_values_within_a_bank() {
        let config = cfg();
        let mut load = Instruction::nop(&config);
        load.mem = MemOp::Load { row: 0, reg: 0 };
        let mut copy = Instruction::nop(&config);
        copy.copies.push(CopyCmd {
            bank: 2,
            src: 0,
            dst: 7,
        });
        let program = Program {
            config,
            instructions: vec![load, copy],
            input_layout: vec![InputSlot { row: 0, lane: 2 }],
            memory_rows_used: 1,
            output: ValueLocation::Register { bank: 2, reg: 7 },
            exports: Vec::new(),
            num_source_ops: 0,
            pe_precision: crate::precision::Precision::F64,
        };
        let proc = Processor::new(cfg()).unwrap();
        let result = proc.run(&program, &[42.0]).unwrap();
        assert_eq!(result.output, 42.0);
    }

    #[test]
    fn store_writes_back_to_memory() {
        let config = cfg();
        let mut load = Instruction::nop(&config);
        load.mem = MemOp::Load { row: 0, reg: 0 };
        let mut store = Instruction::nop(&config);
        store.mem = MemOp::Store { row: 1, reg: 0 };
        let program = Program {
            config,
            instructions: vec![load, store],
            input_layout: vec![InputSlot { row: 0, lane: 9 }],
            memory_rows_used: 2,
            output: ValueLocation::Memory { row: 1, lane: 9 },
            exports: Vec::new(),
            num_source_ops: 0,
            pe_precision: crate::precision::Precision::F64,
        };
        let proc = Processor::new(cfg()).unwrap();
        let result = proc.run(&program, &[7.5]).unwrap();
        assert_eq!(result.output, 7.5);
        assert_eq!(result.perf.memory_stores, 1);
    }

    #[test]
    fn pvect_configuration_executes_single_level_ops() {
        let config = ProcessorConfig::pvect();
        let mut load = Instruction::nop(&config);
        load.mem = MemOp::Load { row: 0, reg: 0 };
        let mut compute = Instruction::nop(&config);
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
            config: config.clone(),
            instructions: vec![load, compute],
            input_layout: vec![InputSlot { row: 0, lane: 0 }, InputSlot { row: 0, lane: 1 }],
            memory_rows_used: 1,
            output: ValueLocation::Register { bank: 1, reg: 3 },
            exports: Vec::new(),
            num_source_ops: 1,
            pe_precision: crate::precision::Precision::F64,
        };
        let proc = Processor::new(config).unwrap();
        let result = proc.run(&program, &[6.0, 7.0]).unwrap();
        assert_eq!(result.output, 42.0);
    }
}
