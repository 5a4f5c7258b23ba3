//! The cycle-accurate processor model.
//!
//! The paper's processor has no interlocks: the compiler resolves every
//! hazard, bank and port, so whether a [`Program`] is legal is fixed when it
//! is emitted, like what it costs ([`Program::perf`]).  [`Processor::check`]
//! is the one place the structural rules of the architecture live:
//!
//! * at most one read and one write per register bank per cycle,
//! * PE write-backs restricted to the banks reachable from the PE's position,
//! * per-level pipeline latency — a value written by a PE at level `l` of an
//!   instruction issued in cycle `t` commits at the end of cycle `t + l` and
//!   is readable from cycle `t + l + 1`,
//! * a single vectorised data-memory operation per cycle, sharing the
//!   register-file ports with everything else (one per cycle holds by
//!   construction: [`crate::Instruction::mem`] is a single field).
//!
//! Violations are reported as [`ProcessorError`]s rather than silently
//! producing wrong values, which turns the simulator into a verification
//! oracle for `spn-compiler`.  [`Processor::run`] checks the program, lowers
//! it once to a dataflow list (`crate::dataflow`) and replays that for the
//! inputs' values alone; a [`CheckedProgram`] does the first two once per
//! plan and keeps the list for every batch.

use crate::config::{PePosition, ProcessorConfig};
use crate::dataflow::{Dataflow, Inputs};
use crate::error::ProcessorError;
use crate::isa::{MemOp, Program, ReadSel, ValueLocation};
use crate::perf::PerfReport;
use crate::trace::{NoTrace, TraceHook};
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
/// Holds the scratch of the value replay.  A checked program is lowered to
/// a dataflow list over value slots — zero, one, each input, the arithmetic
/// PE results, a slot taking the next value once its own has been read for
/// the last time — and the replay fills them for up to eight queries side
/// by side, one lane per query.  A state starts empty
/// (`SimState::default()`) and takes its size from the first replay: the
/// constants and as many inputs and step results as are live at once, for
/// each query replayed side by side.  The register file and data memory of
/// the machine are never materialised: where a value sits only matters
/// while a program is lowered.  States are reused across runs and grow when
/// a bigger program comes along; the inputs stay where the caller holds
/// them, a lane tile or query-major input vectors.  The lowering is
/// not kept here: a [`CheckedProgram`] holds it for the whole plan, the
/// multi-core runners ([`crate::MultiCoreProcessor::run_batch_sharded`] and
/// [`crate::MultiCoreProcessor::run_partitioned`]) lower once per call, and
/// a single-query [`Processor::run_with`] lowers on every call.
#[derive(Debug, Clone, Default)]
pub struct SimState {
    /// Slot-major, one lane per query of a replayed block.
    pub(crate) slots: Vec<f64>,
}

/// A program [`Processor::check`] accepted, with what being legal fixes for
/// good: its cost per pass ([`Program::perf`]) and its untraced dataflow
/// list.  The only constructor runs the check, so a replay never meets an
/// illegal program, and the program is read through `Deref` but cannot be
/// changed afterwards.  Built once per plan (`spn_compiler::CompiledArtifact`
/// holds one), it serves every batch of it: [`CheckedProgram::run_block`]
/// replays a lane block, and [`crate::MultiCoreProcessor::sharded_perf`]
/// costs a batch on a machine.
#[derive(Debug, Clone)]
pub struct CheckedProgram {
    program: Program,
    /// [`Program::perf`], taken when the program was checked.
    pub(crate) perf: PerfReport,
    flow: Dataflow,
}

impl CheckedProgram {
    /// Checks `program` on `processor`, costs it and lowers it.
    ///
    /// # Errors
    ///
    /// The first [`ProcessorError`] of [`Processor::check`].
    pub fn new(processor: &Processor, program: Program) -> Result<CheckedProgram> {
        let flow = Dataflow::checked(processor, &program, false)?;
        Ok(CheckedProgram {
            perf: program.perf(),
            flow,
            program,
        })
    }

    /// Replays the `lanes` queries of the lane-minor input tile `tile` —
    /// input `i` of lane `l` at `tile[i * lanes + l]`, the layout of
    /// `spn_core`'s `InputRecipe::fill_lane_block` — and writes their root
    /// values to `outputs`.  Values do not depend on `lanes`: each lane is
    /// the query a single-query [`Processor::run`] computes, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is not 1, 2, 4 or 8, `tile` is not
    /// `input_layout.len() × lanes` long or `outputs` is not `lanes` long.
    pub fn run_block(&self, lanes: usize, tile: &[f64], outputs: &mut [f64], state: &mut SimState) {
        let tile = Inputs::Tile(tile);
        self.flow
            .run_block(lanes, tile, outputs, &mut [], &mut state.slots);
    }

    /// The input slots [`CheckedProgram::run_block`] reads, ascending:
    /// those some PE step, the output or an export reads.  A tile whose
    /// other lane groups hold anything replays to the same bits, so a
    /// block fill can leave them alone.
    pub fn inputs_read(&self) -> Vec<u32> {
        self.flow.inputs_read()
    }

    /// The runs the replay is cut into: stretches of steps with one opcode,
    /// each input run holding the inputs the next run reads first.  The
    /// replay matches an opcode once per run.
    pub fn replay_runs(&self) -> usize {
        self.flow.num_runs()
    }
}

impl std::ops::Deref for CheckedProgram {
    type Target = Program;

    fn deref(&self) -> &Program {
        &self.program
    }
}

/// The bookkeeping of [`Processor::check`]: three flat arrays, no queue.
/// Cycles are stored one-based so that zero means "never".
struct Hazards<'a> {
    config: &'a ProcessorConfig,
    /// Per register: the first cycle it is readable, one past the latest
    /// commit cycle of any write issued to it.
    readable_from: Vec<u64>,
    /// Per bank: one past the cycle of its latest read.
    read_port: Vec<u64>,
    /// Per bank, a ring of `slots` entries indexed by commit cycle: one past
    /// the commit cycle of the write booked there.
    write_port: Vec<u64>,
    /// Commit cycles a write issued now can land in: max commit latency + 1.
    slots: usize,
}

impl<'a> Hazards<'a> {
    fn new(config: &'a ProcessorConfig) -> Self {
        let slots = config.commit_latency(config.tree_levels - 1) as usize + 1;
        Hazards {
            config,
            readable_from: vec![0; config.total_registers()],
            read_port: vec![0; config.total_banks()],
            write_port: vec![0; config.total_banks() * slots],
            slots,
        }
    }

    fn address(&self, bank: usize, reg: usize, cycle: u64) -> Result<usize> {
        if bank >= self.config.total_banks() || reg >= self.config.regs_per_bank {
            return Err(ProcessorError::MalformedInstruction {
                cycle,
                reason: format!("register address bank {bank} reg {reg} out of range"),
            });
        }
        Ok(bank * self.config.regs_per_bank + reg)
    }

    /// `(bank, reg)` exists and has no write still in flight at `cycle`.
    fn readable(&self, bank: usize, reg: usize, cycle: u64) -> Result<()> {
        if self.readable_from[self.address(bank, reg, cycle)?] > cycle {
            return Err(ProcessorError::ReadBeforeWrite { cycle, bank, reg });
        }
        Ok(())
    }

    /// A read of `(bank, reg)` in `cycle`, taking the bank's read port.
    fn read(&mut self, bank: usize, reg: usize, cycle: u64) -> Result<()> {
        self.readable(bank, reg, cycle)?;
        if self.read_port[bank] == cycle + 1 {
            return Err(ProcessorError::ReadPortConflict { cycle, bank });
        }
        self.read_port[bank] = cycle + 1;
        Ok(())
    }

    /// A write to `(bank, reg)` committing in cycle `commit` (at most the
    /// ring length past its issue), taking the bank's write port of that
    /// cycle.
    fn write(&mut self, bank: usize, reg: usize, commit: u64) -> Result<()> {
        let register = self.address(bank, reg, commit)?;
        let slot = bank * self.slots + commit as usize % self.slots;
        if self.write_port[slot] == commit + 1 {
            return Err(ProcessorError::WritePortConflict {
                cycle: commit,
                bank,
            });
        }
        self.write_port[slot] = commit + 1;
        self.readable_from[register] = self.readable_from[register].max(commit + 1);
        Ok(())
    }
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

    /// PEs of one tree (= the length of [`crate::TreeInstr::pe_ops`]).
    fn pes_per_tree(&self) -> usize {
        self.config.num_pes() / self.config.num_trees
    }

    /// Whether `program` is legal on this processor: one walk over the
    /// instruction stream that enforces every structural rule of the
    /// architecture and reads no value, so the verdict holds for every
    /// input vector.  It is the only place a hazard, port or reach rule is
    /// raised; [`CheckedProgram::new`], [`Processor::run`] and the
    /// multi-core runners call it before they compute anything.
    ///
    /// Checked, in issue order and within a cycle in datapath order: the
    /// configuration match; per instruction the tree count, the load (row
    /// inside `memory_rows_used`; its row write commits in the issue cycle,
    /// so a read of the destination in the same cycle is a hazard), per
    /// tree the read-selection count, every register read (address, no
    /// write in flight, one read per bank per cycle) and the PE-opcode
    /// count, every PE write-back (PE exists, bank reachable, register in
    /// range, one committing write per bank per cycle), the copies, and the
    /// store (row; every bank free of in-flight writes before it takes
    /// their read ports); finally the input slots and the output and export
    /// locations.
    ///
    /// Against the per-query interpreter it replaced (PR 20), which enforced
    /// the rules while it ran a query, the verdict on a program is the same and three things
    /// differ: when a program breaks two rules, a write-port conflict is
    /// named when the second write issues rather than after the cycle it
    /// commits in, so it can be named ahead of the error the old order met
    /// first (typically a [`ProcessorError::ReadBeforeWrite`] of the same
    /// cycle); a malformed program is rejected by a multi-core run of an
    /// empty batch too; and input or result locations out of range are an
    /// error instead of an aliased word or a panic.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProcessorError`] of the walk.
    pub fn check(&self, program: &Program) -> Result<()> {
        let config = &self.config;
        if program.config != *config {
            return Err(ProcessorError::InvalidConfig {
                reason: format!(
                    "program compiled for `{}` run on `{}`",
                    program.config.name, config.name
                ),
            });
        }
        let malformed = |cycle: u64, reason: String| {
            Err(ProcessorError::MalformedInstruction { cycle, reason })
        };
        let geometry = |cycle: u64, what: &str, got: usize, want: usize| {
            if got != want {
                return malformed(cycle, format!("{got} {what}, expected {want}"));
            }
            Ok(())
        };
        // A memory row inside the program's declared address space, so
        // reused simulator storage can never leak a previous program's rows.
        let row_in_program = |row: u32| {
            if row as usize >= program.memory_rows_used {
                return Err(ProcessorError::MemoryOutOfRange {
                    row: row as usize,
                    rows: program.memory_rows_used,
                });
            }
            Ok(())
        };
        let word = |row: u32, lane: u16, cycle: u64| {
            row_in_program(row)?;
            if lane as usize >= config.total_banks() {
                return malformed(cycle, format!("memory lane {lane} out of range"));
            }
            Ok(())
        };
        let banks = config.total_banks();
        let mut hazards = Hazards::new(config);

        for (cycle, instr) in program.instructions.iter().enumerate() {
            let cycle = cycle as u64;
            geometry(cycle, "trees", instr.trees.len(), config.num_trees)?;
            if let MemOp::Load { row, reg } = instr.mem {
                row_in_program(row)?;
                for bank in 0..banks {
                    hazards.write(bank, reg as usize, cycle)?;
                }
            }
            for tree in &instr.trees {
                let inputs = config.tree_inputs_per_tree();
                geometry(cycle, "read selections of a tree", tree.reads.len(), inputs)?;
                for sel in &tree.reads {
                    if let ReadSel::Reg { bank, reg } = *sel {
                        hazards.read(bank as usize, reg as usize, cycle)?;
                    }
                }
                let pes = self.pes_per_tree();
                geometry(cycle, "PE opcodes of a tree", tree.pe_ops.len(), pes)?;
            }
            for (tree_idx, tree) in instr.trees.iter().enumerate() {
                for w in &tree.writes {
                    let (level, pe, bank) = (w.level as usize, w.pe as usize, w.bank as usize);
                    if level >= config.tree_levels || pe >= config.pes_at_level(level) {
                        return malformed(
                            cycle,
                            format!("write from non-existent PE level {level} index {pe}"),
                        );
                    }
                    let position = PePosition {
                        tree: tree_idx,
                        level,
                        index: pe,
                    };
                    if !config.can_write(position, bank) {
                        return Err(ProcessorError::IllegalWriteBank {
                            cycle,
                            tree: tree_idx,
                            level,
                            pe,
                            bank,
                        });
                    }
                    if w.reg as usize >= config.regs_per_bank {
                        return malformed(
                            cycle,
                            format!("write to register {} out of range", w.reg),
                        );
                    }
                    hazards.write(bank, w.reg as usize, cycle + config.commit_latency(level))?;
                }
            }
            // Intra-bank copies read and write the same bank this cycle.
            for copy in &instr.copies {
                hazards.read(copy.bank as usize, copy.src as usize, cycle)?;
                hazards.write(copy.bank as usize, copy.dst as usize, cycle)?;
            }
            // A store reads the register file after all other reads of the
            // cycle have been accounted for.
            if let MemOp::Store { row, reg } = instr.mem {
                row_in_program(row)?;
                for bank in 0..banks {
                    hazards.readable(bank, reg as usize, cycle)?;
                }
                for bank in 0..banks {
                    hazards.read(bank, reg as usize, cycle)?;
                }
            }
        }

        // Inputs are placed before the first cycle, results read after the
        // last.
        for slot in &program.input_layout {
            word(slot.row, slot.lane, 0)?;
        }
        let end = program.len() as u64;
        for loc in std::iter::once(&program.output).chain(&program.exports) {
            match *loc {
                ValueLocation::Register { bank, reg } => {
                    hazards.address(bank as usize, reg as usize, end)?;
                }
                ValueLocation::Memory { row, lane } => word(row, lane, end)?,
            }
        }
        Ok(())
    }

    /// Executes `program` on the input values of one inference pass.
    ///
    /// `inputs` must contain one value per entry of the program's input
    /// layout (see [`Program::input_layout`]); they are placed into the data
    /// memory before the first cycle.
    ///
    /// Convenience wrapper that allocates fresh simulator storage.  Every
    /// call checks and lowers `program` again; a batch should go through
    /// [`crate::MultiCoreProcessor::run_batch_sharded`], which does both once
    /// per call, or a plan through a [`CheckedProgram`], which does them once.
    ///
    /// # Errors
    ///
    /// Returns a [`ProcessorError`] when the program violates a structural
    /// rule of the architecture, reads a value still in flight, or does not
    /// match this processor's configuration ([`Processor::check`]), and
    /// [`ProcessorError::InputMismatch`] for a wrong input count.
    pub fn run(&self, program: &Program, inputs: &[f64]) -> Result<ExecutionResult> {
        let mut state = SimState::default();
        self.run_with(program, inputs, &mut state)
    }

    /// Executes `program` on one input vector, reusing `state`'s storage.
    ///
    /// `state` grows when `program` needs more slots than it holds, so a
    /// cached state can be carried across programs safely.  Only the slot
    /// scratch is reused: the program is checked and lowered on every call.
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

    /// The generic run behind [`Processor::run_with`]: checks `program`,
    /// then executes it on one input vector, reporting every cycle's PE and
    /// memory activity (opcode, operands, result, instruction occupancy,
    /// memory row operations) to `hook`.
    ///
    /// The untraced path pays nothing for the hook — the replay
    /// monomorphizes to hook-free code for [`NoTrace`], and only a traced
    /// lowering records the events.
    ///
    /// # Errors
    ///
    /// As for [`Processor::run_with`].
    pub(crate) fn run_with_hook<H: TraceHook>(
        &self,
        program: &Program,
        inputs: &[f64],
        state: &mut SimState,
        hook: &mut H,
    ) -> Result<ExecutionResult> {
        let flow = Dataflow::checked(self, program, H::ENABLED)?;
        if inputs.len() != program.input_layout.len() {
            return Err(ProcessorError::InputMismatch {
                expected: program.input_layout.len(),
                got: inputs.len(),
            });
        }
        let mut output = [0.0];
        let mut exports = vec![0.0; program.exports.len()];
        flow.run(inputs, &mut output, &mut exports, state, hook, |_, _| {});
        Ok(ExecutionResult {
            output: output[0],
            exports,
            perf: program.perf(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{CopyCmd, InputSlot, Instruction, PeOp, TreeInstr, WriteCmd};

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
        let mut state = SimState::default();
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
        let mut state = SimState::default();
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
    fn only_a_legal_program_becomes_a_checked_program() {
        let proc = Processor::new(cfg()).unwrap();
        // The hazard of `detects_read_before_write_hazard` and the conflict
        // of `detects_read_port_conflict`: the constructor's verdict is the
        // check's.
        let mut hazard = sum_of_products_program();
        let compute = hazard.instructions.remove(1);
        hazard.instructions[0].trees = compute.trees;
        let mut conflict = sum_of_products_program();
        conflict.instructions[1].trees[0].reads[1] = ReadSel::Reg { bank: 0, reg: 0 };
        for program in [hazard, conflict] {
            let verdict = proc.check(&program).expect_err("illegal");
            assert!(matches!(
                verdict,
                ProcessorError::ReadBeforeWrite { .. } | ProcessorError::ReadPortConflict { .. }
            ));
            assert_eq!(CheckedProgram::new(&proc, program).err(), Some(verdict));
        }
        // A legal one keeps its program and the cost `Program::perf` gives.
        let program = sum_of_products_program();
        let checked = CheckedProgram::new(&proc, program.clone()).unwrap();
        assert_eq!(*checked, program);
        assert_eq!(checked.perf, program.perf());
        let mut outputs = [0.0];
        checked.run_block(
            1,
            &[2.0, 3.0, 4.0, 5.0],
            &mut outputs,
            &mut SimState::default(),
        );
        assert_eq!(outputs, [45.0]);
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

    /// The reference program with a second write-back of the level-1 root
    /// PE (span: banks 0..4) to `(bank, 1)`, exported, and a third cycle
    /// that adds the two homes into bank 0, register 2, the output.
    fn two_homes_program(bank: u16) -> Program {
        let mut program = sum_of_products_program();
        program.instructions[1].trees[0].writes.push(WriteCmd {
            level: 1,
            pe: 0,
            bank,
            reg: 1,
        });
        let mut sum = Instruction::nop(&program.config);
        sum.trees[0].reads[0] = ReadSel::Reg { bank: 0, reg: 1 };
        sum.trees[0].reads[1] = ReadSel::Reg { bank, reg: 1 };
        sum.trees[0].pe_ops[0] = PeOp::Add;
        sum.trees[0].writes.push(WriteCmd {
            level: 0,
            pe: 0,
            bank: 0,
            reg: 2,
        });
        // The root's writes commit at the end of cycle 2.
        program.instructions.push(Instruction::nop(&program.config));
        program.instructions.push(sum);
        program.output = ValueLocation::Register { bank: 0, reg: 2 };
        program.exports = vec![
            ValueLocation::Register { bank: 0, reg: 1 },
            ValueLocation::Register { bank, reg: 1 },
        ];
        program.num_source_ops = 4;
        program
    }

    #[test]
    fn one_pe_writes_two_banks_of_its_span_in_one_cycle() {
        let program = two_homes_program(2);
        let proc = Processor::new(cfg()).unwrap();
        proc.check(&program)
            .expect("two write-backs of one PE are legal");
        let run = proc.run(&program, &[2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(run.exports, [45.0, 45.0]);
        assert_eq!(run.output, 90.0);
        assert_eq!(run.perf.writebacks, 3);
    }

    #[test]
    fn a_second_write_back_outside_the_span_is_illegal() {
        let proc = Processor::new(cfg()).unwrap();
        assert!(matches!(
            proc.check(&two_homes_program(12)),
            Err(ProcessorError::IllegalWriteBank {
                cycle: 1,
                bank: 12,
                ..
            })
        ));
    }

    #[test]
    fn two_write_backs_to_one_bank_in_one_cycle_conflict() {
        // The second write goes to another register of the first one's bank.
        let mut program = two_homes_program(2);
        let second = &mut program.instructions[1].trees[0].writes[1];
        (second.bank, second.reg) = (0, 3);
        let proc = Processor::new(cfg()).unwrap();
        assert_eq!(
            proc.check(&program),
            Err(ProcessorError::WritePortConflict { cycle: 2, bank: 0 })
        );
    }

    /// `instructions` after a load of row 0 into register 0, on Ptree.
    fn after_load(instructions: Vec<Instruction>, output: ValueLocation) -> Program {
        let config = cfg();
        let mut load = Instruction::nop(&config);
        load.mem = MemOp::Load { row: 0, reg: 0 };
        Program {
            instructions: std::iter::once(load).chain(instructions).collect(),
            input_layout: (0..32).map(|lane| InputSlot { row: 0, lane }).collect(),
            memory_rows_used: 2,
            output,
            exports: Vec::new(),
            num_source_ops: 0,
            pe_precision: crate::precision::Precision::F64,
            config,
        }
    }

    /// An instruction whose tree-0 PE at `(level, 0)` writes `1 + 1`
    /// (forwarded up from leaf 0) to `(bank, reg)`.
    fn write_two(level: u8, bank: u16, reg: u16) -> Instruction {
        let config = cfg();
        let mut instr = Instruction::nop(&config);
        let tree = &mut instr.trees[0];
        tree.reads[0] = ReadSel::One;
        tree.reads[1] = ReadSel::One;
        tree.pe_ops[0] = PeOp::Add;
        for l in 1..=level as usize {
            tree.pe_ops[TreeInstr::pe_flat_index(&config, l, 0)] = PeOp::PassA;
        }
        tree.writes.push(WriteCmd {
            level,
            pe: 0,
            bank,
            reg,
        });
        instr
    }

    fn read_of(bank: u16, reg: u16) -> Instruction {
        let mut instr = Instruction::nop(&cfg());
        instr.trees[0].reads[0] = ReadSel::Reg { bank, reg };
        instr
    }

    const R0: ValueLocation = ValueLocation::Register { bank: 0, reg: 0 };

    fn check(program: &Program) -> Result<()> {
        let verdict = Processor::new(cfg()).unwrap().check(program);
        // `run` is `check` and then values: one verdict, whatever the data.
        let inputs = vec![0.5; program.input_layout.len()];
        let run = Processor::new(cfg()).unwrap().run(program, &inputs);
        assert_eq!(verdict.clone().err(), run.err());
        verdict
    }

    #[test]
    fn a_bank_serves_one_read_per_cycle() {
        // A second read of the same bank conflicts even at another register.
        let mut twice = read_of(5, 0);
        twice.trees[1].reads[3] = ReadSel::Reg { bank: 5, reg: 1 };
        assert_eq!(
            check(&after_load(vec![twice], R0)),
            Err(ProcessorError::ReadPortConflict { cycle: 1, bank: 5 })
        );
        // The next cycle is fine again, and so are different banks at once.
        let mut two_banks = read_of(5, 1);
        two_banks.trees[1].reads[3] = ReadSel::Reg { bank: 6, reg: 1 };
        assert_eq!(
            check(&after_load(vec![read_of(5, 0), two_banks], R0)),
            Ok(())
        );
        // A copy takes its bank's read port too.
        let mut copy = read_of(5, 0);
        copy.copies.push(CopyCmd {
            bank: 5,
            src: 0,
            dst: 9,
        });
        assert_eq!(
            check(&after_load(vec![copy], R0)),
            Err(ProcessorError::ReadPortConflict { cycle: 1, bank: 5 })
        );
    }

    #[test]
    fn a_bank_commits_one_write_per_cycle() {
        // A level-1 write issued in cycle 1 and a leaf write issued in cycle
        // 2 both commit to bank 1 in cycle 2, at different registers.
        let colliding = vec![write_two(1, 1, 1), write_two(0, 1, 9)];
        assert_eq!(
            check(&after_load(colliding, R0)),
            Err(ProcessorError::WritePortConflict { cycle: 2, bank: 1 })
        );
        // One cycle apart, or to different banks in one cycle, is fine.
        let nop = Instruction::nop(&cfg());
        let apart = vec![write_two(1, 1, 1), nop, write_two(0, 1, 9)];
        assert_eq!(check(&after_load(apart, R0)), Ok(()));
        let mut two_banks = write_two(0, 0, 1);
        two_banks.trees[0].pe_ops[1] = PeOp::Add;
        two_banks.trees[0].writes.push(WriteCmd {
            level: 0,
            pe: 1,
            bank: 2,
            reg: 1,
        });
        assert_eq!(check(&after_load(vec![two_banks], R0)), Ok(()));
    }

    #[test]
    fn row_operations_use_every_port() {
        // A load writes every bank in its issue cycle: a PE write committing
        // to any of them in that cycle conflicts.  The PE write issues first
        // and the load finds the port taken, at the first bank it tries.
        let mut second_load = Instruction::nop(&cfg());
        second_load.mem = MemOp::Load { row: 1, reg: 4 };
        let colliding = vec![write_two(1, 3, 1), second_load.clone()];
        assert_eq!(
            check(&after_load(colliding, R0)),
            Err(ProcessorError::WritePortConflict { cycle: 2, bank: 3 })
        );
        assert_eq!(
            check(&after_load(vec![write_two(0, 1, 1), second_load], R0)),
            Ok(())
        );
        // A store reads every bank: no crossbar read beside it.
        let mut store = read_of(31, 0);
        store.mem = MemOp::Store { row: 1, reg: 0 };
        assert_eq!(
            check(&after_load(vec![store], R0)),
            Err(ProcessorError::ReadPortConflict { cycle: 1, bank: 31 })
        );
        // And it tests every bank for a write in flight before it takes a
        // port: the hazard at bank 3 is named, not the port of bank 0.
        let mut store = read_of(0, 0);
        store.mem = MemOp::Store { row: 1, reg: 1 };
        assert_eq!(
            check(&after_load(vec![write_two(2, 3, 1), store], R0)),
            Err(ProcessorError::ReadBeforeWrite {
                cycle: 2,
                bank: 3,
                reg: 1
            })
        );
    }

    #[test]
    fn out_of_range_fields_are_malformed() {
        let malformed = |instr: Instruction| {
            let verdict = check(&after_load(vec![instr], R0));
            assert!(
                matches!(
                    verdict,
                    Err(ProcessorError::MalformedInstruction { cycle: 1, .. })
                ),
                "{verdict:?}"
            );
        };
        let nop = Instruction::nop(&cfg());
        malformed(read_of(99, 0));
        malformed(read_of(0, 64));
        malformed(write_two(0, 0, 1000));
        for (level, pe) in [(4, 0), (0, 8)] {
            let mut no_such_pe = write_two(0, 0, 1);
            no_such_pe.trees[0].writes[0].level = level;
            no_such_pe.trees[0].writes[0].pe = pe;
            malformed(no_such_pe);
        }
        for (bank, src, dst) in [(32, 0, 1), (0, 64, 1), (0, 0, 64)] {
            let mut copy = nop.clone();
            copy.copies.push(CopyCmd { bank, src, dst });
            malformed(copy);
        }
        let mut load = nop.clone();
        load.mem = MemOp::Load { row: 1, reg: 64 };
        malformed(load);
        let mut store = nop.clone();
        store.mem = MemOp::Store { row: 1, reg: 64 };
        malformed(store);
        // Geometry: every tree, read selection and PE opcode accounted for.
        let mut trees = nop.clone();
        trees.trees.pop();
        malformed(trees);
        let mut reads = nop.clone();
        reads.trees[1].reads.truncate(4);
        malformed(reads);
        let mut pe_ops = nop.clone();
        pe_ops.trees[0].pe_ops.pop();
        malformed(pe_ops);
    }

    #[test]
    fn memory_rows_outside_the_program_are_rejected() {
        // `after_load` declares two rows; the machine has 512.
        for mem in [
            MemOp::Load { row: 2, reg: 1 },
            MemOp::Store { row: 2, reg: 0 },
            MemOp::Load { row: 9999, reg: 1 },
        ] {
            let mut instr = Instruction::nop(&cfg());
            instr.mem = mem;
            let verdict = check(&after_load(vec![instr], R0));
            assert!(
                matches!(
                    verdict,
                    Err(ProcessorError::MemoryOutOfRange { rows: 2, .. })
                ),
                "{verdict:?}"
            );
        }
    }

    #[test]
    fn input_and_result_locations_are_validated() {
        // On the interpreter PR 20 replaced, the first two returned bank 1
        // register 0 and row 1 lane 0, and the third panicked inside its
        // register file.
        let bad = [
            ValueLocation::Register { bank: 0, reg: 64 },
            ValueLocation::Memory { row: 0, lane: 32 },
            ValueLocation::Register { bank: 40, reg: 0 },
        ];
        for loc in bad {
            let verdict = check(&after_load(Vec::new(), loc));
            assert!(
                matches!(
                    verdict,
                    Err(ProcessorError::MalformedInstruction { cycle: 1, .. })
                ),
                "{loc:?}: {verdict:?}"
            );
            let mut exported = after_load(Vec::new(), R0);
            exported.exports = vec![R0, loc];
            assert!(check(&exported).is_err(), "export {loc:?}");
        }
        let row = ValueLocation::Memory { row: 2, lane: 0 };
        assert_eq!(
            check(&after_load(Vec::new(), row)),
            Err(ProcessorError::MemoryOutOfRange { row: 2, rows: 2 })
        );
        let mut program = after_load(Vec::new(), R0);
        program.input_layout[3] = InputSlot { row: 0, lane: 32 };
        assert!(check(&program).is_err());
        program.input_layout[3] = InputSlot { row: 2, lane: 0 };
        assert!(check(&program).is_err());
    }

    #[test]
    fn of_two_writes_in_flight_the_later_commit_is_the_value_read() {
        // Cycle 1: the tree root sends 1 + 1 to bank 0 register 5, committing
        // in cycle 4.  Cycle 2: leaf 0 sends lane 0 + lane 1 to the same
        // register, committing in cycle 2 — issued later, committed first.
        let mut leaf = write_two(0, 0, 5);
        leaf.trees[0].reads[0] = ReadSel::Reg { bank: 0, reg: 0 };
        leaf.trees[0].reads[1] = ReadSel::Reg { bank: 1, reg: 0 };
        let nop = Instruction::nop(&cfg());
        let mut copy = nop.clone();
        copy.copies.push(CopyCmd {
            bank: 0,
            src: 5,
            dst: 6,
        });
        let out = ValueLocation::Register { bank: 0, reg: 6 };
        let body = |wait: usize| {
            let mut body = vec![write_two(3, 0, 5), leaf.clone()];
            body.extend(vec![nop.clone(); wait]);
            body.push(copy.clone());
            after_load(body, out)
        };
        let proc = Processor::new(cfg()).unwrap();
        let mut inputs = vec![0.0; 32];
        inputs[0] = 3.0;
        inputs[1] = 4.0;
        // Read in cycle 5, one past the later commit: the root's 2, not 7.
        let run = proc.run(&body(2), &inputs).unwrap();
        assert_eq!(run.output, 2.0);
        // Until then the register is unreadable, although the leaf's write
        // has long committed.
        for wait in [0, 1] {
            assert_eq!(
                check(&body(wait)),
                Err(ProcessorError::ReadBeforeWrite {
                    cycle: 3 + wait as u64,
                    bank: 0,
                    reg: 5
                })
            );
        }
    }

    #[test]
    fn inputs_land_in_their_slots_and_a_short_vector_writes_nothing() {
        let config = cfg();
        let program = Program {
            instructions: Vec::new(),
            input_layout: vec![
                InputSlot { row: 0, lane: 0 },
                InputSlot { row: 0, lane: 31 },
                InputSlot { row: 2, lane: 5 },
            ],
            memory_rows_used: 3,
            output: ValueLocation::Memory { row: 2, lane: 5 },
            exports: vec![
                ValueLocation::Memory { row: 0, lane: 0 },
                ValueLocation::Memory { row: 0, lane: 31 },
                ValueLocation::Memory { row: 1, lane: 5 },
            ],
            num_source_ops: 0,
            pe_precision: crate::precision::Precision::F64,
            config,
        };
        assert!(program.is_empty());
        assert_eq!(program.perf().stall_cycles, 0);
        let proc = Processor::new(cfg()).unwrap();
        let mut state = SimState::default();
        let run = proc
            .run_with(&program, &[1.0, 2.0, 3.0], &mut state)
            .unwrap();
        assert_eq!((run.output, run.exports), (3.0, vec![1.0, 2.0, 0.0]));
        assert!(matches!(
            proc.run_with(&program, &[9.0], &mut state),
            Err(ProcessorError::InputMismatch {
                expected: 3,
                got: 1
            })
        ));
        // The rejected vector left nothing behind: the first query's inputs
        // give the first query's results.
        let again = proc
            .run_with(&program, &[1.0, 2.0, 3.0], &mut state)
            .unwrap();
        assert_eq!((again.output, again.exports), (3.0, vec![1.0, 2.0, 0.0]));
        // The next query zeroes what it does not set.
        let run = proc
            .run_with(&program, &[0.0, 5.0, 6.0], &mut state)
            .unwrap();
        assert_eq!((run.output, run.exports), (6.0, vec![0.0, 5.0, 0.0]));
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
