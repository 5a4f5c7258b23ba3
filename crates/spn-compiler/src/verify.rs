//! Static translation validation of emitted VLIW schedules.
//!
//! The scheduler is the most intricate part of the compiler: it interleaves
//! tile placement, bank allocation, pipelined write-back latencies and
//! spills.  This module re-checks its *output*
//! independently of how it was produced — a symbolic re-execution of the
//! instruction stream against the machine rules of
//! `spn_processor::processor`, with registers and memory holding *which
//! source operation's value* they contain instead of numbers:
//!
//! * every register read must be **dominated by a committed write** (a read
//!   of an in-flight value — committing this cycle or later — is the
//!   hardware read-before-write hazard),
//! * **port legality**: one read and one committed write per bank per
//!   cycle, a load occupying every bank's write port, a store every bank's
//!   read port,
//! * **crossbar/write-back legality**: a PE may only write banks in its
//!   [`writable_banks`](spn_processor::ProcessorConfig::writable_banks)
//!   span, instruction geometry must match the configuration,
//! * **dataflow correctness**: every arithmetic PE result must correspond
//!   to an operation of the source [`OpList`] (matched structurally up to
//!   operand order for the commutative PE kernels; the sampler comparator
//!   [`PeOp::Sam`] is order-sensitive and matched exactly), and at the end of the
//!   program the output location holds exactly the value the op list says
//!   it should,
//! * **cone soundness**: the [`ConeAnalysis`] of the artifact's op list
//!   must equal an independently recomputed forward reachability sweep.
//!
//! Findings report through [`spn_core::analysis::Diagnostic`] with the
//! `SPN2xx` (single program) and `SPN303` (cones) codes
//! documented in `docs/ARCHITECTURE.md`.

use std::collections::HashMap;

use spn_core::analysis::{Diagnostic, Location, Severity};
use spn_core::flatten::{LeafSource, OpKind, OpList, OperandRef};
use spn_core::incremental::ConeAnalysis;
use spn_processor::isa::{CopyCmd, InputSlot, ValueLocation};
use spn_processor::{MemOp, PeOp, PePosition, Program, ReadSel, TreeInstr};

use crate::compiler::CompiledArtifact;

/// Maximum diagnostics collected before the verifier gives up on an
/// artifact (a corrupt program tends to cascade; the first few findings
/// carry the signal).
const MAX_DIAGNOSTICS: usize = 64;

/// What a register, memory word or PE output symbolically holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Sym {
    /// The literal value `0.0` (reset registers, `ReadSel::Zero`,
    /// zero-parameter inputs, idle PE outputs).
    Zero,
    /// The literal value `1.0` (`ReadSel::One`, unit-parameter inputs).
    One,
    /// The value of program input slot `i` (canonicalised: zero/one
    /// parameters collapse into `Zero`/`One`, and a slot with the source of
    /// an earlier one — the same indicator, or a parameter with the same
    /// bits — into that slot).
    Input(u32),
    /// The value of source op `i` (canonicalised to the first op computing
    /// the same expression, so duplicate subexpressions compare equal).
    Op(u32),
    /// A value the verifier cannot account for.
    Unknown,
}

impl std::fmt::Display for Sym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sym::Zero => write!(f, "0"),
            Sym::One => write!(f, "1"),
            Sym::Input(i) => write!(f, "input {i}"),
            Sym::Op(i) => write!(f, "op {i}"),
            Sym::Unknown => write!(f, "unknown"),
        }
    }
}

/// Structural summary of the op list: canonical symbols per operand and a
/// reverse map from `(kind, operands)` to the canonical op computing it.
struct OpIndex {
    /// Canonical symbol of every input slot.
    input_sym: Vec<Sym>,
    /// Canonical representative of every op (first op computing the same
    /// expression).
    rep: Vec<u32>,
    /// `(kind, unordered operand pair)` → canonical op index.
    by_expr: HashMap<(OpKind, Sym, Sym), u32>,
}

impl OpIndex {
    fn build(ops: &OpList) -> OpIndex {
        // The first slot holding each indicator `(var, value)` or parameter
        // bit pattern.
        let mut first: HashMap<(Option<bool>, u64), u32> = HashMap::new();
        let input_sym: Vec<Sym> = ops
            .inputs()
            .iter()
            .enumerate()
            .map(|(i, leaf)| {
                let key = match leaf {
                    LeafSource::Param(p) if *p == 0.0 => return Sym::Zero,
                    LeafSource::Param(p) if *p == 1.0 => return Sym::One,
                    LeafSource::Param(p) => (None, p.to_bits()),
                    LeafSource::Indicator { var, value } => (Some(*value), u64::from(var.0)),
                };
                Sym::Input(*first.entry(key).or_insert(i as u32))
            })
            .collect();
        let mut rep = Vec::with_capacity(ops.num_ops());
        let mut by_expr = HashMap::new();
        for (i, op) in ops.ops().iter().enumerate() {
            let a = operand_sym(op.lhs, &input_sym, &rep);
            let b = operand_sym(op.rhs, &input_sym, &rep);
            let (lo, hi) = canonical_operands(op.kind, a, b);
            let canonical = *by_expr.entry((op.kind, lo, hi)).or_insert(i as u32);
            rep.push(canonical);
        }
        OpIndex {
            input_sym,
            rep,
            by_expr,
        }
    }

    /// Canonical symbol of an op-list operand reference.
    fn sym(&self, operand: OperandRef) -> Sym {
        operand_sym(operand, &self.input_sym, &self.rep)
    }

    /// The canonical op computing `kind(a, b)`, if the op list contains one.
    fn lookup(&self, kind: OpKind, a: Sym, b: Sym) -> Option<Sym> {
        if a == Sym::Unknown || b == Sym::Unknown {
            return None;
        }
        let (lo, hi) = canonical_operands(kind, a, b);
        self.by_expr.get(&(kind, lo, hi)).map(|&i| Sym::Op(i))
    }
}

/// Canonical operand order for structural matching: commutative kinds sort
/// their operands; the sampler comparator is non-commutative, so its
/// operand order is semantic and preserved.
fn canonical_operands(kind: OpKind, a: Sym, b: Sym) -> (Sym, Sym) {
    if kind == OpKind::Sam || a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn operand_sym(operand: OperandRef, input_sym: &[Sym], rep: &[u32]) -> Sym {
    match operand {
        OperandRef::Input(i) => input_sym.get(i as usize).copied().unwrap_or(Sym::Unknown),
        OperandRef::Op(i) => rep
            .get(i as usize)
            .map(|&r| Sym::Op(r))
            .unwrap_or(Sym::Unknown),
    }
}

fn pe_op_kind(op: PeOp) -> Option<OpKind> {
    match op {
        PeOp::Add => Some(OpKind::Add),
        PeOp::Mul => Some(OpKind::Mul),
        PeOp::Max => Some(OpKind::Max),
        PeOp::Lse => Some(OpKind::LogAdd),
        PeOp::Sam => Some(OpKind::Sam),
        PeOp::Nop | PeOp::PassA | PeOp::PassB => None,
    }
}

/// One queued register-file write with its symbolic value.
struct PendingWrite {
    commit_cycle: u64,
    bank: usize,
    reg: usize,
    value: Sym,
}

/// The symbolic machine state during verification.
struct Machine<'a> {
    program: &'a Program,
    index: &'a OpIndex,
    /// `reg[bank][reg]` — committed register-file contents.
    reg: Vec<Vec<Sym>>,
    /// `mem[row][lane]` — data-memory contents.
    mem: Vec<Vec<Sym>>,
    pending: Vec<PendingWrite>,
    /// Banks whose single write port is booked, per commit cycle.
    write_ports: HashMap<(usize, u64), ()>,
    /// Banks whose single read port is booked this cycle.
    read_ports: Vec<bool>,
    diagnostics: Vec<Diagnostic>,
}

impl<'a> Machine<'a> {
    /// The machine before the first cycle: the data memory holds every
    /// input at its slot, and two slots laid out in one word must hold the
    /// same value (SPN205 otherwise).
    fn new(program: &'a Program, index: &'a OpIndex) -> Machine<'a> {
        let config = &program.config;
        let banks = config.total_banks();
        let mut mem = vec![vec![Sym::Zero; banks]; program.memory_rows_used];
        let mut owner: HashMap<(u32, u16), usize> = HashMap::new();
        let mut diagnostics = Vec::new();
        for (i, slot) in program.input_layout.iter().enumerate() {
            let InputSlot { row, lane } = *slot;
            if (row as usize) < mem.len() && (lane as usize) < banks {
                let value = index.input_sym.get(i).copied().unwrap_or(Sym::Unknown);
                let first = *owner.entry((row, lane)).or_insert(i);
                let word = &mut mem[row as usize][lane as usize];
                if first != i && *word != value {
                    diagnostics.push(Diagnostic::new(
                        "SPN205",
                        Severity::Error,
                        Location::Artifact,
                        format!(
                            "input slots {first} and {i} share row {row} lane {lane} \
                             but hold {} and {value}",
                            *word
                        ),
                    ));
                }
                *word = value;
            }
        }
        Machine {
            program,
            index,
            reg: vec![vec![Sym::Zero; config.regs_per_bank]; banks],
            mem,
            pending: Vec::new(),
            write_ports: HashMap::new(),
            read_ports: vec![false; banks],
            diagnostics,
        }
    }

    fn push(&mut self, code: &'static str, cycle: u64, message: String) {
        if self.diagnostics.len() < MAX_DIAGNOSTICS {
            self.diagnostics.push(Diagnostic::new(
                code,
                Severity::Error,
                Location::Cycle(cycle),
                message,
            ));
        }
    }

    fn saturated(&self) -> bool {
        self.diagnostics.len() >= MAX_DIAGNOSTICS
    }

    /// Applies every pending write committing strictly before `cycle`, in
    /// commit order (port booking already guarantees at most one write per
    /// bank per commit cycle).
    fn commit_ready(&mut self, cycle: u64) {
        let mut ready = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].commit_cycle < cycle {
                ready.push(self.pending.swap_remove(i));
            } else {
                i += 1;
            }
        }
        ready.sort_by_key(|w| w.commit_cycle);
        for w in ready {
            self.reg[w.bank][w.reg] = w.value;
        }
    }

    /// Books the write port of `bank` at `commit_cycle`; reports SPN202 on
    /// a conflict.
    fn book_write_port(&mut self, bank: usize, commit_cycle: u64, cycle: u64) {
        if self.write_ports.insert((bank, commit_cycle), ()).is_some() {
            self.push(
                "SPN202",
                cycle,
                format!("two writes commit to bank {bank} in cycle {commit_cycle}"),
            );
        }
    }

    /// Books the read port of `bank` this cycle; reports SPN203 on a
    /// conflict.
    fn book_read_port(&mut self, bank: usize, cycle: u64) {
        if self.read_ports[bank] {
            self.push(
                "SPN203",
                cycle,
                format!("two reads of bank {bank} in one cycle"),
            );
        }
        self.read_ports[bank] = true;
    }

    /// Reports SPN201 when `(bank, reg)` has an in-flight write (committing
    /// this cycle or later).
    fn check_no_inflight(&mut self, bank: usize, reg: usize, cycle: u64) {
        if self
            .pending
            .iter()
            .any(|w| w.bank == bank && w.reg == reg && w.commit_cycle >= cycle)
        {
            self.push(
                "SPN201",
                cycle,
                format!("read of bank {bank} register {reg} before its write commits"),
            );
        }
    }

    fn enqueue(&mut self, bank: usize, reg: usize, value: Sym, commit_cycle: u64, cycle: u64) {
        self.book_write_port(bank, commit_cycle, cycle);
        self.pending.push(PendingWrite {
            commit_cycle,
            bank,
            reg,
            value,
        });
    }

    fn step(&mut self, cycle: u64) {
        let program = self.program;
        let config = &program.config;
        let banks = config.total_banks();
        let instr = &program.instructions[cycle as usize];
        self.read_ports.iter_mut().for_each(|b| *b = false);
        self.commit_ready(cycle);

        if instr.trees.len() != config.num_trees {
            self.push(
                "SPN205",
                cycle,
                format!(
                    "instruction configures {} trees, processor has {}",
                    instr.trees.len(),
                    config.num_trees
                ),
            );
            return;
        }

        // 1. Memory load: books every bank's write port this cycle.
        if let MemOp::Load { row, reg } = instr.mem {
            if row as usize >= self.program.memory_rows_used {
                self.push(
                    "SPN206",
                    cycle,
                    format!(
                        "load of row {row} beyond the program's {} rows",
                        self.program.memory_rows_used
                    ),
                );
            } else if (reg as usize) < config.regs_per_bank {
                for bank in 0..banks {
                    let value = self.mem[row as usize][bank];
                    self.enqueue(bank, reg as usize, value, cycle, cycle);
                }
            } else {
                self.push(
                    "SPN205",
                    cycle,
                    format!("load into register {reg} out of range"),
                );
            }
        }

        // 2. Crossbar reads and symbolic tree evaluation.
        let mut tree_outputs: Vec<Vec<Vec<Sym>>> = Vec::with_capacity(instr.trees.len());
        for tree_instr in &instr.trees {
            tree_outputs.push(self.eval_tree(tree_instr, cycle));
        }

        // 3. PE write-backs with their pipeline latency.
        for (tree_idx, tree_instr) in instr.trees.iter().enumerate() {
            for w in &tree_instr.writes {
                let (level, pe) = (w.level as usize, w.pe as usize);
                if level >= config.tree_levels || pe >= config.pes_at_level(level) {
                    self.push(
                        "SPN205",
                        cycle,
                        format!("write from non-existent PE level {level} index {pe}"),
                    );
                    continue;
                }
                let position = PePosition {
                    tree: tree_idx,
                    level,
                    index: pe,
                };
                let bank = w.bank as usize;
                if bank >= banks || !config.can_write(position, bank) {
                    self.push(
                        "SPN204",
                        cycle,
                        format!(
                            "tree {tree_idx} level {level} PE {pe} cannot write bank {bank} \
                             (writable span {:?})",
                            config.writable_banks(position)
                        ),
                    );
                    continue;
                }
                if w.reg as usize >= config.regs_per_bank {
                    self.push(
                        "SPN205",
                        cycle,
                        format!("write to register {} out of range", w.reg),
                    );
                    continue;
                }
                let value = tree_outputs[tree_idx]
                    .get(level)
                    .and_then(|l| l.get(pe))
                    .copied()
                    .unwrap_or(Sym::Unknown);
                if value == Sym::Unknown {
                    self.push(
                        "SPN208",
                        cycle,
                        format!(
                            "tree {tree_idx} level {level} PE {pe} writes a value matching \
                             no source operation"
                        ),
                    );
                }
                let commit_cycle = cycle + config.commit_latency(level);
                self.enqueue(bank, w.reg as usize, value, commit_cycle, cycle);
            }
        }

        // 4. Intra-bank copies.
        for copy in &instr.copies {
            let CopyCmd { bank, src, dst } = *copy;
            let (bank, src, dst) = (bank as usize, src as usize, dst as usize);
            if bank >= banks || src >= config.regs_per_bank || dst >= config.regs_per_bank {
                self.push("SPN205", cycle, "copy addresses out of range".to_string());
                continue;
            }
            self.check_no_inflight(bank, src, cycle);
            self.book_read_port(bank, cycle);
            let value = self.reg[bank][src];
            self.enqueue(bank, dst, value, cycle, cycle);
        }

        // 5. Store: reads the whole register row through every bank's port.
        if let MemOp::Store { row, reg } = instr.mem {
            if row as usize >= self.program.memory_rows_used {
                self.push(
                    "SPN206",
                    cycle,
                    format!(
                        "store to row {row} beyond the program's {} rows",
                        self.program.memory_rows_used
                    ),
                );
            } else if (reg as usize) < config.regs_per_bank {
                for bank in 0..banks {
                    self.check_no_inflight(bank, reg as usize, cycle);
                    self.book_read_port(bank, cycle);
                    self.mem[row as usize][bank] = self.reg[bank][reg as usize];
                }
            } else {
                self.push(
                    "SPN205",
                    cycle,
                    format!("store from register {reg} out of range"),
                );
            }
        }
    }

    /// Resolves one tree's crossbar reads and evaluates its PEs
    /// symbolically, returning level-major outputs.
    fn eval_tree(&mut self, tree_instr: &TreeInstr, cycle: u64) -> Vec<Vec<Sym>> {
        let config = &self.program.config;
        let banks = config.total_banks();
        let expected_inputs = config.tree_inputs_per_tree();
        let expected_pes: usize = (0..config.tree_levels)
            .map(|l| config.pes_at_level(l))
            .sum();
        if tree_instr.reads.len() != expected_inputs || tree_instr.pe_ops.len() != expected_pes {
            self.push(
                "SPN205",
                cycle,
                format!(
                    "tree instruction geometry mismatch: {} reads / {} PE opcodes, \
                     expected {expected_inputs} / {expected_pes}",
                    tree_instr.reads.len(),
                    tree_instr.pe_ops.len()
                ),
            );
            return Vec::new();
        }

        let mut inputs = Vec::with_capacity(expected_inputs);
        for sel in &tree_instr.reads {
            let value = match *sel {
                ReadSel::None | ReadSel::Zero => Sym::Zero,
                ReadSel::One => Sym::One,
                ReadSel::Reg { bank, reg } => {
                    let (bank, reg) = (bank as usize, reg as usize);
                    if bank >= banks || reg >= config.regs_per_bank {
                        self.push(
                            "SPN205",
                            cycle,
                            format!("read of bank {bank} register {reg} out of range"),
                        );
                        Sym::Unknown
                    } else {
                        self.check_no_inflight(bank, reg, cycle);
                        self.book_read_port(bank, cycle);
                        self.reg[bank][reg]
                    }
                }
            };
            inputs.push(value);
        }

        let mut levels: Vec<Vec<Sym>> = Vec::with_capacity(config.tree_levels);
        for level in 0..config.tree_levels {
            let count = config.pes_at_level(level);
            let mut outputs = Vec::with_capacity(count);
            for index in 0..count {
                let (a, b) = if level == 0 {
                    (inputs[2 * index], inputs[2 * index + 1])
                } else {
                    let below = &levels[level - 1];
                    (below[2 * index], below[2 * index + 1])
                };
                let flat = TreeInstr::pe_flat_index(config, level, index);
                let value = match tree_instr.pe_ops[flat] {
                    PeOp::Nop => Sym::Zero,
                    PeOp::PassA => a,
                    PeOp::PassB => b,
                    op => {
                        let kind = pe_op_kind(op).expect("arithmetic op");
                        self.index.lookup(kind, a, b).unwrap_or(Sym::Unknown)
                    }
                };
                outputs.push(value);
            }
            levels.push(outputs);
        }
        levels
    }

    /// The committed symbol at a result location after the pipeline drains.
    fn location_value(&self, location: ValueLocation) -> Sym {
        match location {
            ValueLocation::Register { bank, reg } => self
                .reg
                .get(bank as usize)
                .and_then(|b| b.get(reg as usize))
                .copied()
                .unwrap_or(Sym::Unknown),
            ValueLocation::Memory { row, lane } => self
                .mem
                .get(row as usize)
                .and_then(|r| r.get(lane as usize))
                .copied()
                .unwrap_or(Sym::Unknown),
        }
    }
}

/// Translation-validates one emitted program against its source op list:
/// symbolic re-execution under the processor's hazard, port and
/// connectivity rules, then an end-state check that the output location
/// holds the op list's output value.
///
/// Returns every finding; an empty vector means the schedule is verified.
pub fn verify_program(program: &Program, ops: &OpList) -> Vec<Diagnostic> {
    let index = OpIndex::build(ops);
    let mut machine = Machine::new(program, &index);

    if program.input_layout.len() != ops.num_inputs() {
        machine.diagnostics.push(Diagnostic::new(
            "SPN205",
            Severity::Error,
            Location::Artifact,
            format!(
                "program lays out {} inputs, op list has {}",
                program.input_layout.len(),
                ops.num_inputs()
            ),
        ));
    }

    for cycle in 0..program.instructions.len() as u64 {
        machine.step(cycle);
        if machine.saturated() {
            return machine.diagnostics;
        }
    }
    // Drain the pipeline.
    machine.commit_ready(u64::MAX);

    let expected = index.sym(ops.output());
    let actual = machine.location_value(program.output);
    if actual != expected || expected == Sym::Unknown {
        machine.diagnostics.push(Diagnostic::new(
            "SPN207",
            Severity::Error,
            Location::Artifact,
            format!(
                "output location holds {actual}, expected {expected} \
                 (the op list's output)"
            ),
        ));
    }
    machine.diagnostics
}

/// Verifies a compiled artifact: the schedule ([`verify_program`]) plus a
/// soundness check of the [`ConeAnalysis`] of its op list — what a session
/// over this program would replay from — against an independently
/// recomputed forward reachability sweep (`SPN303`).
pub fn verify_artifact(artifact: &CompiledArtifact) -> Vec<Diagnostic> {
    let mut diagnostics = verify_program(&artifact.program, &artifact.op_list);
    diagnostics.extend(verify_cones(artifact));
    diagnostics
}

/// Recomputes per-variable reachability with a plain forward marking sweep
/// and compares it to the [`ConeAnalysis`] of the artifact's op list.
fn verify_cones(artifact: &CompiledArtifact) -> Vec<Diagnostic> {
    let ops = &artifact.op_list;
    let cones = ConeAnalysis::from_op_list(ops);
    let mut diagnostics = Vec::new();
    for var in 0..ops.num_vars() {
        let mut input_dirty = vec![false; ops.num_inputs()];
        for (i, leaf) in ops.inputs().iter().enumerate() {
            if let LeafSource::Indicator { var: v, .. } = leaf {
                if v.0 as usize == var {
                    input_dirty[i] = true;
                }
            }
        }
        let mut op_dirty = vec![false; ops.num_ops()];
        let mut expected = Vec::new();
        for (i, op) in ops.ops().iter().enumerate() {
            let touched = |r: OperandRef| match r {
                OperandRef::Input(k) => input_dirty[k as usize],
                OperandRef::Op(k) => op_dirty[k as usize],
            };
            if touched(op.lhs) || touched(op.rhs) {
                op_dirty[i] = true;
                expected.push(i as u32);
            }
        }
        if cones.cone(var) != expected.as_slice() {
            diagnostics.push(Diagnostic::new(
                "SPN303",
                Severity::Error,
                Location::Input(var as u32),
                format!(
                    "cone of variable {var} disagrees with recomputed reachability \
                     ({} vs {} ops)",
                    cones.cone(var).len(),
                    expected.len()
                ),
            ));
        }
    }
    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compiler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spn_core::random::{random_spn, RandomSpnConfig};
    use spn_core::Evidence;
    use spn_processor::isa::WriteCmd;
    use spn_processor::{PePosition, Processor, ProcessorConfig, ProcessorError};

    #[test]
    fn compiled_programs_verify_clean() {
        let mut rng = StdRng::seed_from_u64(21);
        for vars in [4, 8, 14] {
            let spn = random_spn(&RandomSpnConfig::with_vars(vars), &mut rng);
            let compiled = Compiler::new(ProcessorConfig::ptree())
                .compile(&spn)
                .unwrap();
            let diags = verify_artifact(&compiled);
            assert!(diags.is_empty(), "vars={vars}: {diags:?}");
        }
    }

    #[test]
    fn vector_configuration_verifies_clean() {
        let mut rng = StdRng::seed_from_u64(22);
        let spn = random_spn(&RandomSpnConfig::with_vars(10), &mut rng);
        let compiled = Compiler::new(ProcessorConfig::pvect())
            .compile(&spn)
            .unwrap();
        assert!(verify_artifact(&compiled).is_empty());
    }

    /// A compiled program whose root write-back gets a second destination
    /// `second(span, first_bank)` at the last register of that bank; returns
    /// it with its op list and that second home.
    fn with_second_root_write(
        second: impl Fn(std::ops::Range<usize>, usize) -> usize,
    ) -> (Program, OpList, ValueLocation) {
        let spn = random_spn(
            &RandomSpnConfig::with_vars(6),
            &mut StdRng::seed_from_u64(24),
        );
        let ops = OpList::from_spn(&spn);
        let config = ProcessorConfig::ptree();
        let compiled = Compiler::new(config.clone())
            .compile_op_list(ops.clone())
            .unwrap();
        let mut program: Program = (*compiled.program).clone();
        let ValueLocation::Register { bank, reg } = program.output else {
            panic!("the root is register resident");
        };
        let (cycle, tree, root) = program
            .instructions
            .iter()
            .enumerate()
            .rev()
            .find_map(|(cycle, instr)| {
                instr.trees.iter().enumerate().find_map(|(t, tree)| {
                    let w = tree
                        .writes
                        .iter()
                        .find(|w| (w.bank, w.reg) == (bank, reg))?;
                    Some((cycle, t, *w))
                })
            })
            .unwrap();
        let span = config.writable_banks(PePosition {
            tree,
            level: root.level.into(),
            index: root.pe.into(),
        });
        let extra = WriteCmd {
            bank: second(span, bank.into()) as u16,
            reg: (config.regs_per_bank - 1) as u16,
            ..root
        };
        program.instructions[cycle].trees[tree].writes.push(extra);
        let home = ValueLocation::Register {
            bank: extra.bank,
            reg: extra.reg,
        };
        (program, ops, home)
    }

    #[test]
    fn a_root_written_to_two_banks_of_its_span_verifies_clean() {
        let (mut program, ops, second) =
            with_second_root_write(|span, first| span.into_iter().find(|&b| b != first).unwrap());
        let processor = Processor::new(program.config.clone()).unwrap();
        let inputs = ops.input_values(&Evidence::marginal(6)).unwrap();
        // Each home in turn as the output: both verify and both hold the root.
        let mut outputs = Vec::new();
        for home in [program.output, second] {
            program.output = home;
            assert!(verify_program(&program, &ops).is_empty(), "{home:?}");
            outputs.push(processor.run(&program, &inputs).unwrap().output.to_bits());
        }
        assert_eq!(outputs[0], outputs[1], "both homes hold the root");
    }

    #[test]
    fn a_second_root_write_outside_the_span_or_into_its_bank_is_caught() {
        let codes = |program: &Program, ops: &OpList| -> Vec<&str> {
            let diags = verify_program(program, ops);
            diags.iter().map(|d| d.code).collect()
        };
        let processor = Processor::new(ProcessorConfig::ptree()).unwrap();

        let (outside, ops, _) =
            with_second_root_write(|span, _| (0..32).find(|b| !span.contains(b)).unwrap());
        assert!(codes(&outside, &ops).contains(&"SPN204"));
        assert!(matches!(
            processor.check(&outside),
            Err(ProcessorError::IllegalWriteBank { .. })
        ));

        let (same_bank, ops, _) = with_second_root_write(|_, first| first);
        assert!(codes(&same_bank, &ops).contains(&"SPN202"));
        assert!(matches!(
            processor.check(&same_bank),
            Err(ProcessorError::WritePortConflict { .. })
        ));
    }
}
