//! The custom VLIW instruction set of the SPN processor.
//!
//! One [`Instruction`] configures the whole datapath for one clock cycle:
//! the crossbar read selections and PE opcodes of every tree, the register
//! write-backs of PE outputs, optional intra-bank register copies, and at
//! most one vectorised data-memory operation.
//!
//! A [`Program`] couples the instruction stream with the data-memory layout
//! of the program inputs (indicator values and parameters of the flattened
//! SPN) and the location where the result can be found after the final
//! cycle, so the same program can be re-run for different evidence by
//! rebuilding the input image only.

use serde::{Deserialize, Serialize};

use crate::config::ProcessorConfig;
use crate::perf::PerfReport;
use crate::precision::Precision;

/// Source selection for one crossbar-fed input of a PE tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ReadSel {
    /// The input is unused this cycle (drives zero).
    #[default]
    None,
    /// Read register `reg` of global bank `bank`.
    Reg {
        /// Global bank index.
        bank: u16,
        /// Register index within the bank.
        reg: u16,
    },
    /// Drive the constant `0.0` (does not use a read port).
    Zero,
    /// Drive the constant `1.0` (does not use a read port).
    One,
}

/// Operation performed by one processing element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PeOp {
    /// The PE is idle; its output is zero.
    #[default]
    Nop,
    /// Output = left input + right input.
    Add,
    /// Output = left input × right input.
    Mul,
    /// Output = max(left input, right input) — sum nodes of max-product
    /// (MAP/MPE) programs.
    Max,
    /// Output = log-sum-exp of the inputs (`ln(e^a + e^b)`) — sum nodes of
    /// log-domain programs, where products are executed as `Add` and
    /// probability zero is `-inf`.
    Lse,
    /// Output = `1.0` when left input < right input, else `0.0` — the
    /// sampler comparator (a uniform draw against a CDF threshold, the core
    /// step of a Knuth-Yao-style discrete sampler PE).  Non-commutative:
    /// the left input is the draw, the right the threshold.
    Sam,
    /// Output = left input (forwarding).
    PassA,
    /// Output = right input (forwarding).
    PassB,
}

impl PeOp {
    /// Returns `true` for `Add`/`Mul`/`Max`/`Lse`/`Sam`, the operations
    /// counted as SPN work.
    pub(crate) fn is_arithmetic(self) -> bool {
        matches!(
            self,
            PeOp::Add | PeOp::Mul | PeOp::Max | PeOp::Lse | PeOp::Sam
        )
    }
}

/// Write-back of one PE output to the register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WriteCmd {
    /// Level of the producing PE (0 = crossbar-fed level).
    pub level: u8,
    /// Index of the producing PE within its level.
    pub pe: u8,
    /// Destination global bank.
    pub bank: u16,
    /// Destination register within the bank.
    pub reg: u16,
}

/// Per-cycle configuration of one PE tree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct TreeInstr {
    /// Crossbar selections, one per tree input (`2 × leaf PEs` entries).
    pub reads: Vec<ReadSel>,
    /// PE opcodes, level-major: all level-0 PEs, then level 1, and so on.
    pub pe_ops: Vec<PeOp>,
    /// Register write-backs of PE outputs issued this cycle.
    pub writes: Vec<WriteCmd>,
}

impl TreeInstr {
    /// An all-idle tree instruction sized for `config`.
    pub(crate) fn nop(config: &ProcessorConfig) -> Self {
        let num_pes: usize = (0..config.tree_levels)
            .map(|l| config.pes_at_level(l))
            .sum();
        TreeInstr {
            reads: vec![ReadSel::None; config.tree_inputs_per_tree()],
            pe_ops: vec![PeOp::Nop; num_pes],
            writes: Vec::new(),
        }
    }

    /// Returns `true` when the tree does nothing this cycle.
    pub(crate) fn is_nop(&self) -> bool {
        self.writes.is_empty() && self.pe_ops.iter().all(|&op| op == PeOp::Nop)
    }

    /// Number of arithmetic (add/mul) operations issued on this tree.
    pub(crate) fn arithmetic_ops(&self) -> usize {
        self.pe_ops.iter().filter(|op| op.is_arithmetic()).count()
    }

    /// Flat index of the PE at `(level, index)` in [`TreeInstr::pe_ops`].
    pub fn pe_flat_index(config: &ProcessorConfig, level: usize, index: usize) -> usize {
        (0..level).map(|l| config.pes_at_level(l)).sum::<usize>() + index
    }
}

/// Copy of a register to another register of the same bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CopyCmd {
    /// Bank the copy happens in.
    pub bank: u16,
    /// Source register.
    pub src: u16,
    /// Destination register.
    pub dst: u16,
}

/// Vectorised data-memory operation (at most one per cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum MemOp {
    /// No memory traffic this cycle.
    #[default]
    None,
    /// Load data-memory row `row` into register `reg` of every bank.
    Load {
        /// Source row address.
        row: u32,
        /// Destination register index (same in every bank).
        reg: u16,
    },
    /// Store register `reg` of every bank into data-memory row `row`.
    Store {
        /// Destination row address.
        row: u32,
        /// Source register index (same in every bank).
        reg: u16,
    },
}

/// One VLIW instruction: the datapath configuration for one clock cycle.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Instruction {
    /// Per-tree configuration (one entry per PE tree).
    pub trees: Vec<TreeInstr>,
    /// Intra-bank register copies.
    pub copies: Vec<CopyCmd>,
    /// The cycle's data-memory operation.
    pub mem: MemOp,
}

impl Instruction {
    /// An instruction that does nothing, sized for `config`.
    pub fn nop(config: &ProcessorConfig) -> Self {
        Instruction {
            trees: (0..config.num_trees)
                .map(|_| TreeInstr::nop(config))
                .collect(),
            copies: Vec::new(),
            mem: MemOp::None,
        }
    }

    /// Returns `true` when the whole instruction is a no-op (a stall cycle).
    pub fn is_nop(&self) -> bool {
        self.trees.iter().all(TreeInstr::is_nop)
            && self.copies.is_empty()
            && self.mem == MemOp::None
    }

    /// Total arithmetic operations issued by this instruction.
    pub fn arithmetic_ops(&self) -> usize {
        self.trees.iter().map(TreeInstr::arithmetic_ops).sum()
    }
}

/// Where a value lives after the program has finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValueLocation {
    /// In register `reg` of global bank `bank`.
    Register {
        /// Global bank index.
        bank: u16,
        /// Register index.
        reg: u16,
    },
    /// In lane `lane` of data-memory row `row`.
    Memory {
        /// Data-memory row.
        row: u32,
        /// Lane (bank column) within the row.
        lane: u16,
    },
}

/// Placement of one program input inside the data memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InputSlot {
    /// Data-memory row holding the input.
    pub row: u32,
    /// Lane (bank column) within the row.
    pub lane: u16,
}

/// A compiled program for the SPN processor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// The configuration the program was compiled for.
    pub config: ProcessorConfig,
    /// Instruction stream, one instruction per cycle.
    pub instructions: Vec<Instruction>,
    /// Data-memory placement of each flattened-program input, indexed by the
    /// input's position in the originating `OpList`.  Inputs that hold the
    /// same value — the same indicator, or a parameter with the same bits —
    /// may share one word: the host still writes every input to its word,
    /// so a shared word receives the same bits from each of its inputs.
    pub input_layout: Vec<InputSlot>,
    /// Number of data-memory rows the program uses (inputs + spill space).
    pub memory_rows_used: usize,
    /// Where the SPN root value can be read after the last cycle.
    pub output: ValueLocation,
    /// Number of SPN arithmetic operations the program computes (for
    /// throughput reporting; equals the flattened op count).
    pub num_source_ops: usize,
    /// The emulated arithmetic format of the PE datapath: every PE result is
    /// quantized to this precision before write-back (see
    /// `tree::apply_pe`).  [`Precision::F64`] executes bit-for-bit
    /// like the pre-existing full-precision simulator.
    pub pe_precision: Precision,
}

impl Program {
    /// Number of instructions (= cycles of issue; the pipeline drain adds a
    /// few more cycles at run time).
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Returns `true` when the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The performance counters of one inference pass: the one place they
    /// are counted.  The processor is statically scheduled — no latency, bank
    /// or port depends on data — so they are fixed when the program is
    /// emitted, as its legality is ([`crate::Processor::check`]); the value
    /// replay only computes values.
    ///
    /// A pass takes one cycle per instruction plus the pipeline drain: a PE
    /// write issued in cycle `t` at level `l` commits in cycle
    /// `t + commit_latency(l)` (loads and copies commit in their issue
    /// cycle).  Operand reads are register reads by the crossbar, by copies
    /// and by stores (every bank); write-backs are PE writes and copies.
    pub fn perf(&self) -> PerfReport {
        let mut perf = PerfReport {
            platform: self.config.name.clone(),
            queries: 1,
            source_ops: self.num_source_ops as u64,
            instructions: self.len() as u64,
            cycles: self.len() as u64,
            ..Default::default()
        };
        for (cycle, instr) in self.instructions.iter().enumerate() {
            perf.stall_cycles += u64::from(instr.is_nop());
            perf.issued_ops += instr.arithmetic_ops() as u64;
            for tree in &instr.trees {
                for sel in &tree.reads {
                    perf.operand_reads += u64::from(matches!(sel, ReadSel::Reg { .. }));
                }
                perf.writebacks += tree.writes.len() as u64;
                for w in &tree.writes {
                    let commit = cycle as u64 + self.config.commit_latency(w.level as usize);
                    perf.cycles = perf.cycles.max(commit + 1);
                }
            }
            perf.operand_reads += instr.copies.len() as u64;
            perf.writebacks += instr.copies.len() as u64;
            match instr.mem {
                MemOp::None => {}
                MemOp::Load { .. } => perf.memory_loads += 1,
                MemOp::Store { .. } => {
                    perf.memory_stores += 1;
                    perf.operand_reads += self.config.total_banks() as u64;
                }
            }
        }
        perf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_instruction_is_detected() {
        let cfg = ProcessorConfig::ptree();
        let instr = Instruction::nop(&cfg);
        assert!(instr.is_nop());
        assert_eq!(instr.arithmetic_ops(), 0);
        assert_eq!(instr.trees.len(), 2);
        assert_eq!(instr.trees[0].reads.len(), 16);
        assert_eq!(instr.trees[0].pe_ops.len(), 15);
    }

    #[test]
    fn pe_flat_index_is_level_major() {
        let cfg = ProcessorConfig::ptree();
        assert_eq!(TreeInstr::pe_flat_index(&cfg, 0, 0), 0);
        assert_eq!(TreeInstr::pe_flat_index(&cfg, 0, 7), 7);
        assert_eq!(TreeInstr::pe_flat_index(&cfg, 1, 0), 8);
        assert_eq!(TreeInstr::pe_flat_index(&cfg, 2, 1), 13);
        assert_eq!(TreeInstr::pe_flat_index(&cfg, 3, 0), 14);
    }

    #[test]
    fn arithmetic_ops_counts_add_and_mul_only() {
        let cfg = ProcessorConfig::pvect();
        let mut instr = Instruction::nop(&cfg);
        instr.trees[0].pe_ops[0] = PeOp::Add;
        instr.trees[0].pe_ops[1] = PeOp::Mul;
        instr.trees[0].pe_ops[2] = PeOp::PassA;
        instr.trees[1].pe_ops[0] = PeOp::Mul;
        assert_eq!(instr.arithmetic_ops(), 3);
        assert!(!instr.is_nop());
    }

    #[test]
    fn perf_counts_issue_slots_drain_and_traffic() {
        let config = ProcessorConfig::ptree();
        let reg = |bank| ReadSel::Reg { bank, reg: 0 };
        let mut load = Instruction::nop(&config);
        load.mem = MemOp::Load { row: 0, reg: 0 };
        // (a + b) × (c + d): four register reads, three ops, one write that
        // commits one cycle after issue.
        let mut compute = Instruction::nop(&config);
        for bank in 0..4 {
            compute.trees[0].reads[bank] = reg(bank as u16);
        }
        compute.trees[0].reads[4] = ReadSel::One;
        compute.trees[0].pe_ops[0] = PeOp::Add;
        compute.trees[0].pe_ops[1] = PeOp::Add;
        compute.trees[0].pe_ops[8] = PeOp::Mul;
        compute.trees[0].writes.push(WriteCmd {
            level: 1,
            pe: 0,
            bank: 0,
            reg: 1,
        });
        let mut copy = Instruction::nop(&config);
        copy.copies.push(CopyCmd {
            bank: 2,
            src: 0,
            dst: 7,
        });
        let mut store = Instruction::nop(&config);
        store.mem = MemOp::Store { row: 1, reg: 1 };
        // A forwarded value written from the tree root in the last issue
        // slot: the pass drains three cycles past it.
        let mut forward = Instruction::nop(&config);
        forward.trees[1].reads[0] = reg(16);
        for flat in [0, 8, 12, 14] {
            forward.trees[1].pe_ops[flat] = PeOp::PassA;
        }
        forward.trees[1].writes.push(WriteCmd {
            level: 3,
            pe: 0,
            bank: 16,
            reg: 2,
        });
        let program = Program {
            instructions: vec![
                load,
                compute,
                Instruction::nop(&config),
                copy,
                store,
                forward,
            ],
            input_layout: Vec::new(),
            memory_rows_used: 2,
            output: ValueLocation::Register { bank: 16, reg: 2 },
            num_source_ops: 3,
            pe_precision: Precision::F64,
            config,
        };
        assert_eq!(
            program.perf(),
            PerfReport {
                platform: "Ptree".to_string(),
                queries: 1,
                cycles: 5 + 3 + 1,
                source_ops: 3,
                issued_ops: 3,
                instructions: 6,
                stall_cycles: 1,
                memory_loads: 1,
                memory_stores: 1,
                writebacks: 3,
                operand_reads: 4 + 1 + 32 + 1,
            }
        );
    }

    #[test]
    fn default_read_sel_is_none() {
        assert_eq!(ReadSel::default(), ReadSel::None);
        assert_eq!(PeOp::default(), PeOp::Nop);
        assert_eq!(MemOp::default(), MemOp::None);
    }
}
