//! Bit-level pins of the programs the compiler emits.
//!
//! `tests/figures.rs` pins the *counters* of eight programs; this pins the
//! *bits* of every program shape the scheduler produces for the paper's
//! circuits: each instruction's crossbar reads, PE opcodes, write-backs,
//! copies and memory operation, plus the input layout, the output and export
//! locations and the data-memory rows used.  A refactor of the scheduler
//! must leave every constant alone; a change of scheduling policy moves them
//! on purpose and re-records them (run with `--nocapture` for the table).

use rand::rngs::StdRng;
use rand::SeedableRng;
use spn_accel::compiler::{Compiler, CompilerOptions};
use spn_accel::core::flatten::OpList;
use spn_accel::core::random::{random_spn, RandomSpnConfig};
use spn_accel::learn::Benchmark;
use spn_accel::processor::isa::{MemOp, PeOp, Program, ReadSel, ValueLocation};
use spn_accel::processor::{ProcessorConfig, TransferSource};

/// 64-bit FNV-1a over a stream of integers (eight little-endian bytes each).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words<const N: usize>(&mut self, values: [u64; N]) {
        for value in values {
            self.word(value);
        }
    }

    fn location(&mut self, location: ValueLocation) {
        match location {
            ValueLocation::Register { bank, reg } => self.words([0, bank.into(), reg.into()]),
            ValueLocation::Memory { row, lane } => self.words([1, row.into(), lane.into()]),
        }
    }

    fn program(&mut self, program: &Program) {
        self.word(program.instructions.len() as u64);
        for instruction in &program.instructions {
            self.word(instruction.trees.len() as u64);
            for tree in &instruction.trees {
                self.word(tree.reads.len() as u64);
                for read in &tree.reads {
                    match *read {
                        ReadSel::None => self.word(0),
                        ReadSel::Reg { bank, reg } => self.words([1, bank.into(), reg.into()]),
                        ReadSel::Zero => self.word(2),
                        ReadSel::One => self.word(3),
                    }
                }
                self.word(tree.pe_ops.len() as u64);
                for op in &tree.pe_ops {
                    self.word(match op {
                        PeOp::Nop => 0,
                        PeOp::Add => 1,
                        PeOp::Mul => 2,
                        PeOp::Max => 3,
                        PeOp::Lse => 4,
                        PeOp::Sam => 5,
                        PeOp::PassA => 6,
                        PeOp::PassB => 7,
                    });
                }
                self.word(tree.writes.len() as u64);
                for w in &tree.writes {
                    self.words([w.level.into(), w.pe.into(), w.bank.into(), w.reg.into()]);
                }
            }
            self.word(instruction.copies.len() as u64);
            for c in &instruction.copies {
                self.words([c.bank.into(), c.src.into(), c.dst.into()]);
            }
            match instruction.mem {
                MemOp::None => self.word(0),
                MemOp::Load { row, reg } => self.words([1, row.into(), reg.into()]),
                MemOp::Store { row, reg } => self.words([2, row.into(), reg.into()]),
            }
        }
        self.word(program.input_layout.len() as u64);
        for slot in &program.input_layout {
            self.words([slot.row.into(), slot.lane.into()]);
        }
        self.location(program.output);
        self.word(program.exports.len() as u64);
        for &export in &program.exports {
            self.location(export);
        }
        self.word(program.memory_rows_used as u64);
    }
}

fn single(compiler: &Compiler, ops: OpList) -> u64 {
    let artifact = compiler.compile_op_list(ops).expect("compiles");
    let mut h = Fnv::new();
    h.program(&artifact.program);
    h.0
}

/// Every stage's program and the transfer sources wiring the stages.
fn partitioned(compiler: &Compiler, ops: OpList, cores: usize) -> u64 {
    let artifact = compiler.compile_partitioned(ops, cores).expect("compiles");
    let mut h = Fnv::new();
    h.word(artifact.parts.stages.len() as u64);
    for stage in &artifact.parts.stages {
        h.program(&stage.program);
        h.word(stage.inputs.len() as u64);
        for source in &stage.inputs {
            match *source {
                TransferSource::Input(i) => h.words([0, i.into()]),
                TransferSource::Core { core, export } => h.words([1, core.into(), export.into()]),
            }
        }
    }
    h.0
}

/// Recorded at commit 9e90153, the parent of the scheduler's one-table
/// refactor.  The four Chow-Liu circuits (Netflix, BBC, Bio response, Audio)
/// and the spilling random program re-recorded when values that several
/// tiles read got a second register home; the LearnSPN circuits are trees,
/// where every value has one reader tile, and kept their programs.  Every
/// row but Banknote's re-recorded when slots holding the same indicator or
/// parameter began to share a data-memory word (the input layout is part of
/// the fingerprint); Banknote's 26 inputs fill one row, where nothing
/// shares.  The spilling random program, whose six-register file leaves no
/// window to share in, moved with the forwarding-copy bank fix.
const PINNED: &[(&str, u64)] = &[
    ("Netflix/Ptree", 0xa75022b9c6f18544),
    ("Netflix/Pvect", 0xa7737b4fe7d00950),
    ("BBC/Ptree", 0xf6edbead40cc12ae),
    ("BBC/Pvect", 0xce3e53f18b8cc266),
    ("Bio response/Ptree", 0x3bfc4cc6de9ca68f),
    ("Bio response/Pvect", 0xb749027d3f247d21),
    ("Audio/Ptree", 0x4ed6dca1b3ce4b1c),
    ("Audio/Pvect", 0xb65eca8b1b0e0318),
    ("CPU/Ptree", 0x86bfd77b22e5334d),
    ("CPU/Pvect", 0x1fa1852800507b7a),
    ("MSNBC/Ptree", 0x269a0f29dc69a7dd),
    ("MSNBC/Pvect", 0x8a7f8babbd700c09),
    ("MSNBC/Ptree/2-stage", 0x79c689ab5e7f9db9),
    ("MSNBC/Ptree/4-stage", 0xd89ffdd44aa58801),
    ("MSNBC/Ptree/log", 0x597e43f0ea00f664),
    ("MSNBC/Ptree/max-product", 0x739d06ac31c2ae0f),
    ("EEG-eye/Ptree", 0xa49ef75ae0284b4f),
    ("EEG-eye/Pvect", 0xebe719a0b93ed30a),
    ("KDDCup2k/Ptree", 0x74500cf02e31dd81),
    ("KDDCup2k/Pvect", 0x5da08c4c78801c95),
    ("KDDCup2k/Ptree/2-stage", 0x4fd8bc1937cf13f4),
    ("KDDCup2k/Ptree/4-stage", 0x0b86187b49e2773f),
    ("Banknote/Ptree", 0x73d6188082c6c21e),
    ("Banknote/Pvect", 0x80bc5d964fa19019),
    ("random48/tiny-regs/depth-2", 0x89b5094fe2824152),
];

#[test]
fn emitted_programs_are_those_of_the_recorded_commit() {
    let ptree = Compiler::new(ProcessorConfig::ptree());
    let pvect = Compiler::new(ProcessorConfig::pvect());
    let mut got: Vec<(String, u64)> = Vec::new();
    for benchmark in Benchmark::all() {
        let ops = OpList::from_spn(&benchmark.spn());
        let name = benchmark.name();
        got.push((format!("{name}/Ptree"), single(&ptree, ops.clone())));
        got.push((format!("{name}/Pvect"), single(&pvect, ops.clone())));
        if matches!(benchmark, Benchmark::Msnbc | Benchmark::KddCup2k) {
            for cores in [2, 4] {
                got.push((
                    format!("{name}/Ptree/{cores}-stage"),
                    partitioned(&ptree, ops.clone(), cores),
                ));
            }
        }
        if benchmark == Benchmark::Msnbc {
            got.push((
                format!("{name}/Ptree/log"),
                single(&ptree, ops.to_log_domain()),
            ));
            got.push((
                format!("{name}/Ptree/max-product"),
                single(&ptree, ops.to_max_product()),
            ));
        }
    }

    // The spilling program of the scheduler's own
    // `tiny_register_file_forces_extra_memory_traffic_but_stays_correct`.
    let mut tiny = ProcessorConfig::ptree();
    tiny.regs_per_bank = 6;
    let spn = random_spn(
        &RandomSpnConfig::with_vars(48),
        &mut StdRng::seed_from_u64(31),
    );
    let options = CompilerOptions {
        max_tile_depth: Some(2),
    };
    let spilling = Compiler::with_options(tiny, options)
        .compile(&spn)
        .expect("compiles");
    assert!(spilling.report.memory_stores > 0, "{}", spilling.report);
    let mut h = Fnv::new();
    h.program(&spilling.program);
    got.push(("random48/tiny-regs/depth-2".to_string(), h.0));

    for (name, fingerprint) in &got {
        println!("    (\"{name}\", {fingerprint:#018x}),");
    }
    assert_eq!(got.len(), PINNED.len(), "a pinned case was added or lost");
    for ((name, fingerprint), (pinned_name, pinned)) in got.iter().zip(PINNED) {
        assert_eq!(name, pinned_name);
        assert_eq!(
            fingerprint, pinned,
            "{name}: the emitted program differs from the recorded one"
        );
    }
}
