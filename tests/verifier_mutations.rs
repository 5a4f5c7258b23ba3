//! Mutation coverage for the schedule verifier (`spn_compiler::verify`).
//!
//! The verifier translation-validates emitted VLIW programs independently of
//! the scheduler, so its value is exactly "a corrupted program cannot slip
//! through".  Each test here corrupts a real compiled program in one
//! specific way — swap an op, drop a write, clobber a register destination,
//! point a load out of bounds, skew a partition's external input slot, lay
//! an input out in a word holding another value — and asserts the verifier
//! rejects it with the documented diagnostic code.  A
//! final randomized sweep checks the translation-validation contract
//! directly against the simulator: any mutation that changes (or crashes)
//! real execution must be flagged.  The same sweep, widened, pins the
//! simulator's own contract: whether it accepts a program
//! (`Processor::check`) does not depend on the data streamed through it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spn_compiler::{verify_partitioned, verify_program, Compiler};
use spn_core::analysis::Diagnostic;
use spn_core::flatten::{LeafSource, OpList};
use spn_core::random::{random_spn, RandomSpnConfig};
use spn_core::{Evidence, NodeId, SpnBuilder, VarId};
use spn_processor::isa::CopyCmd;
use spn_processor::{
    CheckedProgram, MemOp, MultiCoreConfig, MultiCoreProcessor, PeOp, Processor, ProcessorConfig,
    Program, ReadSel, SimState, TransferSource,
};

fn artifact(vars: usize, seed: u64) -> spn_compiler::CompiledArtifact {
    let spn = random_spn(
        &RandomSpnConfig::with_vars(vars),
        &mut StdRng::seed_from_u64(seed),
    );
    Compiler::new(ProcessorConfig::ptree())
        .compile(&spn)
        .expect("benchmark circuit compiles")
}

fn codes(diagnostics: &[Diagnostic]) -> Vec<&'static str> {
    diagnostics.iter().map(|d| d.code).collect()
}

/// The set of codes a data-corrupting mutation may legitimately surface as:
/// the wrong value is either traced to a symbol mismatch at the end
/// (`SPN207`), an expression no source op computes (`SPN208`), or — when the
/// mutation perturbs timing-sensitive access — a hazard code.
const DATA_CORRUPTION_CODES: [&str; 4] = ["SPN201", "SPN202", "SPN207", "SPN208"];

fn assert_caught(diagnostics: &[Diagnostic], expected: &[&str], what: &str) {
    assert!(
        !diagnostics.is_empty(),
        "{what}: mutation not caught by the verifier"
    );
    let found = codes(diagnostics);
    assert!(
        found.iter().any(|c| expected.contains(c)),
        "{what}: expected one of {expected:?}, got {found:?}"
    );
}

#[test]
fn pristine_program_verifies_clean() {
    let art = artifact(10, 9);
    assert_eq!(
        codes(&verify_program(&art.program, &art.op_list, &[])),
        Vec::<&str>::new()
    );
}

#[test]
fn swapped_op_is_caught() {
    let art = artifact(10, 9);
    let mut program = Program::clone(&art.program);
    let mut swapped = false;
    'outer: for instr in &mut program.instructions {
        for tree in &mut instr.trees {
            for op in &mut tree.pe_ops {
                match *op {
                    PeOp::Add => {
                        *op = PeOp::Mul;
                        swapped = true;
                        break 'outer;
                    }
                    PeOp::Mul => {
                        *op = PeOp::Add;
                        swapped = true;
                        break 'outer;
                    }
                    _ => {}
                }
            }
        }
    }
    assert!(swapped, "program contains no arithmetic op to swap");
    let diagnostics = verify_program(&program, &art.op_list, &[]);
    assert_caught(&diagnostics, &DATA_CORRUPTION_CODES, "swapped op");
}

#[test]
fn dropped_write_is_caught() {
    let art = artifact(10, 9);
    let mut program = Program::clone(&art.program);
    let mut dropped = false;
    'outer: for instr in program.instructions.iter_mut().rev() {
        for tree in &mut instr.trees {
            if tree.writes.pop().is_some() {
                dropped = true;
                break 'outer;
            }
        }
    }
    assert!(dropped, "program contains no write to drop");
    let diagnostics = verify_program(&program, &art.op_list, &[]);
    assert_caught(&diagnostics, &DATA_CORRUPTION_CODES, "dropped write");
}

#[test]
fn clobbered_register_is_caught() {
    let art = artifact(10, 9);
    let mut program = Program::clone(&art.program);
    let regs = program.config.regs_per_bank as u16;
    let mut clobbered = false;
    'outer: for instr in &mut program.instructions {
        for tree in &mut instr.trees {
            if let Some(write) = tree.writes.first_mut() {
                write.reg = (write.reg + 1) % regs;
                clobbered = true;
                break 'outer;
            }
        }
    }
    assert!(clobbered, "program contains no write to redirect");
    let diagnostics = verify_program(&program, &art.op_list, &[]);
    assert_caught(&diagnostics, &DATA_CORRUPTION_CODES, "clobbered register");
}

#[test]
fn out_of_range_load_is_caught() {
    let art = artifact(10, 9);
    let mut program = Program::clone(&art.program);
    let rows = program.config.data_memory_rows as u32;
    let mut skewed = false;
    for instr in &mut program.instructions {
        if let MemOp::Load { row, .. } = &mut instr.mem {
            *row = rows + 7;
            skewed = true;
            break;
        }
    }
    assert!(skewed, "program contains no load to skew");
    let diagnostics = verify_program(&program, &art.op_list, &[]);
    assert_caught(&diagnostics, &["SPN206"], "out-of-range load");
}

#[test]
fn skewed_partition_slot_is_caught() {
    let spn = random_spn(
        &RandomSpnConfig::with_vars(12),
        &mut StdRng::seed_from_u64(11),
    );
    let ops = OpList::from_spn(&spn);
    let mut parted = Compiler::new(ProcessorConfig::ptree())
        .compile_partitioned(ops, 2)
        .expect("partitions");
    assert_eq!(codes(&verify_partitioned(&parted)), Vec::<&str>::new());
    let slot = parted.parts.stages[1]
        .inputs
        .iter_mut()
        .find(|s| matches!(s, TransferSource::Input(_)))
        .expect("stage 1 imports a global input");
    if let TransferSource::Input(i) = slot {
        *i += 1;
    }
    let diagnostics = verify_partitioned(&parted);
    assert_caught(&diagnostics, &["SPN301"], "skewed partition input slot");
}

#[test]
fn skewed_partition_export_is_caught() {
    let spn = random_spn(
        &RandomSpnConfig::with_vars(12),
        &mut StdRng::seed_from_u64(11),
    );
    let ops = OpList::from_spn(&spn);
    let mut parted = Compiler::new(ProcessorConfig::ptree())
        .compile_partitioned(ops, 2)
        .expect("partitions");
    let slot = parted.parts.stages[1]
        .inputs
        .iter_mut()
        .find(|s| matches!(s, TransferSource::Core { .. }))
        .expect("stage 1 imports an earlier stage's export");
    if let TransferSource::Core { export, .. } = slot {
        *export = export.wrapping_add(1);
    }
    let diagnostics = verify_partitioned(&parted);
    assert_caught(
        &diagnostics,
        &["SPN301", "SPN207"],
        "skewed partition export reference",
    );
}

/// The weight of half the leaves of [`repeated_leaves`]; the other half
/// weigh the next float up.
const WEIGHT: f64 = 0.3;

/// Eight products of four Bernoulli leaves each, every leaf over indicator
/// nodes of its own and weighing [`WEIGHT`] or the float one ulp above it,
/// so the compiler lays slots of one indicator, or of one weight, out in one
/// data-memory word.
fn repeated_leaves() -> OpList {
    let up = f64::from_bits(WEIGHT.to_bits() + 1);
    let mut b = SpnBuilder::new(4);
    let leaves: Vec<NodeId> = (0..32u32)
        .map(|k| {
            let var = VarId(k % 4);
            let x = b.indicator(var, true);
            let nx = b.indicator(var, false);
            let w = if k % 2 == 0 { WEIGHT } else { up };
            b.sum(vec![(x, w), (nx, 1.0 - w)]).expect("valid sum")
        })
        .collect();
    let products: Vec<(NodeId, f64)> = leaves
        .chunks(4)
        .map(|leaves| (b.product(leaves.to_vec()).expect("valid product"), 0.125))
        .collect();
    let root = b.sum(products).expect("valid sum");
    OpList::from_spn(&b.finish(root).expect("valid circuit"))
}

#[test]
fn input_laid_out_in_another_values_word_is_caught() {
    let ops = repeated_leaves();
    let art = Compiler::new(ProcessorConfig::ptree())
        .compile_op_list(ops.clone())
        .expect("compiles");
    let layout = &art.program.input_layout;
    assert!(
        (1..layout.len()).any(|i| layout[..i].contains(&layout[i])),
        "no two slots share a word"
    );
    assert_eq!(
        codes(&verify_program(&art.program, &ops, &[])),
        Vec::<&str>::new()
    );
    let slot = |leaf: LeafSource| ops.inputs().iter().position(|l| *l == leaf).unwrap();
    let var = VarId(1);
    let up = f64::from_bits(WEIGHT.to_bits() + 1);
    for (from, to, what) in [
        (
            LeafSource::Indicator { var, value: true },
            LeafSource::Indicator { var, value: false },
            "indicator in its negation's word",
        ),
        (
            LeafSource::Param(WEIGHT),
            LeafSource::Param(up),
            "parameter in the word of the float one ulp up",
        ),
    ] {
        let mut program = Program::clone(&art.program);
        program.input_layout[slot(from)] = program.input_layout[slot(to)];
        let diagnostics = verify_program(&program, &ops, &[]);
        assert_caught(&diagnostics, &["SPN205"], what);
    }
}

/// Applies one random structural mutation to `program`; returns a label.
fn mutate(program: &mut Program, rng: &mut StdRng) -> &'static str {
    loop {
        let instr_idx = rng.gen_range(0usize..program.instructions.len());
        let instr = &mut program.instructions[instr_idx];
        match rng.gen_range(0usize..3) {
            0 => {
                let tree_idx = rng.gen_range(0usize..instr.trees.len());
                let tree = &mut instr.trees[tree_idx];
                let pe = rng.gen_range(0usize..tree.pe_ops.len());
                let new = match tree.pe_ops[pe] {
                    PeOp::Add => PeOp::Mul,
                    PeOp::Mul => PeOp::Add,
                    PeOp::Max => PeOp::Add,
                    PeOp::Lse => PeOp::Mul,
                    PeOp::PassA => PeOp::PassB,
                    PeOp::PassB => PeOp::PassA,
                    // A sampler PE op has no exact-mode sibling to swap with
                    // that the schedule verifier is contracted to reject.
                    PeOp::Sam | PeOp::Nop => continue,
                };
                tree.pe_ops[pe] = new;
                return "pe-op swap";
            }
            1 => {
                let tree_idx = rng.gen_range(0usize..instr.trees.len());
                let tree = &mut instr.trees[tree_idx];
                if tree.writes.is_empty() {
                    continue;
                }
                let w = rng.gen_range(0usize..tree.writes.len());
                tree.writes.remove(w);
                return "write drop";
            }
            _ => {
                let tree_idx = rng.gen_range(0usize..instr.trees.len());
                let tree = &mut instr.trees[tree_idx];
                if tree.writes.is_empty() {
                    continue;
                }
                let w = rng.gen_range(0usize..tree.writes.len());
                let regs = program.config.regs_per_bank as u16;
                let bump = rng.gen_range(1u16..regs);
                tree.writes[w].reg = (tree.writes[w].reg + bump) % regs;
                return "register clobber";
            }
        }
    }
}

/// The translation-validation contract, checked against the simulator: any
/// mutation that changes (or crashes) real execution must be flagged, and
/// any program the verifier passes must still compute the baseline output.
#[test]
fn randomized_mutations_never_slip_through() {
    let art = artifact(10, 9);
    let inputs = art
        .input_values(&Evidence::marginal(art.op_list.num_vars()))
        .expect("inputs");
    let processor = Processor::new(art.program.config.clone()).expect("processor");
    let baseline = processor.run(&art.program, &inputs).expect("runs").output;
    let mut rng = StdRng::seed_from_u64(20260808);
    let mut caught = 0usize;
    for _ in 0..40 {
        let mut program = Program::clone(&art.program);
        let label = mutate(&mut program, &mut rng);
        let diagnostics = verify_program(&program, &art.op_list, &[]);
        let execution = processor.run(&program, &inputs);
        let harmless = matches!(&execution, Ok(run) if run.output.to_bits() == baseline.to_bits());
        if !harmless {
            assert!(
                !diagnostics.is_empty(),
                "{label}: execution changed but the verifier stayed silent"
            );
            caught += 1;
        }
    }
    assert!(
        caught >= 10,
        "mutation sweep exercised too few behaviour-changing mutations ({caught})"
    );
}

/// Applies one random mutation of the kinds [`mutate`] does not make —
/// traffic the schedule never had and broken geometry; returns a label.
fn mutate_traffic(program: &mut Program, rng: &mut StdRng) -> &'static str {
    let banks = program.config.total_banks() as u16;
    let regs = program.config.regs_per_bank as u16;
    let rows = program.memory_rows_used as u32;
    let instr_idx = rng.gen_range(0usize..program.instructions.len());
    let instr = &mut program.instructions[instr_idx];
    let tree_idx = rng.gen_range(0usize..instr.trees.len());
    match rng.gen_range(0usize..5) {
        0 => {
            instr.mem = MemOp::Load {
                row: rng.gen_range(0u32..rows + 1),
                reg: rng.gen_range(0u16..regs),
            };
            "inserted load"
        }
        1 => {
            instr.mem = MemOp::Store {
                row: rng.gen_range(0u32..rows + 1),
                reg: rng.gen_range(0u16..regs),
            };
            "inserted store"
        }
        2 => {
            instr.copies.push(CopyCmd {
                bank: rng.gen_range(0u16..banks),
                src: rng.gen_range(0u16..regs),
                dst: rng.gen_range(0u16..regs + 1),
            });
            "inserted copy"
        }
        3 => {
            let tree = &mut instr.trees[tree_idx];
            let read = rng.gen_range(0usize..tree.reads.len());
            tree.reads[read] = ReadSel::Reg {
                bank: rng.gen_range(0u16..banks + 1),
                reg: rng.gen_range(0u16..regs),
            };
            "redirected read"
        }
        _ => {
            match rng.gen_range(0usize..3) {
                0 => drop(instr.trees.pop()),
                1 => drop(instr.trees[tree_idx].reads.pop()),
                _ => drop(instr.trees[tree_idx].pe_ops.pop()),
            }
            "popped geometry"
        }
    }
}

/// The processor has no interlocks, so legality is a property of the
/// program: `Processor::check` gives the verdict of every run, whatever the
/// evidence, and of `CheckedProgram::new`; a batch that is checked once and
/// a checked program's block replay return what per-query runs return.
#[test]
fn legality_does_not_depend_on_data() {
    let art = artifact(10, 9);
    let num_vars = art.op_list.num_vars();
    let mut all_true = Evidence::marginal(num_vars);
    let mut mixed = Evidence::marginal(num_vars);
    for var in 0..num_vars {
        all_true.observe(var, true);
        if var % 3 != 0 {
            mixed.observe(var, var % 2 == 0);
        }
    }
    let rows: Vec<Vec<f64>> = [Evidence::marginal(num_vars), all_true, mixed]
        .iter()
        .map(|evidence| art.input_values(evidence).expect("inputs"))
        .collect();
    let flat = rows.concat();
    let config = art.program.config.clone();
    let processor = Processor::new(config.clone()).expect("processor");
    let multicore = MultiCoreProcessor::new(MultiCoreConfig::new(2, config)).expect("multicore");
    let mut state = SimState::default();
    let mut rng = StdRng::seed_from_u64(20261003);
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for round in 0..120 {
        let mut program = Program::clone(&art.program);
        let label = if round % 3 == 0 {
            mutate(&mut program, &mut rng)
        } else {
            mutate_traffic(&mut program, &mut rng)
        };
        let verdict = processor.check(&program);
        let runs: Vec<_> = rows
            .iter()
            .map(|inputs| processor.run(&program, inputs))
            .collect();
        for run in &runs {
            assert_eq!(
                verdict.as_ref().err(),
                run.as_ref().err(),
                "{label}: the verdict of a run is not the program's"
            );
        }
        let batch = multicore.run_batch_sharded(&program, &flat, rows.len(), &mut Vec::new());
        let checked = CheckedProgram::new(&processor, program);
        match verdict {
            Ok(()) => {
                accepted += 1;
                let batch = batch.expect("a legal program runs as a batch");
                let checked = checked.expect("a legal program is a checked program");
                let mut output = [0.0];
                for ((run, inputs), batched) in runs.iter().zip(&rows).zip(&batch.outputs) {
                    let run = run.as_ref().expect("accepted");
                    assert_eq!(run.output.to_bits(), batched.to_bits(), "{label}");
                    checked.run_block(1, inputs, &mut output, &mut state);
                    assert_eq!(run.output.to_bits(), output[0].to_bits(), "{label}");
                }
            }
            Err(error) => {
                rejected += 1;
                assert_eq!(checked.err(), Some(error.clone()), "{label}");
                assert_eq!(batch.err(), Some(error), "{label}");
            }
        }
    }
    assert!(
        accepted >= 15 && rejected >= 15,
        "sweep is one-sided: {accepted} accepted, {rejected} rejected"
    );
}
