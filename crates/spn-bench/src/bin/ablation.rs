//! Ablation sweeps over the processor's design choices.
//!
//! The paper motivates three architectural decisions: the tree arrangement of
//! the PEs (Ptree vs Pvect is the paper's own ablation), the banked register
//! file, and the conflict-aware compiler.  This binary sweeps the tree depth,
//! the number of register banks and the register count to show where the
//! benefit comes from, on two circuits: KDDCup2k, a LearnSPN tree where
//! every op result has one reader tile but the input words its repeated
//! indicators and weights share have many, and Audio, a Chow-Liu circuit
//! where many values have several reader tiles.  Either kind of value may
//! hold several register homes.
//!
//! Every sweep point also answers a seeded nine-row batch (one block of
//! eight queries the simulator replays side by side, plus a one-query tail),
//! and its root values must match the CPU model's bit for bit — the check
//! `run_all_platforms` makes for Fig. 4.  Any disagreement exits non-zero.

use spn_bench::{check_agreement, run_backend};
use spn_core::batch::EvidenceBatch;
use spn_core::flatten::OpList;
use spn_core::Evidence;
use spn_learn::Benchmark;
use spn_platforms::{CpuModel, ProcessorBackend};
use spn_processor::ProcessorConfig;

/// `rows` rows of evidence, each variable observed false, observed true or
/// left unobserved, drawn from a fixed-seed splitmix64 stream.
fn seeded_batch(num_vars: usize, rows: usize) -> EvidenceBatch {
    let mut state: u64 = 0xab1a_7105;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut batch = EvidenceBatch::new(num_vars);
    for _ in 0..rows {
        let mut evidence = Evidence::marginal(num_vars);
        for var in 0..num_vars {
            match next() % 3 {
                0 => evidence.observe(var, false),
                1 => evidence.observe(var, true),
                _ => {}
            }
        }
        batch.push(&evidence).expect("arity");
    }
    batch
}

/// The ten machine shapes on `benchmark`, each checked against the CPU
/// model.
fn sweep(benchmark: Benchmark) -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let spn = benchmark.spn();
    let ops = OpList::from_spn(&spn);
    let batch = seeded_batch(spn.num_vars(), 9);
    let cpu = run_backend(benchmark.name(), CpuModel::new(), &ops, &batch)?;
    let ops_per_cycle = |config: &ProcessorConfig| {
        let backend = ProcessorBackend::new(config.clone())?;
        let run = run_backend(benchmark.name(), backend, &ops, &batch)?;
        check_agreement(&cpu, &run)?;
        Ok::<_, spn_platforms::BackendError>(run.perf.ops_per_cycle())
    };
    println!(
        "# Ablation sweeps on {} ({} ops)\n",
        benchmark.name(),
        ops.num_ops()
    );

    println!("## Tree depth (levels of PEs per tree)\n");
    println!("| levels | PEs | ops/cycle |");
    println!("|---|---|---|");
    for levels in 1..=4usize {
        let mut config = ProcessorConfig::ptree();
        config.tree_levels = levels;
        config.name = format!("Ptree-L{levels}");
        let opc = ops_per_cycle(&config)?;
        println!("| {levels} | {} | {opc:.2} |", config.num_pes());
    }

    println!("\n## Register banks per tree (crossbar width)\n");
    println!("| banks/tree | total banks | ops/cycle |");
    println!("|---|---|---|");
    // 32 banks/tree is the widest sweep point: past 64 banks in total (2
    // trees) the compiler answers `CompileError::InvalidTarget`.
    for banks in [8usize, 16, 32] {
        let mut config = ProcessorConfig::ptree();
        config.banks_per_tree = banks;
        config.name = format!("Ptree-B{banks}");
        let opc = ops_per_cycle(&config)?;
        println!("| {banks} | {} | {opc:.2} |", config.total_banks());
    }

    println!("\n## Registers per bank (spill pressure)\n");
    println!("| regs/bank | ops/cycle |");
    println!("|---|---|");
    for regs in [8usize, 16, 64] {
        let mut config = ProcessorConfig::ptree();
        config.regs_per_bank = regs;
        config.name = format!("Ptree-R{regs}");
        println!("| {regs} | {:.2} |", ops_per_cycle(&config)?);
    }
    println!(
        "\nEvery sweep point agrees with the CPU model on {} seeded rows, bit for bit.\n",
        batch.len()
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    for benchmark in [Benchmark::KddCup2k, Benchmark::Audio] {
        sweep(benchmark)?;
    }
    Ok(())
}
