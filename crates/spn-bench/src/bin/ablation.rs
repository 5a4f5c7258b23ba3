//! Ablation sweeps over the processor's design choices.
//!
//! The paper motivates three architectural decisions: the tree arrangement of
//! the PEs (Ptree vs Pvect is the paper's own ablation), the banked register
//! file, and the conflict-aware compiler.  This binary sweeps the tree depth,
//! the number of register banks and the register count to show where the
//! benefit comes from.

use spn_bench::run_processor;
use spn_core::batch::EvidenceBatch;
use spn_core::flatten::OpList;
use spn_learn::Benchmark;
use spn_processor::ProcessorConfig;

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let benchmark = Benchmark::KddCup2k;
    let spn = benchmark.spn();
    let ops = OpList::from_spn(&spn);
    let batch = EvidenceBatch::marginals(spn.num_vars(), 1);
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
        let result = run_processor(benchmark.name(), &ops, &batch, &config)?.result;
        println!(
            "| {levels} | {} | {:.2} |",
            config.num_pes(),
            result.ops_per_cycle
        );
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
        let result = run_processor(benchmark.name(), &ops, &batch, &config)?.result;
        println!(
            "| {banks} | {} | {:.2} |",
            config.total_banks(),
            result.ops_per_cycle
        );
    }

    println!("\n## Registers per bank (spill pressure)\n");
    println!("| regs/bank | ops/cycle |");
    println!("|---|---|");
    for regs in [8usize, 16, 64] {
        let mut config = ProcessorConfig::ptree();
        config.regs_per_bank = regs;
        config.name = format!("Ptree-R{regs}");
        let result = run_processor(benchmark.name(), &ops, &batch, &config)?.result;
        println!("| {regs} | {:.2} |", result.ops_per_cycle);
    }
    Ok(())
}
