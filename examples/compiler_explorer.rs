//! Looks inside the compiler: how operations get packed into PE-tree tiles,
//! how much memory traffic the schedule needs, and what the emitted VLIW
//! program looks like for the Ptree and Pvect configurations.
//!
//! Run with `cargo run --example compiler_explorer`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spn_accel::compiler::{Compiler, CompilerOptions};
use spn_accel::core::random::{random_spn, RandomSpnConfig};
use spn_accel::core::stats::SpnStats;
use spn_accel::processor::ProcessorConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2024);
    let spn = random_spn(&RandomSpnConfig::with_vars(48), &mut rng);
    let stats = SpnStats::from_spn(&spn);
    println!("workload: {stats}\n");

    for config in [ProcessorConfig::pvect(), ProcessorConfig::ptree()] {
        let compiled = Compiler::new(config.clone()).compile(&spn)?;
        let report = &compiled.report;
        println!("== {} ({} PEs) ==", config.name, config.num_pes());
        println!("  {report}");
        println!(
            "  ops per tile: {:.2}   ops per instruction: {:.2}   peak live offsets: {}/{}",
            report.ops_per_tile(),
            report.ops_per_instruction(),
            report.peak_live_offsets,
            config.regs_per_bank,
        );
        println!(
            "  program: {} instructions, {} data-memory rows, {} stalls\n",
            compiled.program.len(),
            compiled.program.memory_rows_used,
            report.nop_instructions,
        );
    }

    // Tile depth sweep: the heart of the Ptree-vs-Pvect comparison.
    println!("tile-depth sweep on Ptree hardware:");
    for depth in 1..=4 {
        let compiled = Compiler::with_options(
            ProcessorConfig::ptree(),
            CompilerOptions {
                max_tile_depth: Some(depth),
            },
        )
        .compile(&spn)?;
        println!(
            "  depth {depth}: {} tiles, {} instructions, {:.2} ops/instruction",
            compiled.report.tiles,
            compiled.report.instructions,
            compiled.report.ops_per_instruction(),
        );
    }
    Ok(())
}
