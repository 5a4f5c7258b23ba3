//! Sweeps a subset of the paper's benchmark circuits across all four
//! platforms (CPU model, GPU model, Pvect, Ptree) and prints a Fig.-4-style
//! table.  The full nine-benchmark sweep, with the paper's claims scored
//! beside ours, lives in the `paper_figures` binary of the `spn-bench`
//! crate; this example keeps to the small circuits so it runs in seconds
//! even in debug builds.
//!
//! Run with `cargo run --release --example benchmark_sweep`.

use spn_accel::core::flatten::OpList;
use spn_accel::core::stats::SpnStats;
use spn_accel::core::EvidenceBatch;
use spn_accel::learn::Benchmark;
use spn_accel::platforms::{Backend, CpuModel, Engine, GpuModel, ProcessorBackend};

/// Compiles `ops` for `backend` and returns ops/cycle over a small batch.
fn throughput<B: Backend>(
    backend: B,
    ops: &OpList,
    batch: &EvidenceBatch,
) -> Result<f64, spn_accel::platforms::BackendError> {
    let mut engine = Engine::from_ops(backend, ops)?;
    Ok(engine.execute_batch(batch)?.perf.ops_per_cycle())
}

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    println!("| benchmark | ops | groups | CPU | GPU | Pvect | Ptree | Ptree/CPU |");
    println!("|---|---|---|---|---|---|---|---|");
    for benchmark in [
        Benchmark::Banknote,
        Benchmark::EegEye,
        Benchmark::Msnbc,
        Benchmark::Cpu,
    ] {
        let spn = benchmark.spn();
        let stats = SpnStats::from_spn(&spn);
        let ops = OpList::from_spn(&spn);
        let batch = EvidenceBatch::marginals(spn.num_vars(), 4);

        let cpu = throughput(CpuModel::new(), &ops, &batch)?;
        let gpu = throughput(GpuModel::new(), &ops, &batch)?;
        let pvect = throughput(ProcessorBackend::pvect(), &ops, &batch)?;
        let ptree = throughput(ProcessorBackend::ptree(), &ops, &batch)?;

        println!(
            "| {} | {} | {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.1}x |",
            benchmark.name(),
            stats.num_ops,
            stats.num_groups,
            cpu,
            gpu,
            pvect,
            ptree,
            ptree / cpu,
        );
    }
    Ok(())
}
