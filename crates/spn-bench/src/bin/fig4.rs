//! Reproduces Fig. 4: throughput of CPU, GPU, Pvect and Ptree on the nine
//! benchmark circuits, plus the paper's headline claims (Ptree >= 12x CPU/GPU
//! and ~2x Pvect).
//!
//! Then, per circuit, where a 64-query batch goes on four sharded Ptree
//! cores behind one shared-memory port: the cost-sized shard lengths, the
//! makespan beside the even split's, each core's compute / memory-stall /
//! idle cycles and the speedup over one core.  Exits non-zero if any
//! cost-sized makespan is above the even split's.
//!
//! Last, the headroom of each circuit's single-core schedule: its Ptree and
//! Pvect cycles beside the op-DAG depth, a lower bound on both (each op
//! level costs at least one cycle), how many values two or more tiles read
//! (each may hold a second register home), the rows one Ptree pass loads
//! and the data-memory words its inputs take against their slots.  Exits
//! non-zero if a pass loads more rows than one word per input slot would
//! fill (`⌈slots / banks⌉`): a row reloaded after eviction.
//!
//! Pass `--json <path>` to also dump the raw results, one object per
//! (benchmark, platform), as a JSON array.

use std::collections::HashSet;
use std::env;
use std::fs;

use spn_bench::{markdown_table, run_all_platforms, PlatformResult};
use spn_compiler::Compiler;
use spn_core::batch::EvidenceBatch;
use spn_core::flatten::OpList;
use spn_core::levelize::Levelization;
use spn_learn::Benchmark;
use spn_processor::{MultiCoreConfig, MultiCoreProcessor, ProcessorConfig};
use spn_serve::json::Value;

/// Cores of the sharded multi-core split.
const CORES: usize = 4;
/// Batch length of the sharded multi-core split.
const QUERIES: usize = 64;

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let args: Vec<String> = env::args().collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let mut all: Vec<PlatformResult> = Vec::new();
    let compiler = Compiler::new(ProcessorConfig::ptree());
    let vector = Compiler::new(ProcessorConfig::pvect());
    let sharded = MultiCoreProcessor::new(MultiCoreConfig::new(CORES, ProcessorConfig::ptree()))?;
    let mut split_rows = Vec::new();
    let mut above_even = Vec::new();
    let mut headroom_rows = Vec::new();
    let mut reloading = Vec::new();
    println!("# Fig. 4: ops/cycle per platform and benchmark\n");
    for benchmark in Benchmark::all() {
        let spn = benchmark.spn();
        let batch = EvidenceBatch::marginals(spn.num_vars(), 1);
        eprintln!(
            "running {} ({} vars, {} nodes)...",
            benchmark.name(),
            spn.num_vars(),
            spn.num_nodes()
        );
        let results = run_all_platforms(benchmark.name(), &spn, &batch)?;
        all.extend(results);

        // Cost the sharded batch from the program alone: no query runs.
        let ops = OpList::from_spn(&spn);
        let tree = compiler.compile_op_list(ops.clone())?;
        let vect = vector.compile_op_list(ops.clone())?;
        let slots = tree.program.input_layout.len();
        let words: HashSet<_> = tree
            .program
            .input_layout
            .iter()
            .map(|s| (s.row, s.lane))
            .collect();
        let loads = tree.report.memory_loads;
        if loads > slots.div_ceil(compiler.config().total_banks()) {
            reloading.push(benchmark.name());
        }
        headroom_rows.push(format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} / {} |",
            benchmark.name(),
            Levelization::from_op_list(&ops).num_groups(),
            tree.program.perf().cycles,
            vect.program.perf().cycles,
            tree.report.shared_values,
            vect.report.shared_values,
            loads,
            words.len(),
            slots,
        ));
        let program = tree.program;
        let pass = program.perf();
        let split = sharded.sharded_perf(&program, QUERIES)?;
        let costs = sharded.pass_costs(&pass);
        let even = MultiCoreProcessor::shard_ranges(CORES, QUERIES)
            .iter()
            .zip(&costs)
            .map(|(shard, cost)| shard.len() as u64 * cost)
            .max()
            .unwrap_or(0);
        if split.makespan_cycles > even {
            above_even.push(benchmark.name());
        }
        let lengths: Vec<String> = split
            .per_core
            .iter()
            .map(|core| core.work.queries.to_string())
            .collect();
        let per_core: Vec<String> = split
            .per_core
            .iter()
            .map(|core| {
                format!(
                    "{} / {} / {}",
                    core.compute_cycles, core.memory_stall_cycles, core.idle_cycles
                )
            })
            .collect();
        split_rows.push(format!(
            "| {} | {} | {} | {} | {} | {:.2}x |",
            benchmark.name(),
            lengths.join("/"),
            split.makespan_cycles,
            even,
            per_core.join(" | "),
            (pass.cycles * QUERIES as u64) as f64 / split.makespan_cycles.max(1) as f64
        ));
    }
    println!("{}", markdown_table(&all));

    // Headline summary (geometric means and per-benchmark speed-ups).
    let mean = |platform: &str| -> f64 {
        let values: Vec<f64> = all
            .iter()
            .filter(|r| r.platform == platform)
            .map(|r| r.ops_per_cycle.max(1e-12).ln())
            .collect();
        (values.iter().sum::<f64>() / values.len() as f64).exp()
    };
    let (cpu, gpu, pvect, ptree) = (mean("CPU"), mean("GPU"), mean("Pvect"), mean("Ptree"));
    let peak = all
        .iter()
        .filter(|r| r.platform == "Ptree")
        .map(|r| r.ops_per_cycle)
        .fold(0.0f64, f64::max);
    println!("geometric means: CPU {cpu:.2}, GPU {gpu:.2}, Pvect {pvect:.2}, Ptree {ptree:.2}");
    println!("Ptree peak: {peak:.1} ops/cycle (paper: 11.6)");
    println!("Ptree vs CPU: {:.1}x (paper: >= 12x)", ptree / cpu);
    println!("Ptree vs GPU: {:.1}x (paper: >= 12x)", ptree / gpu);
    println!("Ptree vs Pvect: {:.1}x (paper: ~2x)", ptree / pvect);

    println!(
        "\n# {CORES}-core sharded Ptree, one shared-memory port, {QUERIES} queries\n\n\
         Shards sized by each core's pass cost (compute + wave-arbitration \
         stalls); per core: compute / memory stall / idle cycles.\n"
    );
    let core_headers: String = (0..CORES).map(|c| format!(" core {c} |")).collect();
    println!("| benchmark | shards | makespan | even split |{core_headers} vs 1 core |");
    println!("|---|---|---|---|{}---|", "---|".repeat(CORES));
    for row in &split_rows {
        println!("{row}");
    }

    println!(
        "\n# Single-core headroom\n\n\
         Cycles of one pass beside the op-DAG depth (each op level costs at \
         least one cycle), the values two or more tiles read under each \
         machine's tiling, the rows one Ptree pass loads, and the data-memory \
         words the inputs take against their slots.\n"
    );
    println!(
        "| benchmark | op levels | Ptree cycles | Pvect cycles | shared (Ptree) | shared (Pvect) \
         | Ptree loads | input words / slots |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for row in &headroom_rows {
        println!("{row}");
    }

    if let Some(path) = json_path {
        let text = |key: &str, v: &str| (key.to_string(), Value::Str(v.to_string()));
        let num = |key: &str, v: f64| (key.to_string(), Value::Num(v));
        let records = all
            .iter()
            .map(|r| {
                Value::Obj(vec![
                    text("platform", &r.platform),
                    text("workload", &r.workload),
                    num("ops", r.ops as f64),
                    num("queries", r.queries as f64),
                    num("cycles", r.cycles as f64),
                    num("cycles_per_query", r.cycles_per_query),
                    num("ops_per_cycle", r.ops_per_cycle),
                    num("value", r.value),
                ])
            })
            .collect();
        fs::write(&path, Value::Arr(records).to_json() + "\n")?;
        eprintln!("raw results written to {path}");
    }
    if !above_even.is_empty() {
        return Err(format!(
            "cost-sized makespan above the even split's on {}",
            above_even.join(", ")
        )
        .into());
    }
    if !reloading.is_empty() {
        return Err(format!(
            "a Ptree pass loads more rows than its input slots fill on {}",
            reloading.join(", ")
        )
        .into());
    }
    Ok(())
}
