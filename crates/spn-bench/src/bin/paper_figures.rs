//! Reproduces the paper's figures and scores each of its claims.
//!
//! First Fig. 4: throughput of CPU, GPU, Pvect and Ptree on the nine
//! benchmark circuits, every root value checked against the CPU model.
//!
//! Then, per circuit, where a 64-query batch goes on four sharded Ptree
//! cores behind one shared-memory port: the cost-sized shard lengths, the
//! makespan beside the even split's, each core's compute / memory-stall /
//! idle cycles and the speedup over one core.  Exits non-zero if any
//! cost-sized makespan is above the even split's.
//!
//! Then the headroom of each circuit's single-core schedule: its Ptree and
//! Pvect cycles beside the op-DAG depth, a lower bound on both (each op
//! level costs at least one cycle), how many values two or more tiles read
//! (each may hold a second register home), the rows one Ptree pass loads,
//! the data-memory words its inputs take against their slots, the slots
//! the Ptree replay reads, the indicator lane groups a block fill writes
//! for it against the full recipe's, and the lane groups the CPU and GPU
//! models' register-allocated lane program holds against the full tiles'
//! `inputs + ops`.  Exits non-zero if a pass loads more rows than one word
//! per input slot would fill (`⌈slots / banks⌉`): a row reloaded after
//! eviction; if the replay reads more input slots than the inputs take
//! words: an input that reached the datapath unloaded; or if a lane
//! program holds more groups than the full tiles: a register file that
//! grew past what it replaces.
//!
//! Last Fig. 2c (CPU vs GPU throughput as the GPU thread count grows, on
//! MSNBC), Table I (the platforms' compute and memory resources) and the
//! scoreboard of [`spn_bench::paper`]: each claim, ours beside the paper's,
//! and its verdict.
//!
//! Pass `--json <path>` to also dump the raw Fig. 4 results, one object per
//! (benchmark, platform), as a JSON array.

use std::collections::HashSet;
use std::env;
use std::fs;

use spn_bench::{paper, run_all_platforms, run_backend};
use spn_compiler::Compiler;
use spn_core::batch::EvidenceBatch;
use spn_core::flatten::OpList;
use spn_core::levelize::Levelization;
use spn_core::vectorized::LaneProgram;
use spn_learn::Benchmark;
use spn_platforms::{CpuModel, GpuConfig, GpuModel};
use spn_processor::{MultiCoreConfig, MultiCoreProcessor, ProcessorConfig};
use spn_serve::json::Value;

/// Cores of the sharded multi-core split.
const CORES: usize = 4;
/// Batch length of the sharded multi-core split.
const QUERIES: usize = 64;

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let json_path = env::args().skip_while(|arg| arg != "--json").nth(1);

    let mut all = Vec::new();
    let compiler = Compiler::new(ProcessorConfig::ptree());
    let vector = Compiler::new(ProcessorConfig::pvect());
    let sharded = MultiCoreProcessor::new(MultiCoreConfig::new(CORES, ProcessorConfig::ptree()))?;
    let mut split_rows = Vec::new();
    // One line per failed gate; the run exits non-zero after printing all.
    let mut failures = Vec::new();
    let mut headroom_rows = Vec::new();
    let mut fig4_rows = Vec::new();
    println!("# Fig. 4: ops/cycle per platform and benchmark\n");
    for benchmark in Benchmark::all() {
        let (name, spn) = (benchmark.name(), benchmark.spn());
        let batch = EvidenceBatch::marginals(spn.num_vars(), 1);
        eprintln!("running {name} ({} nodes)...", spn.num_nodes());
        let results = run_all_platforms(name, &spn, &batch)?;
        let cells: String = results
            .iter()
            .map(|r| format!(" {:.2} |", r.perf.ops_per_cycle()))
            .collect();
        fig4_rows.push(format!("| {name} |{cells}"));
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
            failures.push(format!(
                "{name}: a Ptree pass loads more rows than its input slots fill"
            ));
        }
        let read = tree.program.inputs_read().len();
        if read > words.len() {
            failures.push(format!(
                "{name}: the Ptree replay reads more input slots than the inputs take words"
            ));
        }
        let registers = LaneProgram::from_op_list(&ops).slots();
        let tiles = ops.num_inputs() + ops.num_ops();
        if registers > tiles {
            failures.push(format!(
                "{name}: the lane program holds more lane groups than the full tiles"
            ));
        }
        headroom_rows.push(format!(
            "| {name} | {} | {} | {} | {} | {} | {} | {} / {} | {read} | {} / {} | {registers} / {tiles} |",
            Levelization::from_op_list(&ops).num_groups(),
            tree.program.perf().cycles,
            vect.program.perf().cycles,
            tree.report.shared_values,
            vect.report.shared_values,
            loads,
            words.len(),
            slots,
            tree.lane_recipe().num_indicators(),
            tree.input_recipe().num_indicators(),
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
            failures.push(format!(
                "{name}: cost-sized makespan above the even split's"
            ));
        }
        let cores = &split.per_core;
        let lengths: Vec<String> = cores.iter().map(|c| c.work.queries.to_string()).collect();
        let per_core: Vec<String> = cores
            .iter()
            .map(|c| {
                format!(
                    "{} / {} / {}",
                    c.compute_cycles, c.memory_stall_cycles, c.idle_cycles
                )
            })
            .collect();
        split_rows.push(format!(
            "| {name} | {} | {} | {} | {} | {:.2}x |",
            lengths.join("/"),
            split.makespan_cycles,
            even,
            per_core.join(" | "),
            (pass.cycles * QUERIES as u64) as f64 / split.makespan_cycles.max(1) as f64
        ));
    }
    println!("| workload | CPU | GPU | Pvect | Ptree |\n|---|---|---|---|---|");
    for row in &fig4_rows {
        println!("{row}");
    }
    let means: String = ["CPU", "GPU", "Pvect", "Ptree"]
        .map(|platform| format!(" {:.2} |", paper::geomean(&all, platform)))
        .concat();
    println!("| geometric mean |{means}");

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
         machine's tiling, the rows one Ptree pass loads, the data-memory \
         words the inputs take against their slots, the input slots the \
         Ptree replay reads (a lane tile fills only those), the indicator \
         lane groups a block fill writes for it against the full recipe's, \
         and the lane groups of the CPU model's register file against its \
         full tiles' inputs + ops.\n"
    );
    println!(
        "| benchmark | op levels | Ptree cycles | Pvect cycles | shared (Ptree) | shared (Pvect) \
         | Ptree loads | input words / slots | replay reads | indicator groups / block \
         | lane registers / tiles |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    for row in &headroom_rows {
        println!("{row}");
    }

    let msnbc = Benchmark::Msnbc.name();
    let ops = OpList::from_spn(&Benchmark::Msnbc.spn());
    let batch = EvidenceBatch::marginals(ops.num_vars(), 1);
    println!(
        "\n# Fig. 2(c): CPU vs GPU thread scaling\n\nworkload: {msnbc} ({} vars, {} ops, {} inputs)\n",
        ops.num_vars(),
        ops.num_ops(),
        ops.num_inputs()
    );
    println!("| platform | ops/cycle |\n|---|---|");
    let cpu = run_backend(msnbc, CpuModel::new(), &ops, &batch)?
        .perf
        .ops_per_cycle();
    println!("| CPU | {cpu:.3} |");
    let mut sweep = Vec::new();
    for threads in [1, 32, 64, 128, 256] {
        let model = GpuModel::with_config(GpuConfig::with_threads(threads));
        let gpu = run_backend(msnbc, model, &ops, &batch)?
            .perf
            .ops_per_cycle();
        println!("| GPU {threads} thread(s) | {gpu:.3} |");
        sweep.push(gpu);
    }

    let ptree = ProcessorConfig::ptree();
    println!(
        "\n# Table I: compute and memory details of the processing platforms\n\n{}\n\
         Ptree: {} trees x {} levels; Pvect: lowest PE level only.",
        paper::table1_markdown(),
        ptree.num_trees,
        ptree.tree_levels
    );

    let fig2c = paper::fig2c(cpu, sweep[0], sweep[sweep.len() - 1]);
    let rows = [fig2c, paper::fig4(&all), paper::table1()].concat();
    println!("\n# The paper's claims\n\n{}", paper::markdown(&rows));

    if let Some(path) = json_path {
        let text = |key: &str, v: &str| (key.to_string(), Value::Str(v.to_string()));
        let num = |key: &str, v: f64| (key.to_string(), Value::Num(v));
        let records = all
            .iter()
            .map(|r| {
                let perf = &r.perf;
                Value::Obj(vec![
                    text("platform", &perf.platform),
                    text("workload", &r.workload),
                    num("ops", (perf.source_ops / perf.queries) as f64),
                    num("queries", perf.queries as f64),
                    num("cycles", perf.cycles as f64),
                    num("cycles_per_query", perf.cycles_per_query()),
                    num("ops_per_cycle", perf.ops_per_cycle()),
                    num("value", r.values[0]),
                ])
            })
            .collect();
        fs::write(&path, Value::Arr(records).to_json() + "\n")?;
        eprintln!("raw results written to {path}");
    }
    if !failures.is_empty() {
        return Err(failures.join("; ").into());
    }
    Ok(())
}
