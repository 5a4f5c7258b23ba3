//! The paper scoreboard, pinned: every row of [`spn_bench::paper`] keeps
//! its value to 1e-9 relative (each is a deterministic model output) and
//! its verdict.  A row that moves fails here until its pin is re-recorded,
//! and a `gap` verdict is allowed where a silent change is not.

use spn_accel::compiler::Compiler;
use spn_accel::core::flatten::OpList;
use spn_accel::core::{Evidence, EvidenceBatch};
use spn_accel::learn::Benchmark;
use spn_accel::platforms::{CpuModel, GpuConfig, GpuModel};
use spn_accel::processor::{PerfReport, Processor, ProcessorConfig};
use spn_accel::serve::json::{parse, Value};
use spn_bench::paper::{self, Row, Verdict, Verdict::*};
use spn_bench::{run_all_platforms, run_backend, PlatformRun};

/// Asserts each row's claim, value and verdict.
fn assert_pinned(rows: &[Row], pinned: &[(&str, f64, Verdict)]) {
    assert_eq!(rows.len(), pinned.len());
    for (row, &(claim, ours, verdict)) in rows.iter().zip(pinned) {
        assert_eq!(row.claim, claim);
        let close = (row.ours - ours).abs() <= 1e-9 * ours.abs();
        assert!(close, "{claim}: {:?}, pinned {ours:?}", row.ours);
        assert_eq!(row.verdict(), verdict, "{claim}");
    }
}

#[test]
fn fig4_shape_custom_processor_beats_both_baselines() {
    let mut results = Vec::new();
    for benchmark in Benchmark::all() {
        let spn = benchmark.spn();
        let batch = EvidenceBatch::marginals(spn.num_vars(), 1);
        results.extend(run_all_platforms(benchmark.name(), &spn, &batch).expect("run"));
    }
    let rows = paper::fig4(&results);
    assert_pinned(
        &rows,
        &[
            ("Ptree peak ops/cycle", 14.440114068441064, Exceeds),
            ("Ptree / CPU, geomean", 11.207253788932357, Gap),
            ("Ptree / GPU, geomean", 15.434166244953929, Exceeds),
            ("Ptree / Pvect, geomean", 1.6453927582037386, Gap),
        ],
    );

    // The benchmark's `sim-fig4` rows are the same model outputs, and its
    // latest history line keeps six significant digits of their medians.
    let history = include_str!("../BENCH_history.jsonl");
    let latest = parse(history.lines().last().expect("a line")).expect("parses");
    let six = |value: f64| format!("{value:.5e}").parse::<f64>().expect("float");
    for (metric, ours) in [
        ("sim_ops_per_cycle", paper::geomean(&results, "Ptree")),
        ("sim_speedup_vs_cpu", rows[1].ours),
        ("sim_speedup_vs_gpu", rows[2].ours),
    ] {
        let key = format!("sim-fig4/{metric}");
        let median = latest.get("median").and_then(|m| m.get(&key));
        assert_eq!(median.and_then(Value::as_f64), Some(six(ours)), "{key}");
    }
}

#[test]
fn fig2c_shape_gpu_thread_scaling_is_sublinear_and_gpu_stays_in_cpu_class() {
    let ops = OpList::from_spn(&Benchmark::Msnbc.spn());
    let batch = EvidenceBatch::marginals(ops.num_vars(), 1);
    let gpu = |threads| GpuModel::with_config(GpuConfig::with_threads(threads));
    let ops_per_cycle = |run: Result<PlatformRun, _>| run.expect("run").perf.ops_per_cycle();
    assert_pinned(
        &paper::fig2c(
            ops_per_cycle(run_backend("MSNBC", CpuModel::new(), &ops, &batch)),
            ops_per_cycle(run_backend("MSNBC", gpu(1), &ops, &batch)),
            ops_per_cycle(run_backend("MSNBC", gpu(256), &ops, &batch)),
        ),
        &[
            ("256 / 1 GPU threads, MSNBC", 7.724948168624741, Gap),
            ("GPU(256) / CPU, MSNBC", 1.5998617829993091, Holds),
        ],
    );
}

#[test]
fn table1_resources_stay_below_the_gpu_budget() {
    assert_pinned(
        &paper::table1(),
        &[
            ("Ptree PEs vs the GPU's CUDA cores", 30.0, Exceeds),
            ("Ptree registers", 2048.0, Exceeds),
            ("Ptree data memory KB vs shared memory", 64.0, Holds),
            ("Ptree memory banks", 32.0, Holds),
            ("Pvect PEs vs the GPU's CUDA cores", 16.0, Exceeds),
            ("Pvect registers", 2048.0, Exceeds),
            ("Pvect data memory KB vs shared memory", 64.0, Holds),
            ("Pvect memory banks", 32.0, Holds),
        ],
    );
    // A byte over the GPU's shared memory is a gap, and so is a NaN.
    let mut row = paper::table1().swap_remove(2);
    for ours in [64.0 + 1.0 / 1024.0, f64::NAN] {
        row.ours = ours;
        assert_eq!(row.verdict(), Gap, "{ours}");
    }
}

/// Exact per-query counters of a program: instructions, cycles, stall
/// cycles, issued ops, operand reads, write-backs, loads, stores.
type Counters = [u64; 8];

/// `(workload, Ptree, Pvect)`, recorded from the interpreter's own counting
/// at the last commit where it still counted (PR 17); `Program::perf` has
/// been the one definition since.  A schedule or timing-model change moves
/// these on purpose and re-records them: the chain's Pvect rows moved when a
/// value that several tiles read got a second register home (each level's
/// result is written to both banks of its PE, so its two readers need not
/// queue on one bank: 21 -> 15 cycles, 21 -> 27 write-backs).  The MSNBC
/// rows moved when slots holding the same indicator or parameter began to
/// share a data-memory word: 53 -> 16 loads on Ptree and 53 -> 14 on Pvect,
/// 183 -> 142 and 403 -> 236 cycles; the words several tiles read get
/// second homes, so write-backs and operand reads rise.
const PINNED_COUNTERS: &[(&str, Counters, Counters)] = &[
    (
        "MSNBC",
        [142, 142, 17, 1683, 2347, 664, 16, 0],
        [236, 236, 0, 1683, 3555, 1872, 14, 0],
    ),
    (
        "Banknote",
        [7, 7, 4, 25, 32, 7, 1, 0],
        [7, 7, 0, 25, 50, 25, 1, 0],
    ),
    (
        "mixture_1core_sharded",
        [6, 6, 3, 8, 11, 3, 1, 0],
        [6, 6, 0, 8, 16, 8, 1, 0],
    ),
    (
        "mixture_2core_sharded",
        [6, 6, 3, 8, 11, 3, 1, 0],
        [6, 6, 0, 8, 16, 8, 1, 0],
    ),
    (
        "mixture_log_2core_sharded",
        [6, 6, 3, 8, 11, 3, 1, 0],
        [6, 6, 0, 8, 16, 8, 1, 0],
    ),
    (
        "sampler_2core_sharded",
        [5, 5, 3, 15, 16, 1, 1, 0],
        [5, 5, 0, 15, 30, 15, 1, 0],
    ),
];

#[test]
fn exact_counters_of_pinned_programs() {
    let mut workloads: Vec<(String, OpList)> = [Benchmark::Msnbc, Benchmark::Banknote]
        .iter()
        .map(|b| (b.name().to_string(), OpList::from_spn(&b.spn())))
        .collect();
    for case in spn_bench::traces::trace_cases() {
        workloads.push((case.name.to_string(), case.op_list()));
    }
    assert_eq!(workloads.len(), PINNED_COUNTERS.len());
    for ((name, ops), (pinned_name, ptree, pvect)) in workloads.iter().zip(PINNED_COUNTERS) {
        assert_eq!(name, pinned_name);
        let inputs = ops
            .input_values(&Evidence::marginal(ops.num_vars()))
            .expect("inputs");
        for (config, pinned) in [
            (ProcessorConfig::ptree(), ptree),
            (ProcessorConfig::pvect(), pvect),
        ] {
            let context = format!("{name} on {}", config.name);
            let program = Compiler::new(config.clone())
                .compile_op_list(ops.clone())
                .expect("compile")
                .program;
            let [instructions, cycles, stalls, issued, reads, writes, loads, stores] = *pinned;
            let want = PerfReport {
                platform: config.name.clone(),
                queries: 1,
                source_ops: ops.num_ops() as u64,
                instructions,
                cycles,
                stall_cycles: stalls,
                issued_ops: issued,
                operand_reads: reads,
                writebacks: writes,
                memory_loads: loads,
                memory_stores: stores,
            };
            assert_eq!(program.perf(), want, "{context}: Program::perf");
            let run = Processor::new(config)
                .expect("processor")
                .run(&program, &inputs)
                .expect("run");
            assert_eq!(run.perf, want, "{context}: ExecutionResult.perf");
        }
    }
}
