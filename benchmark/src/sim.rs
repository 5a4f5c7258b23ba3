//! The simulated side: every circuit a workload serves, compiled for and run
//! on the four platforms of the paper's Fig. 4 (CPU model, GPU model, Pvect,
//! Ptree) plus a four-core sharded Ptree on the largest one.  `sim-fig4` runs
//! this over the paper's nine circuits and rates the simulator's host speed;
//! every other workload runs it once over its own circuits after measuring,
//! so the `sim_*` columns say what that workload's circuits cost on the
//! paper's processor.
//!
//! Simulated statistics are exact: the same circuits and batches give the
//! same cycles bit for bit, on any host, at any load.

use spn_compiler::CompileReport;
use spn_core::flatten::OpList;
use spn_core::{EvidenceBatch, Spn};
use spn_learn::Benchmark;
use spn_platforms::{
    BackendError, CpuModel, Engine, EngineOptions, GpuModel, PerfReport, ProcessorBackend,
};
use spn_processor::{
    MultiCoreConfig, MultiCorePerf, MultiCoreProcessor, ProcessorConfig, SimState,
};

use crate::gen;
use crate::harness::{self, Args, Component, Report};
use crate::stats::geomean;
use crate::trace::Tracer;

/// Rows per simulated batch.
pub const SIM_ROWS: usize = 64;
/// Cores of the sharded multi-core run.
const MC_CORES: usize = 4;

/// The paper's own figures — the only reference results the repo holds.
/// Per-circuit reference data is absent, so the per-circuit model is
/// unvalidated and no per-circuit error is quoted.
const PAPER_PTREE_PEAK: f64 = 11.6;
const PAPER_VS_CPU: f64 = 12.0;
const PAPER_VS_GPU: f64 = 12.0;
const PAPER_VS_PVECT: f64 = 2.0;

struct SimCircuit {
    name: String,
    ops: usize,
    batch: EvidenceBatch,
    cpu: Engine<CpuModel>,
    gpu: Engine<GpuModel>,
    pvect: Engine<ProcessorBackend>,
    ptree: Engine<ProcessorBackend>,
}

/// Compiled engines of a circuit set, ready to simulate.
pub struct SimBench {
    circuits: Vec<SimCircuit>,
    multicore: MultiCoreProcessor,
    /// Index of the circuit with the most operations.
    largest: usize,
}

/// Simulated counters of one pass over every circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    cpu: Vec<PerfReport>,
    gpu: Vec<PerfReport>,
    pvect: Vec<PerfReport>,
    ptree: Vec<PerfReport>,
    mc: MultiCorePerf,
    compile: Vec<CompileReport>,
    ops: usize,
}

fn close(value: f64, expected: f64) -> bool {
    (value - expected).abs() <= 1e-9 * expected.abs().max(1e-30)
}

impl SimBench {
    /// Lowers and compiles every circuit for the four platforms.  `batches`
    /// holds one evidence batch per circuit.
    ///
    /// # Errors
    ///
    /// Returns the backend's error when a circuit does not compile.
    pub fn build(
        circuits: &[(&str, &Spn)],
        batches: Vec<EvidenceBatch>,
        tracer: &mut Tracer,
    ) -> Result<SimBench, BackendError> {
        let mut built = Vec::with_capacity(circuits.len());
        for (op, (&(name, spn), batch)) in circuits.iter().zip(batches).enumerate() {
            let op = op as u64;
            let ops: OpList =
                tracer.span("core.flatten", op, || EngineOptions::default().lower(spn));
            let cpu = tracer.span("platforms.engine_new", op, || {
                Engine::from_ops(CpuModel::new(), &ops)
            })?;
            let gpu = Engine::from_ops(GpuModel::new(), &ops)?;
            let pvect = Engine::from_ops(ProcessorBackend::pvect(), &ops)?;
            let ptree = tracer.span("compiler.compile", op, || {
                Engine::from_ops(ProcessorBackend::ptree(), &ops)
            })?;
            if tracer.enabled() {
                let findings = tracer.span("compiler.verify", op, || {
                    spn_compiler::verify::verify_artifact(ptree.compiled())
                });
                if !findings.is_empty() {
                    return Err(format!("{name}: schedule verifier: {findings:?}").into());
                }
            }
            built.push(SimCircuit {
                name: name.to_string(),
                ops: ops.num_ops(),
                batch,
                cpu,
                gpu,
                pvect,
                ptree,
            });
        }
        let largest = (0..built.len())
            .max_by_key(|&i| built[i].ops)
            .ok_or("no circuits to simulate")?;
        Ok(SimBench {
            circuits: built,
            multicore: MultiCoreProcessor::new(MultiCoreConfig::new(
                MC_CORES,
                ProcessorConfig::ptree(),
            ))?,
            largest,
        })
    }

    /// Seeded evidence batches for circuits of the given arities.
    pub fn batches(seed: u64, num_vars: impl IntoIterator<Item = usize>) -> Vec<EvidenceBatch> {
        let mut rng = gen::rng(seed, 0x51a1);
        num_vars
            .into_iter()
            .map(|n| gen::evidence_batch(&mut rng, n, SIM_ROWS, false))
            .collect()
    }

    /// Runs every circuit's batch on every platform and checks the outputs:
    /// GPU, Pvect, Ptree and multi-core root values against the CPU model's
    /// within 1e-9 relative, and the multi-core cycle accounting.
    ///
    /// # Errors
    ///
    /// Returns the backend's error when a platform fails structurally.
    pub fn run_once(&mut self, report: &mut Report) -> Result<SimStats, BackendError> {
        let mut stats = SimStats {
            cpu: Vec::new(),
            gpu: Vec::new(),
            pvect: Vec::new(),
            ptree: Vec::new(),
            mc: MultiCorePerf::default(),
            compile: Vec::new(),
            ops: 0,
        };
        let largest = self.largest;
        for (i, c) in self.circuits.iter_mut().enumerate() {
            let cpu = c.cpu.execute_batch(&c.batch)?;
            let others = [
                ("GPU", c.gpu.execute_batch(&c.batch)?),
                ("Pvect", c.pvect.execute_batch(&c.batch)?),
                ("Ptree", c.ptree.execute_batch(&c.batch)?),
            ];
            for (platform, run) in &others {
                let ok = run.values.len() == cpu.values.len()
                    && run
                        .values
                        .iter()
                        .zip(&cpu.values)
                        .all(|(v, e)| close(*v, *e));
                report.check(ok, || {
                    format!("{}: {platform} disagrees with the CPU model", c.name)
                });
            }
            if i == largest {
                let artifact = c.ptree.compiled();
                let mut inputs = Vec::new();
                artifact.fill_batch_inputs(&c.batch, &mut inputs)?;
                let mut states: Vec<SimState> = Vec::new();
                let run = self.multicore.run_batch_sharded(
                    &artifact.program,
                    &inputs,
                    c.batch.len(),
                    &mut states,
                )?;
                let values_ok = run
                    .outputs
                    .iter()
                    .zip(&cpu.values)
                    .all(|(v, e)| close(*v, *e));
                let accounting = run.cores.check_accounting();
                report.check(
                    values_ok && run.outputs.len() == cpu.values.len() && accounting.is_ok(),
                    || {
                        format!(
                            "{}: {MC_CORES}-core run: values ok {values_ok}, {accounting:?}",
                            c.name
                        )
                    },
                );
                stats.mc = run.cores;
            }
            stats.ops += c.ops;
            stats.compile.push(c.ptree.compiled().report.clone());
            let [gpu, pvect, ptree] = others;
            stats.cpu.push(cpu.perf);
            stats.gpu.push(gpu.1.perf);
            stats.pvect.push(pvect.1.perf);
            stats.ptree.push(ptree.1.perf);
        }
        Ok(stats)
    }

    /// One component per circuit: its batch on the Ptree simulator, values
    /// checked against the first pass.
    fn sweep_components(&mut self) -> Result<Vec<Component<'_>>, BackendError> {
        self.circuits
            .iter_mut()
            .map(|c| {
                let expected = c.ptree.execute_batch(&c.batch)?.values;
                let (engine, batch) = (&mut c.ptree, &c.batch);
                Ok(Component {
                    name: c.name.clone(),
                    queries_per_op: batch.len() as f64,
                    run: Box::new(move |tracer, op| {
                        let out =
                            tracer.span("processor.run_batch", op, || engine.execute_batch(batch));
                        out.is_ok_and(|out| out.values == expected)
                    }),
                })
            })
            .collect()
    }
}

impl SimStats {
    fn geomean_opc(perfs: &[PerfReport]) -> f64 {
        geomean(perfs.iter().map(PerfReport::ops_per_cycle))
    }

    /// The five simulated end-to-end metrics.
    pub fn end_to_end(&self, largest: usize, report: &mut Report) {
        let ptree = Self::geomean_opc(&self.ptree);
        report.set("sim_ops_per_cycle", ptree);
        report.set(
            "sim_cycles_per_query",
            geomean(self.ptree.iter().map(PerfReport::cycles_per_query)),
        );
        report.set("sim_speedup_vs_cpu", ptree / Self::geomean_opc(&self.cpu));
        report.set("sim_speedup_vs_gpu", ptree / Self::geomean_opc(&self.gpu));
        report.set(
            "sim_mc4_speedup",
            self.ptree[largest].cycles as f64 / self.mc.makespan_cycles as f64,
        );
    }

    /// The exact per-layer counters of spn-core, spn-compiler, spn-processor
    /// and spn-platforms' analytic models.
    pub fn per_layer(&self, report: &mut Report) {
        let sum = |perfs: &[PerfReport], f: fn(&PerfReport) -> u64| -> f64 {
            perfs.iter().map(f).sum::<u64>() as f64
        };
        let csum = |f: fn(&CompileReport) -> usize| -> f64 {
            self.compile.iter().map(f).sum::<usize>() as f64
        };
        report.set("core.ops", self.ops as f64);
        report.set("compiler.instructions", csum(|r| r.instructions));
        report.set("compiler.nop_instructions", csum(|r| r.nop_instructions));
        report.set("compiler.copy_moves", csum(|r| r.copy_moves));
        report.set("compiler.memory_loads", csum(|r| r.memory_loads));
        report.set("compiler.memory_stores", csum(|r| r.memory_stores));
        report.set(
            "compiler.ops_per_instruction",
            csum(|r| r.source_ops) / csum(|r| r.instructions),
        );
        report.set("processor.ptree_cycles", sum(&self.ptree, |p| p.cycles));
        report.set("processor.pvect_cycles", sum(&self.pvect, |p| p.cycles));
        report.set(
            "processor.stall_cycles",
            sum(&self.ptree, |p| p.stall_cycles),
        );
        report.set(
            "processor.issue_efficiency",
            sum(&self.ptree, |p| p.source_ops) / sum(&self.ptree, |p| p.issued_ops),
        );
        report.set(
            "processor.memory_loads",
            sum(&self.ptree, |p| p.memory_loads),
        );
        report.set(
            "processor.memory_stores",
            sum(&self.ptree, |p| p.memory_stores),
        );
        report.set(
            "processor.operand_reads",
            sum(&self.ptree, |p| p.operand_reads),
        );
        report.set("processor.writebacks", sum(&self.ptree, |p| p.writebacks));
        let cores = &self.mc.per_core;
        let core_sum =
            |f: fn(&spn_processor::CorePerf) -> u64| cores.iter().map(f).sum::<u64>() as f64;
        report.set(
            "processor.mc4_makespan_cycles",
            self.mc.makespan_cycles as f64,
        );
        report.set(
            "processor.mc4_compute_cycles",
            core_sum(|c| c.compute_cycles),
        );
        report.set(
            "processor.mc4_memory_stall_cycles",
            core_sum(|c| c.memory_stall_cycles),
        );
        report.set(
            "processor.mc4_interconnect_stall_cycles",
            core_sum(|c| c.interconnect_stall_cycles),
        );
        report.set("processor.mc4_idle_cycles", core_sum(|c| c.idle_cycles));
        report.set(
            "platforms.cpu_model_ops_per_cycle",
            Self::geomean_opc(&self.cpu),
        );
        report.set(
            "platforms.gpu_model_ops_per_cycle",
            Self::geomean_opc(&self.gpu),
        );
    }

    /// Ours / paper beside the headline figures (meaningful on the paper's
    /// nine circuits only, so only `sim-fig4` calls this).
    fn paper(&self, report: &mut Report, traced: bool) {
        let (cpu, gpu, pvect, ptree) = (
            Self::geomean_opc(&self.cpu),
            Self::geomean_opc(&self.gpu),
            Self::geomean_opc(&self.pvect),
            Self::geomean_opc(&self.ptree),
        );
        let peak = self
            .ptree
            .iter()
            .map(PerfReport::ops_per_cycle)
            .fold(0.0, f64::max);
        let rows = [
            (
                "paper.ptree_peak_ratio",
                "Ptree peak ops/cycle",
                peak,
                PAPER_PTREE_PEAK,
            ),
            (
                "paper.vs_cpu_ratio",
                "Ptree vs CPU",
                ptree / cpu,
                PAPER_VS_CPU,
            ),
            (
                "paper.vs_gpu_ratio",
                "Ptree vs GPU",
                ptree / gpu,
                PAPER_VS_GPU,
            ),
            (
                "paper.vs_pvect_ratio",
                "Ptree vs Pvect",
                ptree / pvect,
                PAPER_VS_PVECT,
            ),
        ];
        report.note(format!(
            "geometric means (ops/cycle): CPU {cpu:.2}, GPU {gpu:.2}, Pvect {pvect:.2}, Ptree {ptree:.2}"
        ));
        for (name, label, ours, paper) in rows {
            report.note(format!(
                "{label}: ours {ours:.2} / paper {paper} = {:.3}",
                ours / paper
            ));
            if traced {
                report.set(name, ours / paper);
            }
        }
        report.note(
            "the repo holds no per-circuit reference results: the per-circuit model is unvalidated"
                .to_string(),
        );
    }
}

/// The exactness check: a second, independent pass over the circuits at
/// `indices` (fresh engines compiled from scratch) must reproduce their
/// simulated and compile-time counters bit for bit.
fn check_repeats(
    first: &SimStats,
    circuits: &[(&str, &Spn)],
    batches: &[EvidenceBatch],
    indices: std::ops::Range<usize>,
    report: &mut Report,
) -> Result<(), BackendError> {
    let mut scratch = Report::default();
    let second = SimBench::build(
        &circuits[indices.clone()],
        batches[indices.clone()].to_vec(),
        &mut Tracer::new(false),
    )?
    .run_once(&mut scratch)?;
    let same = |a: &[PerfReport], b: &[PerfReport]| a[indices.clone()] == *b;
    let all = indices.len() == circuits.len();
    report.check(
        scratch.failed == 0
            && same(&first.cpu, &second.cpu)
            && same(&first.gpu, &second.gpu)
            && same(&first.pvect, &second.pvect)
            && same(&first.ptree, &second.ptree)
            && first.compile[indices.clone()] == second.compile[..]
            && (!all || first.mc == second.mc),
        || "simulated statistics differ between two passes over the same inputs".to_string(),
    );
    Ok(())
}

/// Simulates a workload's own circuits once (after its measurement) and
/// adds the `sim_*` end-to-end metrics or the exact per-layer counters.
///
/// # Errors
///
/// Returns the backend's error when a circuit does not compile or run.
pub fn summarize_circuits(
    args: &Args,
    circuits: &[(&str, &Spn)],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), BackendError> {
    let batches = SimBench::batches(args.seed, circuits.iter().map(|(_, spn)| spn.num_vars()));
    let mut bench = SimBench::build(circuits, batches.clone(), tracer)?;
    let stats = bench.run_once(report)?;
    if args.trace {
        stats.per_layer(report);
        set_build_times(tracer, report);
    } else {
        stats.end_to_end(bench.largest, report);
    }
    // Recompiling doubles the cost, so the second pass covers the cheapest
    // circuit: compilation and simulation must both be deterministic.
    let smallest = (0..circuits.len())
        .min_by_key(|&i| bench.circuits[i].ops)
        .expect("at least one circuit");
    check_repeats(&stats, circuits, &batches, smallest..smallest + 1, report)
}

/// Build-side per-layer times from the spans `SimBench::build` recorded.
fn set_build_times(tracer: &Tracer, report: &mut Report) {
    let totals = tracer.totals();
    let seconds = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    report.set("core.flatten_s", seconds("core.flatten"));
    report.set("platforms.engine_new_s", seconds("platforms.engine_new"));
    report.set("compiler.compile_s", seconds("compiler.compile"));
    report.set("compiler.verify_s", seconds("compiler.verify"));
    if totals.contains_key("learn.build") {
        report.set("learn.build_s", seconds("learn.build"));
    }
}

/// `sim-fig4`: the paper's nine circuits learned, compiled and simulated on
/// all four platforms, then the Ptree simulator's host speed rated on
/// repeated sweeps over the nine.
///
/// # Errors
///
/// Returns the backend's error when a circuit does not compile or run.
pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Report, BackendError> {
    let mut report = Report::default();
    let benchmarks = Benchmark::all();
    let batches = SimBench::batches(args.seed, benchmarks.iter().map(|b| b.spec().num_vars));

    // Learning dominates set-up (BBC alone takes seconds), so it repeats the
    // minimum number of times.
    let build = |tracer: &mut Tracer| -> Result<(Vec<Spn>, SimBench), BackendError> {
        let spns: Vec<Spn> = benchmarks
            .iter()
            .enumerate()
            .map(|(i, b)| tracer.span("learn.build", i as u64, || b.spn()))
            .collect();
        let circuits: Vec<(&str, &Spn)> = benchmarks.iter().map(|b| b.name()).zip(&spns).collect();
        let bench = SimBench::build(&circuits, batches.clone(), tracer)?;
        Ok((spns, bench))
    };
    let (spns, mut bench) = harness::setup(args, &mut report, std::time::Duration::ZERO, || {
        build(tracer)
    })?;
    let circuits: Vec<(&str, &Spn)> = benchmarks.iter().map(|b| b.name()).zip(&spns).collect();

    let stats = bench.run_once(&mut report)?;
    for (i, (name, _)) in circuits.iter().enumerate() {
        report.note(format!(
            "{name:<13} ops/cycle: CPU {:.3}  GPU {:.3}  Pvect {:.3}  Ptree {:.3}",
            stats.cpu[i].ops_per_cycle(),
            stats.gpu[i].ops_per_cycle(),
            stats.pvect[i].ops_per_cycle(),
            stats.ptree[i].ops_per_cycle(),
        ));
    }
    report.note(format!(
        "{MC_CORES}-core sharded Ptree on {}: {} (1 core: {} cycles)",
        circuits[bench.largest].0, stats.mc, stats.ptree[bench.largest].cycles
    ));
    stats.paper(&mut report, args.trace);

    let largest = bench.largest;
    let sim_cycles: u64 = stats.ptree.iter().map(|p| p.cycles).sum();
    let sim_instructions: u64 = stats.ptree.iter().map(|p| p.instructions).sum();
    let mut components = bench.sweep_components()?;
    let traced = harness::measure(args, &mut components, tracer, &mut report);
    drop(components);
    if args.trace {
        // Host cost of the simulator per simulated event: one sweep at
        // fast-quartile speed over the cycles and instructions it simulates.
        let sweep_ns: f64 = traced
            .iter()
            .map(|r| r.queries_per_op / r.rate().fast * 1e9)
            .sum();
        report.set(
            "processor.host_ns_per_sim_cycle",
            sweep_ns / sim_cycles as f64,
        );
        report.set(
            "processor.host_ns_per_instruction",
            sweep_ns / sim_instructions as f64,
        );
        stats.per_layer(&mut report);
        set_build_times(tracer, &mut report);
    } else {
        stats.end_to_end(largest, &mut report);
    }
    check_repeats(&stats, &circuits, &batches, 0..circuits.len(), &mut report)?;
    Ok(report)
}
