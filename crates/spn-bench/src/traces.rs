//! Golden per-cycle trace cases for the multi-core simulator.
//!
//! Each [`TraceCase`] pins one small deterministic workload — an SPN, a
//! numeric mode and a core count — and renders the full cycle-accurate
//! execution trace of every core of a sharded batch into one text artifact
//! committed under `tests/golden_traces/`.  The `record_traces` binary
//! regenerates the artifacts (`--bless`) or diffs fresh renderings against
//! the committed ones (`--check`, the CI gate), and the `golden_traces`
//! integration test runs the same [`check_golden_traces`] on every
//! `cargo test`.  The check also fails on a `.trace` file no case renders,
//! so a deleted case cannot leave its artifact behind.
//!
//! Because trace lines carry exact bit patterns and global cycle numbers,
//! any change to the timing model — instruction schedules, shared-memory
//! wave arbitration, each query's start on its core's shard timeline —
//! moves at least one line, and [`spn_processor::diff_traces`] pinpoints
//! the first divergent cycle.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use spn_compiler::Compiler;
use spn_core::batch::EvidenceBatch;
use spn_core::flatten::OpList;
use spn_core::numeric::NumericMode;
use spn_core::{Evidence, Spn, SpnBuilder, VarId};
use spn_platforms::BackendError;
use spn_processor::{MultiCoreConfig, MultiCoreProcessor, ProcessorConfig, TraceRecorder};

/// The deterministic circuit a trace case executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceCircuit {
    /// A 2-variable, 3-component mixture (8 ops).
    Mixture,
    /// The diagnostic sampler kernel ([`OpList::sampler_kernel`]): uniform
    /// draws compared against CDF thresholds on the sampler comparator PE
    /// op, acceptances summed — the processor's sampling datapath in
    /// golden-trace form.
    Sampler,
}

/// The fixed `(uniform draw, CDF threshold)` pairs of the sampler trace
/// case — eight comparisons, four of which accept (`u < t` strictly; the
/// tied pair rejects), so both comparator outcomes and the
/// acceptance-count reduction appear in the trace.
const SAMPLER_DRAWS: &[(f64, f64)] = &[
    (0.125, 0.5),
    (0.875, 0.5),
    (0.0625, 0.25),
    (0.75, 0.25),
    (0.375, 0.625),
    (0.96875, 0.875),
    (0.015625, 0.03125),
    (0.5, 0.5),
];

/// One golden-trace workload.
#[derive(Debug, Clone)]
pub struct TraceCase {
    /// Artifact name (`tests/golden_traces/<name>.trace`).
    pub name: &'static str,
    /// Numeric domain the program computes in.
    pub mode: NumericMode,
    /// Number of simulated cores, each running the whole program on a
    /// shard of the batch.
    pub cores: usize,
    circuit: TraceCircuit,
}

impl TraceCase {
    /// The multi-core configuration the case runs on (Ptree cores behind
    /// the default shared memory).
    pub fn config(&self) -> MultiCoreConfig {
        MultiCoreConfig::new(self.cores, ProcessorConfig::ptree())
    }

    /// The lowered program the case compiles — exactly what
    /// [`render_case`] hands to the compiler (linear or log domain per
    /// [`TraceCase::mode`]).  This is the hook `spn_lint --golden` uses to
    /// statically verify every committed golden workload.
    pub fn op_list(&self) -> OpList {
        let ops = match self.circuit {
            TraceCircuit::Mixture => OpList::from_spn(&mixture_spn()),
            // Sampler kernels are linear-domain by construction: the
            // comparator's 0/1 indicators have no log-domain reading.
            TraceCircuit::Sampler => return OpList::sampler_kernel(SAMPLER_DRAWS),
        };
        match self.mode {
            NumericMode::Linear => ops,
            NumericMode::Log => ops.to_log_domain(),
        }
    }

    fn batch(&self, num_vars: usize) -> EvidenceBatch {
        if num_vars == 0 {
            // Sampler kernels take no evidence: five empty rows re-run the
            // kernel, putting later queries on each core's cumulative
            // timeline exactly like the evidence-driven cases.
            let mut batch = EvidenceBatch::new(0);
            for _ in 0..5 {
                batch.push_marginal();
            }
            return batch;
        }
        // Five queries, so every shard of every tested core count holds at
        // least one query and multi-core shards hold at least two (later
        // queries sit on the core's cumulative timeline, where the
        // shared-memory contention model is visible to the differ).
        let mut batch = EvidenceBatch::new(num_vars);
        batch.push_marginal();
        batch.push_assignment(&vec![true; num_vars]).expect("vars");
        batch.push_assignment(&vec![false; num_vars]).expect("vars");
        let mut first = Evidence::marginal(num_vars);
        first.observe(0, false);
        batch.push(&first).expect("vars");
        let mut last = Evidence::marginal(num_vars);
        last.observe(num_vars - 1, true);
        batch.push(&last).expect("vars");
        batch
    }
}

fn mixture_spn() -> Spn {
    let mut b = SpnBuilder::new(2);
    let x0 = b.indicator(VarId(0), true);
    let nx0 = b.indicator(VarId(0), false);
    let x1 = b.indicator(VarId(1), true);
    let nx1 = b.indicator(VarId(1), false);
    let p0 = b.product(vec![x0, x1]).expect("product");
    let p1 = b.product(vec![nx0, nx1]).expect("product");
    let p2 = b.product(vec![x0, nx1]).expect("product");
    let root = b.sum(vec![(p0, 0.3), (p1, 0.5), (p2, 0.2)]).expect("sum");
    b.finish(root).expect("spn")
}

/// The committed golden-trace workloads: linear and log domain, one and two
/// cores, plus the sampler-kernel datapath.
pub fn trace_cases() -> Vec<TraceCase> {
    vec![
        TraceCase {
            name: "mixture_1core_sharded",
            mode: NumericMode::Linear,
            cores: 1,
            circuit: TraceCircuit::Mixture,
        },
        TraceCase {
            name: "mixture_2core_sharded",
            mode: NumericMode::Linear,
            cores: 2,
            circuit: TraceCircuit::Mixture,
        },
        TraceCase {
            name: "mixture_log_2core_sharded",
            mode: NumericMode::Log,
            cores: 2,
            circuit: TraceCircuit::Mixture,
        },
        TraceCase {
            name: "sampler_2core_sharded",
            mode: NumericMode::Linear,
            cores: 2,
            circuit: TraceCircuit::Sampler,
        },
    ]
}

/// The directory holding the committed golden traces
/// (`<repo>/tests/golden_traces`).
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("tests")
        .join("golden_traces")
}

/// Path of one case's committed golden trace.
pub fn golden_path(name: &str) -> PathBuf {
    golden_dir().join(format!("{name}.trace"))
}

/// Diffs a fresh rendering of every case against its committed golden
/// trace in [`golden_dir`], the check `record_traces --check` and the
/// `golden_traces` test share.  Returns how many traces matched.
///
/// # Errors
///
/// Returns the first failure — a `.trace` file there that no case renders,
/// an unreadable golden, a failed render or the first divergent cycle —
/// with what to do about it.
pub fn check_golden_traces() -> Result<usize, String> {
    check_golden_traces_in(&golden_dir())
}

/// [`check_golden_traces`] against the traces in `dir`.
fn check_golden_traces_in(dir: &Path) -> Result<usize, String> {
    let bless = "`cargo run -p spn-bench --bin record_traces -- --bless`";
    let cases = trace_cases();
    let entries = std::fs::read_dir(dir)
        .map_err(|err| format!("{}: cannot list golden traces ({err})", dir.display()))?;
    for entry in entries {
        let path = entry
            .map_err(|err| format!("{}: cannot list golden traces ({err})", dir.display()))?
            .path();
        let is_trace = path.extension().is_some_and(|ext| ext == "trace");
        let stem = path.file_stem().and_then(|stem| stem.to_str());
        if is_trace && !cases.iter().any(|case| Some(case.name) == stem) {
            return Err(format!(
                "{}: no trace case renders this file; delete it, or add its case to \
                 `spn_bench::traces::trace_cases`",
                path.display()
            ));
        }
    }
    for case in &cases {
        let path = dir.join(format!("{}.trace", case.name));
        let golden = std::fs::read_to_string(&path).map_err(|err| {
            let path = path.display();
            format!("{path}: cannot read golden trace ({err}); run {bless} and commit the result")
        })?;
        let actual =
            render_case(case).map_err(|err| format!("{}: render failed: {err}", case.name))?;
        if let Some(div) = spn_processor::diff_traces(&golden, &actual) {
            return Err(format!(
                "{}: golden trace diverged\n{div}\n\
                 If the timing change is intentional, re-bless with {bless}.",
                case.name
            ));
        }
    }
    Ok(cases.len())
}

/// Renders `case` on its default configuration.
///
/// # Errors
///
/// Returns an error when compilation or simulation fails.
pub fn render_case(case: &TraceCase) -> Result<String, BackendError> {
    render_case_with_config(case, &case.config())
}

/// Renders `case` on an explicit configuration (used by the perturbation
/// tests: the same case on a config with a different shared-memory model
/// must diverge from the golden trace).
///
/// # Errors
///
/// Returns an error when compilation or simulation fails.
pub fn render_case_with_config(
    case: &TraceCase,
    config: &MultiCoreConfig,
) -> Result<String, BackendError> {
    let ops = case.op_list();
    let compiler = Compiler::new(config.core.clone());
    let processor = MultiCoreProcessor::new(config.clone())?;
    let batch = case.batch(ops.num_vars());
    let mut recorders: Vec<TraceRecorder> = (0..config.cores)
        .map(|c| TraceRecorder::new(c as u32))
        .collect();
    let mut states = Vec::new();
    let mut flat = Vec::new();

    let compiled = compiler.compile_op_list(ops)?;
    compiled.fill_batch_inputs(&batch, &mut flat)?;
    let run = processor.run_batch_sharded_traced(
        &compiled.program,
        &flat,
        batch.len(),
        &mut states,
        &mut recorders,
    )?;

    let mut out = String::new();
    let _ = writeln!(out, "# golden trace: {}", case.name);
    let _ = writeln!(
        out,
        "# cores={} dispatch=sharded mode={:?} queries={}",
        config.cores,
        case.mode,
        batch.len()
    );
    for (q, value) in run.outputs.iter().enumerate() {
        let _ = writeln!(out, "# output q={q} r={:016x} # {value}", value.to_bits());
    }
    for recorder in &recorders {
        let _ = writeln!(out, "== core {} ==", recorder.core());
        recorder.render_into(&mut out);
    }
    // Cycle-attribution footer: pins the makespan and every core's bulk
    // compute / memory-stall / idle split (and the interconnect stall, 0
    // since no value crosses between cores), so even timing-model changes
    // that only move shard-level accounting (not individual event cycles)
    // fail the diff.
    let _ = writeln!(out, "# makespan={}", run.cores.makespan_cycles);
    for core in &run.cores.per_core {
        let _ = writeln!(
            out,
            "# perf core={} compute={} memstall={} icstall={} idle={}",
            core.core,
            core.compute_cycles,
            core.memory_stall_cycles,
            core.interconnect_stall_cycles,
            core.idle_cycles
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_and_distinct() {
        for case in trace_cases() {
            let a = render_case(&case).unwrap();
            let b = render_case(&case).unwrap();
            assert_eq!(a, b, "{} must render deterministically", case.name);
            assert!(
                a.lines().any(|l| l.starts_with('C')),
                "{} records no cycles",
                case.name
            );
        }
    }

    #[test]
    fn a_trace_file_no_case_renders_fails_the_check() {
        let dir = std::env::temp_dir().join(format!("spn_golden_orphan_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for case in trace_cases() {
            let path = dir.join(format!("{}.trace", case.name));
            std::fs::write(path, render_case(&case).unwrap()).unwrap();
        }
        std::fs::write(dir.join("notes.txt"), "not a trace").unwrap();
        let clean = check_golden_traces_in(&dir);
        std::fs::write(
            dir.join("deleted_case.trace"),
            "# golden trace: deleted_case\n",
        )
        .unwrap();
        let orphaned = check_golden_traces_in(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(clean, Ok(trace_cases().len()));
        let message = orphaned.expect_err("an orphaned trace fails the check");
        assert!(message.contains("deleted_case.trace"), "{message}");
    }
}
