//! Benchmark harness for the SPN processor reproduction.
//!
//! The binaries in `src/bin` regenerate the paper's evaluation artifacts:
//!
//! * `fig2c` — CPU vs GPU throughput while sweeping the GPU thread count,
//! * `table1` — the compute/memory resource table of the four platforms,
//! * `fig4`  — operations/cycle of CPU, GPU, Pvect and Ptree on the nine
//!   benchmark circuits, plus the headline speed-up summary,
//! * `ablation` — sweeps over the design choices (tree depth, register
//!   banks, bank-allocation policy),
//! * `bench_engine` — wall-clock throughput of the two-phase engine at
//!   different evidence batch sizes (`BENCH_engine.json`),
//! * `bench_serve` — open-loop load generator for the `spn-serve` inference
//!   service, sweeping request rate × batching policy × worker count
//!   (`BENCH_serve.json`, appended across runs),
//! * `bench_check` — CI gate validating that the emitted `BENCH_*.json`
//!   files are well-formed, non-empty and schema-consistent,
//! * `record_traces` — regenerates (`--bless`) or verifies (`--check`, the
//!   CI gate) the committed golden per-cycle traces of the multi-core
//!   simulator under `tests/golden_traces/` (cases in [`traces`]),
//! * `spn_lint` — static-analysis gate: lints the shipped benchmark models
//!   and the golden-trace workloads (structural lints, numeric range
//!   analysis at every mode × precision, schedule verification of the
//!   compiled artifacts) plus any SPN text files given as arguments;
//!   `--deny warnings` (the CI mode) fails on any warn-level finding.
//!
//! `bench_engine` and `bench_serve` accept `--smoke` for the fast CI sweep.
//!
//! The library part holds the shared plumbing: running one evidence batch on
//! every platform through the two-phase [`Engine`], checking that every
//! platform computes the same root values, formatting result tables, and
//! the golden-trace case definitions ([`traces`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use spn_core::batch::EvidenceBatch;
use spn_core::flatten::OpList;
use spn_core::Spn;
use spn_platforms::{
    Backend, BackendError, CpuModel, Engine, GpuConfig, GpuModel, PerfReport, ProcessorBackend,
};
use spn_processor::ProcessorConfig;

pub mod stats;
pub mod traces;

/// Throughput of one platform on one batched workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformResult {
    /// Platform name (`CPU`, `GPU`, `Pvect`, `Ptree`, ...).
    pub platform: String,
    /// Workload name.
    pub workload: String,
    /// SPN arithmetic operations per inference pass.
    pub ops: u64,
    /// Evidence queries executed.
    pub queries: u64,
    /// Total modelled cycles over the whole batch.
    pub cycles: u64,
    /// Amortised cycles per query.
    pub cycles_per_query: f64,
    /// Effective throughput in operations per cycle.
    pub ops_per_cycle: f64,
    /// Root value of the batch's first query (for cross-checking).
    pub value: f64,
}

impl PlatformResult {
    fn from_perf(workload: &str, first_value: f64, perf: &PerfReport) -> Self {
        PlatformResult {
            platform: perf.platform.clone(),
            workload: workload.to_string(),
            ops: perf.source_ops.checked_div(perf.queries).unwrap_or(0),
            queries: perf.queries,
            cycles: perf.cycles,
            cycles_per_query: perf.cycles_per_query(),
            ops_per_cycle: perf.ops_per_cycle(),
            value: first_value,
        }
    }
}

/// One platform's batched run: the tabulated summary plus the per-query root
/// values (used for cross-platform parity checks).
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformRun {
    /// Tabulated summary.
    pub result: PlatformResult,
    /// Root value of every query, in batch order.
    pub values: Vec<f64>,
}

/// Compiles `ops` for `backend` and executes `batch` through a fresh
/// [`Engine`].
///
/// # Errors
///
/// Returns an error when compilation fails or the batch does not match the
/// workload.
pub fn run_backend<B: Backend>(
    workload: &str,
    backend: B,
    ops: &OpList,
    batch: &EvidenceBatch,
) -> Result<PlatformRun, BackendError> {
    let mut engine = Engine::from_ops(backend, ops)?;
    let out = engine.execute_batch(batch)?;
    let first = out.values.first().copied().unwrap_or(0.0);
    Ok(PlatformRun {
        result: PlatformResult::from_perf(workload, first, &out.perf),
        values: out.values,
    })
}

/// Runs the CPU baseline model over `batch`.
///
/// # Errors
///
/// Returns an error when the batch does not match the workload.
pub fn run_cpu(
    workload: &str,
    ops: &OpList,
    batch: &EvidenceBatch,
) -> Result<PlatformRun, BackendError> {
    run_backend(workload, CpuModel::new(), ops, batch)
}

/// Runs the GPU baseline model with `threads` threads per block.
///
/// # Errors
///
/// Returns an error when the batch does not match the workload.
pub fn run_gpu(
    workload: &str,
    ops: &OpList,
    batch: &EvidenceBatch,
    threads: usize,
) -> Result<PlatformRun, BackendError> {
    let model = GpuModel::with_config(GpuConfig {
        name: if threads == 256 {
            "GPU".to_string()
        } else {
            format!("GPU-{threads}")
        },
        ..GpuConfig::with_threads(threads)
    });
    run_backend(workload, model, ops, batch)
}

/// Compiles the workload for `config` once and runs `batch` on the
/// cycle-accurate processor simulator.
///
/// # Errors
///
/// Returns an error when compilation or simulation fails.
pub fn run_processor(
    workload: &str,
    ops: &OpList,
    batch: &EvidenceBatch,
    config: &ProcessorConfig,
) -> Result<PlatformRun, BackendError> {
    run_backend(workload, ProcessorBackend::new(config.clone())?, ops, batch)
}

/// Runs one batched workload on all four platforms of Fig. 4 (CPU, GPU,
/// Pvect, Ptree) and cross-checks that every platform computes the same root
/// value for every query.
///
/// # Errors
///
/// Returns an error when any platform fails or disagrees on any value.
pub fn run_all_platforms(
    workload: &str,
    spn: &Spn,
    batch: &EvidenceBatch,
) -> Result<Vec<PlatformResult>, BackendError> {
    let ops = OpList::from_spn(spn);
    let runs = vec![
        run_cpu(workload, &ops, batch)?,
        run_gpu(workload, &ops, batch, 256)?,
        run_processor(workload, &ops, batch, &ProcessorConfig::pvect())?,
        run_processor(workload, &ops, batch, &ProcessorConfig::ptree())?,
    ];
    let reference = &runs[0].values;
    for run in &runs[1..] {
        if run.values.len() != reference.len() {
            return Err(format!(
                "platform {} returned {} values for a {}-query batch on {}",
                run.result.platform,
                run.values.len(),
                reference.len(),
                workload
            )
            .into());
        }
        for (q, (value, expected)) in run.values.iter().zip(reference).enumerate() {
            let tolerance = 1e-9 * expected.abs().max(1e-30);
            if (value - expected).abs() > tolerance {
                return Err(format!(
                    "platform {} disagrees on {} query {}: {} vs {}",
                    run.result.platform, workload, q, value, expected
                )
                .into());
            }
        }
    }
    Ok(runs.into_iter().map(|r| r.result).collect())
}

/// Formats results as a GitHub-flavoured markdown table with one row per
/// workload and one column per platform (operations per cycle).
pub fn markdown_table(results: &[PlatformResult]) -> String {
    let mut workloads: Vec<String> = Vec::new();
    let mut platforms: Vec<String> = Vec::new();
    for r in results {
        if !workloads.contains(&r.workload) {
            workloads.push(r.workload.clone());
        }
        if !platforms.contains(&r.platform) {
            platforms.push(r.platform.clone());
        }
    }
    let mut out = String::new();
    out.push_str("| workload | ");
    out.push_str(&platforms.join(" | "));
    out.push_str(" |\n|---|");
    out.push_str(&"---|".repeat(platforms.len()));
    out.push('\n');
    for w in &workloads {
        out.push_str(&format!("| {w} |"));
        for p in &platforms {
            let cell = results
                .iter()
                .find(|r| &r.workload == w && &r.platform == p)
                .map(|r| format!(" {:.2} |", r.ops_per_cycle))
                .unwrap_or_else(|| " - |".to_string());
            out.push_str(&cell);
        }
        out.push('\n');
    }
    out
}

/// The session-replay flip walk of `bench_engine` and `bench_serve`: delta
/// `q` flips `flips` rotating variables through observed-true /
/// observed-false / marginalised states, so consecutive deltas touch
/// different cones and the walk revisits every variable.
pub fn flip_schedule(
    num_vars: usize,
    flips: usize,
    total_deltas: usize,
) -> Vec<Vec<(usize, Option<bool>)>> {
    (0..total_deltas)
        .map(|q| {
            (0..flips)
                .map(|j| {
                    let var = (q * flips + j) % num_vars;
                    let observation = match (q + j) % 3 {
                        0 => Some(true),
                        1 => Some(false),
                        _ => None,
                    };
                    (var, observation)
                })
                .collect()
        })
        .collect()
}

/// Escapes a string for inclusion in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serialises a finite `f64` for JSON (non-finite values become `null`).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Serialises results to pretty JSON (hand-rolled: the offline build has no
/// serde_json; consumed when updating EXPERIMENTS.md).
pub fn to_json(results: &[PlatformResult]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "  {{\n",
                "    \"platform\": \"{}\",\n",
                "    \"workload\": \"{}\",\n",
                "    \"ops\": {},\n",
                "    \"queries\": {},\n",
                "    \"cycles\": {},\n",
                "    \"cycles_per_query\": {},\n",
                "    \"ops_per_cycle\": {},\n",
                "    \"value\": {}\n",
                "  }}{}\n",
            ),
            json_escape(&r.platform),
            json_escape(&r.workload),
            r.ops,
            r.queries,
            r.cycles,
            json_number(r.cycles_per_query),
            json_number(r.ops_per_cycle),
            json_number(r.value),
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn_core::Evidence;
    use spn_learn::Benchmark;

    fn mixed_batch(num_vars: usize) -> EvidenceBatch {
        let mut batch = EvidenceBatch::new(num_vars);
        batch.push_marginal();
        batch
            .push_assignment(&vec![true; num_vars])
            .expect("assignment arity");
        let mut partial = Evidence::marginal(num_vars);
        partial.observe(0, false);
        batch.push(&partial).expect("evidence arity");
        batch
    }

    #[test]
    fn all_platforms_agree_on_a_small_benchmark_batch() {
        let spn = Benchmark::Banknote.spn();
        let batch = mixed_batch(spn.num_vars());
        let results = run_all_platforms("Banknote", &spn, &batch).unwrap();
        assert_eq!(results.len(), 4);
        let names: Vec<&str> = results.iter().map(|r| r.platform.as_str()).collect();
        assert_eq!(names, vec!["CPU", "GPU", "Pvect", "Ptree"]);
        assert!(results.iter().all(|r| r.queries == 3));
        assert!(results.iter().all(|r| r.cycles_per_query > 0.0));
    }

    #[test]
    fn ptree_outperforms_the_baselines_on_a_medium_benchmark() {
        let spn = Benchmark::EegEye.spn();
        let batch = mixed_batch(spn.num_vars());
        let results = run_all_platforms("EEG-eye", &spn, &batch).unwrap();
        let get = |name: &str| {
            results
                .iter()
                .find(|r| r.platform == name)
                .unwrap()
                .ops_per_cycle
        };
        assert!(get("Ptree") > get("CPU"));
        assert!(get("Ptree") > get("GPU"));
        assert!(get("Ptree") > get("Pvect"));
    }

    #[test]
    fn markdown_table_mentions_every_platform() {
        let spn = Benchmark::Banknote.spn();
        let batch = mixed_batch(spn.num_vars());
        let results = run_all_platforms("Banknote", &spn, &batch).unwrap();
        let table = markdown_table(&results);
        for p in ["CPU", "GPU", "Pvect", "Ptree", "Banknote"] {
            assert!(table.contains(p), "missing {p} in\n{table}");
        }
        let json = to_json(&results);
        assert!(json.contains("Ptree"));
        assert!(json.contains("\"queries\": 3"));
    }

    #[test]
    fn json_escaping_handles_special_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(2.5), "2.5");
    }
}
