//! Benchmark harness for the SPN processor reproduction.
//!
//! The binaries in `src/bin` regenerate the paper's evaluation artifacts:
//!
//! * `paper_figures` — Fig. 4 (operations/cycle of CPU, GPU, Pvect and
//!   Ptree on the nine benchmark circuits, each circuit's 4-core sharded
//!   split and single-core headroom), Fig. 2c (CPU vs GPU throughput while
//!   sweeping the GPU thread count), Table I (the platforms' compute and
//!   memory resources) and the scoreboard of [`paper`]: each claim of the
//!   paper beside ours, with its verdict,
//! * `ablation` — sweeps over the design choices (tree depth, register
//!   banks, bank-allocation policy),
//! * `scaling` — the two wall-clock sweeps the repo benchmark (`benchmark/`,
//!   which measures everything else) does not carry: worker-thread scaling
//!   of `Engine::execute_batch_parallel` and held-connection scaling of the
//!   `poll(2)` TCP front-end; every output checked, markdown on stdout,
//!   `--smoke` for CI,
//! * `record_traces` — regenerates (`--bless`) or verifies (`--check`, the
//!   CI gate) the committed golden per-cycle traces of the multi-core
//!   simulator under `tests/golden_traces/` (cases in [`traces`]),
//! * `spn_lint` — static-analysis gate: lints the shipped benchmark models
//!   and the golden-trace workloads (structural lints, numeric range
//!   analysis at every mode × precision, schedule verification of the
//!   compiled artifacts) plus any SPN text files given as arguments;
//!   `--deny warnings` (the CI mode) fails on any warn-level finding.
//!
//! The library part holds the shared plumbing: running one evidence batch on
//! every platform through the two-phase [`Engine`], checking that every
//! platform computes the same root values, the paper scoreboard ([`paper`])
//! and the golden-trace cases and their check ([`traces`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(unnameable_types)]

use spn_core::batch::EvidenceBatch;
use spn_core::flatten::OpList;
use spn_core::Spn;
use spn_platforms::{
    Backend, BackendError, CpuModel, Engine, GpuModel, PerfReport, ProcessorBackend,
};

pub mod paper;
pub mod stats;
pub mod traces;

/// One platform's batched run: its counters and every query's root value
/// (for cross-platform parity checks).
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformRun {
    /// Workload name.
    pub workload: String,
    /// The batch's counters; `perf.platform` names the platform (`CPU`,
    /// `GPU`, `Pvect`, `Ptree`, ...).
    pub perf: PerfReport,
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
    Ok(PlatformRun {
        workload: workload.to_string(),
        perf: out.perf,
        values: out.values,
    })
}

/// Runs one batched workload on all four platforms of Fig. 4 (CPU, GPU,
/// Pvect, Ptree) and cross-checks that every platform computes the same root
/// value for every query ([`check_agreement`] against the CPU model).
///
/// # Errors
///
/// Returns an error when any platform fails or disagrees on any value.
pub fn run_all_platforms(
    workload: &str,
    spn: &Spn,
    batch: &EvidenceBatch,
) -> Result<Vec<PlatformRun>, BackendError> {
    let ops = OpList::from_spn(spn);
    let runs = vec![
        run_backend(workload, CpuModel::new(), &ops, batch)?,
        run_backend(workload, GpuModel::new(), &ops, batch)?,
        run_backend(workload, ProcessorBackend::pvect(), &ops, batch)?,
        run_backend(workload, ProcessorBackend::ptree(), &ops, batch)?,
    ];
    for run in &runs[1..] {
        check_agreement(&runs[0], run)?;
    }
    Ok(runs)
}

/// Checks that `run` computed the root values of `reference` (the same
/// batch on another platform): one per query, each with the same bits.
///
/// # Errors
///
/// Returns an error naming the first query that disagrees.
pub fn check_agreement(reference: &PlatformRun, run: &PlatformRun) -> Result<(), BackendError> {
    let (workload, expected) = (&reference.workload, &reference.values);
    if run.values.len() != expected.len() {
        return Err(format!(
            "platform {} returned {} values for a {}-query batch on {}",
            run.perf.platform,
            run.values.len(),
            expected.len(),
            workload
        )
        .into());
    }
    for (q, (value, expected)) in run.values.iter().zip(expected).enumerate() {
        if value.to_bits() != expected.to_bits() {
            return Err(format!(
                "platform {} disagrees on {} query {}: {} vs {}",
                run.perf.platform, workload, q, value, expected
            )
            .into());
        }
    }
    Ok(())
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
        let names: Vec<&str> = results.iter().map(|r| r.perf.platform.as_str()).collect();
        assert_eq!(names, vec!["CPU", "GPU", "Pvect", "Ptree"]);
        assert!(results.iter().all(|r| r.perf.queries == 3));
        assert!(results.iter().all(|r| r.perf.cycles_per_query() > 0.0));
    }

    /// The trajectory file is read by people and scripts, not by a program
    /// that would notice drift: every `BENCH_history.jsonl` line must carry
    /// a median and a quartile distance for exactly the workload ×
    /// end-to-end-metric pairs `BENCHMARK.json` declares, so a renamed
    /// metric fails here rather than in a reader.
    #[test]
    fn bench_history_lines_cover_the_declared_end_to_end_pairs() {
        use spn_serve::json::{parse, Value};
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let read = |name: &str| std::fs::read_to_string(root.join(name)).expect(name);
        let spec = parse(&read("BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |list: &str| -> Vec<&str> {
            let items = spec.get(list).and_then(Value::as_arr).expect(list);
            items
                .iter()
                .map(|item| item.get("name").and_then(Value::as_str).expect("name"))
                .collect()
        };
        let mut declared: Vec<String> = Vec::new();
        for workload in names("workloads") {
            for metric in names("end_to_end") {
                declared.push(format!("{workload}/{metric}"));
            }
        }
        declared.sort();

        let history = read("BENCH_history.jsonl");
        assert!(history.lines().count() > 0, "no history lines");
        for (n, line) in history.lines().enumerate() {
            let record = parse(line).unwrap_or_else(|err| panic!("line {}: {err}", n + 1));
            assert!(record.get("base").and_then(Value::as_str).is_some());
            for field in ["pr", "host_cores", "runs", "run_seconds"] {
                let value = record.get(field).and_then(Value::as_f64);
                assert!(value.is_some_and(|v| v >= 1.0), "line {}: {field}", n + 1);
            }
            for field in ["median", "iqr"] {
                let Some(Value::Obj(pairs)) = record.get(field) else {
                    panic!("line {}: no {field} object", n + 1);
                };
                let finite = |v: &Value| v.as_f64().is_some_and(f64::is_finite);
                assert!(pairs.iter().all(|(_, v)| finite(v)), "line {}", n + 1);
                let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
                keys.sort_unstable();
                assert_eq!(keys, declared, "line {}: {field} keys", n + 1);
            }
        }
    }
}
