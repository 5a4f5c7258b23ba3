//! `compare`: two result files side by side, judged by the bounds in
//! `BENCHMARK.json`.  The tool for a change's no-regression table and for
//! the benchmark's own self-agreement (the same code run twice).

use std::process::ExitCode;

use spn_platforms::BackendError;

use crate::results::{RunFile, WorkloadResult};
use crate::spec::{is_exact, MetricSpec, Spec};
use crate::stats;

/// How one metric of one workload moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the base by more than the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Regressed,
    /// Worse by more than the bound, but one of the runs was itself noisier
    /// than the bound: say unresolved, not regressed, and run again.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of the base value `new` is worse (negative when better).
pub fn worse_by(metric: &MetricSpec, base: f64, new: f64) -> f64 {
    let delta = if metric.higher_is_better {
        base - new
    } else {
        new - base
    };
    delta / base.abs()
}

/// Judges one metric of one workload.  An exact metric repeats bit for bit,
/// so no amount of noise excuses it.
pub fn judge(metric: &MetricSpec, base: &WorkloadResult, new: &WorkloadResult) -> Option<Verdict> {
    let (b, n) = (base.metric(&metric.name)?, new.metric(&metric.name)?);
    let bound = metric.bound?;
    if worse_by(metric, b, n) <= bound {
        return Some(Verdict::Ok);
    }
    let noisy = |w: &WorkloadResult| w.slice_spread.is_some_and(|s| s - 1.0 > bound);
    Some(if !is_exact(&metric.name) && (noisy(base) || noisy(new)) {
        Verdict::Unresolved
    } else {
        Verdict::Regressed
    })
}

fn read_run_file(path: &str) -> Result<RunFile, BackendError> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    RunFile::parse(&text)
}

/// Prints the comparison; the exit code is non-zero on any `regressed` row
/// or when the new file has a higher share of failed operations.
///
/// # Errors
///
/// Returns a file that cannot be read or parsed.
pub fn compare_files(spec: &Spec, base: &str, new: &str) -> Result<ExitCode, BackendError> {
    let (base_file, new_file) = (read_run_file(base)?, read_run_file(new)?);
    println!(
        "base {base} (seed {}, {} s)   new {new} (seed {}, {} s)",
        base_file.seed, base_file.seconds, new_file.seed, new_file.seconds
    );
    println!(
        "{:<14} {:<22} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    let mut bad = false;
    for b in &base_file.workloads {
        let Some(n) = new_file.workloads.iter().find(|w| w.workload == b.workload) else {
            println!("{:<14} missing from {new}", b.workload);
            bad = true;
            continue;
        };
        for metric in &spec.end_to_end {
            let (Some(verdict), Some(bv), Some(nv)) = (
                judge(metric, b, n),
                b.metric(&metric.name),
                n.metric(&metric.name),
            ) else {
                continue;
            };
            bad |= verdict == Verdict::Regressed;
            println!(
                "{:<14} {:<22} {:>16.6} {:>16.6} {:>9.4} {:>7}  {}",
                b.workload,
                metric.name,
                bv,
                nv,
                nv / bv,
                metric.bound.unwrap_or(0.0),
                verdict.label()
            );
        }
        let share = |w: &WorkloadResult| w.failed as f64 / w.attempted.max(1) as f64;
        if share(n) > share(b) {
            println!(
                "{:<14} failed_share rose from {} to {}",
                b.workload,
                share(b),
                share(n)
            );
            bad = true;
        }
    }
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Prints, for each end-to-end metric and workload, the median over the
/// given result files and the distance between the first and third quartile
/// as a share of it — the spread the benchmark must keep within the
/// metric's bound — and fails when one does not.
///
/// # Errors
///
/// Returns a file that cannot be read or parsed.
pub fn spread_files(spec: &Spec, paths: &[String]) -> Result<ExitCode, BackendError> {
    let files = paths
        .iter()
        .map(|path| read_run_file(path))
        .collect::<Result<Vec<_>, BackendError>>()?;
    println!(
        "{:<14} {:<22} {:>4} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "runs", "median", "spread", "bound"
    );
    let mut bad = false;
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let values: Vec<f64> = files
                .iter()
                .flat_map(|f| &f.workloads)
                .filter(|w| w.workload == workload.name)
                .filter_map(|w| w.metric(&metric.name))
                .collect();
            let (Some(spread), Some(bound)) = (stats::spread(&values), metric.bound) else {
                continue;
            };
            // `setup_s` is exempt from the spread rule, not from the print.
            let wide = spread > bound && metric.name != "setup_s";
            bad |= wide;
            println!(
                "{:<14} {:<22} {:>4} {:>16.6} {:>9.4} {:>7}  {}",
                workload.name,
                metric.name,
                values.len(),
                stats::median(&values),
                spread,
                bound,
                if wide {
                    "too wide"
                } else if spread > bound / 3.0 {
                    "within bound"
                } else {
                    "steady"
                }
            );
        }
    }
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: name.to_string(),
            unit: "1/s".to_string(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    fn result(name: &str, value: f64, spread: f64) -> WorkloadResult {
        WorkloadResult {
            workload: "w".to_string(),
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![(name.to_string(), value, "1/s".to_string())],
            slice_spread: Some(spread),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_the_runs_own_noise() {
        let rate = metric("queries_per_s", true, 0.10);
        let quiet = |v| result("queries_per_s", v, 1.03);
        assert_eq!(judge(&rate, &quiet(100.0), &quiet(95.0)), Some(Verdict::Ok));
        assert_eq!(
            judge(&rate, &quiet(100.0), &quiet(150.0)),
            Some(Verdict::Ok)
        );
        assert_eq!(
            judge(&rate, &quiet(100.0), &quiet(85.0)),
            Some(Verdict::Regressed)
        );
        let noisy = result("queries_per_s", 85.0, 1.3);
        assert_eq!(
            judge(&rate, &quiet(100.0), &noisy),
            Some(Verdict::Unresolved)
        );

        let latency = metric("latency_p50_ms", false, 0.10);
        let ms = |v| result("latency_p50_ms", v, 1.0);
        assert_eq!(judge(&latency, &ms(2.0), &ms(2.1)), Some(Verdict::Ok));
        assert_eq!(
            judge(&latency, &ms(2.0), &ms(2.5)),
            Some(Verdict::Regressed)
        );

        // Exact metrics: any worsening regresses, however noisy the run.
        let cycles = metric("sim_cycles_per_query", false, 1e-9);
        let sim = |v| result("sim_cycles_per_query", v, 1.5);
        assert_eq!(
            judge(&cycles, &sim(1000.0), &sim(1000.0)),
            Some(Verdict::Ok)
        );
        assert_eq!(
            judge(&cycles, &sim(1000.0), &sim(1001.0)),
            Some(Verdict::Regressed)
        );
        assert_eq!(judge(&cycles, &sim(1000.0), &sim(999.0)), Some(Verdict::Ok));
        assert_eq!(judge(&rate, &quiet(1.0), &result("other", 1.0, 1.0)), None);
    }
}
