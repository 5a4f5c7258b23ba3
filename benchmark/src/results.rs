//! Result records: the `check` every run ends with, the one-line JSON the
//! driver reads, and the file `run` writes and `compare` reads.

use spn_platforms::BackendError;
use spn_serve::json::{self, Value};

use crate::harness::{Args, Report};
use crate::spec::{valid_name, Spec};

/// The line that carries a run's own dispersion to `run` and `compare`.
const DIAGNOSTICS: &str = "diagnostics ";

/// One workload's checked result.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(String, f64, String)>,
    /// Third over first quartile of the run's slice times: the run's own
    /// noise, which `compare` holds against the regression bound.
    pub slice_spread: Option<f64>,
}

/// The `check` step: every metric declared in `BENCHMARK.json` for this
/// kind of run is present exactly once, finite, named within
/// `[A-Za-z0-9_.-]+` and carries its unit; nothing undeclared was produced.
/// A per-layer metric of a layer the workload never enters reads 0 (no work
/// done there); an end-to-end metric must be measured.  Prints the report.
///
/// # Errors
///
/// Returns what is missing, undeclared or not finite.
pub fn finish(
    spec: &Spec,
    args: &Args,
    mut report: Report,
) -> Result<WorkloadResult, BackendError> {
    let declared = spec.metrics(args.trace);
    if let Some(stray) = report
        .metrics
        .keys()
        .find(|name| !declared.iter().any(|m| &m.name == *name))
    {
        return Err(format!("{}: produced undeclared metric {stray:?}", args.workload).into());
    }
    let mut metrics = Vec::with_capacity(declared.len());
    for m in declared {
        let value = match report.metrics.remove(&m.name) {
            Some(value) => value,
            None if args.trace => 0.0,
            None => return Err(format!("{}: no value for {}", args.workload, m.name).into()),
        };
        if !value.is_finite() {
            return Err(format!("{}: {} = {value} is not finite", args.workload, m.name).into());
        }
        if !valid_name(&m.name) || m.unit.is_empty() {
            return Err(format!("malformed declaration of {:?}", m.name).into());
        }
        metrics.push((m.name.clone(), value, m.unit.clone()));
    }

    println!(
        "{} seed {} {} s {}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for failure in &report.failures {
        println!("  FAILED {failure}");
    }
    for (name, value, unit) in &metrics {
        let exact = if crate::spec::is_exact(name) {
            "  (exact)"
        } else {
            ""
        };
        println!("  {name:<42} {value:>18.6} {unit}{exact}");
    }
    println!(
        "  {} operations attempted, {} failed",
        report.attempted, report.failed
    );
    if let Some(spread) = report.slice_spread {
        println!("{DIAGNOSTICS}{{\"slice_spread\":{spread}}}");
    }
    Ok(WorkloadResult {
        workload: args.workload.clone(),
        correct: report.failed == 0 && report.attempted > 0,
        attempted: report.attempted.max(1),
        failed: report.failed,
        metrics,
        slice_spread: report.slice_spread,
    })
}

impl WorkloadResult {
    fn body(&self) -> Vec<(String, Value)> {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Value::Obj(vec![
                        ("value".to_string(), Value::Num(*value)),
                        ("unit".to_string(), Value::Str(unit.clone())),
                    ]),
                )
            })
            .collect();
        vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::Num(self.attempted as f64)),
            ("failed".to_string(), Value::Num(self.failed as f64)),
            ("metrics".to_string(), Value::Obj(metrics)),
        ]
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json_line(&self) -> String {
        Value::Obj(self.body()).to_json()
    }

    fn from_value(workload: &str, doc: &Value) -> Result<WorkloadResult, BackendError> {
        let count = |key: &str| {
            doc.get(key)
                .and_then(Value::as_f64)
                .map(|n| n as u64)
                .ok_or(format!("{workload}: result without `{key}`"))
        };
        let Some(Value::Obj(fields)) = doc.get("metrics") else {
            return Err(format!("{workload}: result without `metrics`").into());
        };
        let metrics = fields
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64);
                let unit = m.get("unit").and_then(Value::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                    _ => Err(format!("{workload}: metric {name} lacks value or unit")),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(WorkloadResult {
            workload: workload.to_string(),
            correct: matches!(doc.get("correct"), Some(Value::Bool(true))),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
            slice_spread: doc.get("slice_spread").and_then(Value::as_f64),
        })
    }

    /// Parses a child's result line, picking its dispersion out of the
    /// lines printed before it.
    ///
    /// # Errors
    ///
    /// Returns what the line lacks.
    pub fn parse(
        workload: &str,
        last: &str,
        earlier: &[&str],
    ) -> Result<WorkloadResult, BackendError> {
        let doc = json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
        let mut result = WorkloadResult::from_value(workload, &doc)?;
        result.slice_spread = earlier
            .iter()
            .rev()
            .find_map(|line| line.strip_prefix(DIAGNOSTICS))
            .and_then(|text| json::parse(text).ok())
            .and_then(|doc| doc.get("slice_spread").and_then(Value::as_f64));
        Ok(result)
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, value, _)| *value)
    }
}

/// What `run` writes: every workload's result for one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFile {
    pub seed: u64,
    pub trace: bool,
    pub seconds: f64,
    pub workloads: Vec<WorkloadResult>,
}

impl RunFile {
    pub fn to_json(&self) -> String {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                let mut body = w.body();
                if let Some(spread) = w.slice_spread {
                    body.push(("slice_spread".to_string(), Value::Num(spread)));
                }
                (w.workload.clone(), Value::Obj(body))
            })
            .collect();
        let mut text = Value::Obj(vec![
            ("seed".to_string(), Value::Num(self.seed as f64)),
            ("trace".to_string(), Value::Bool(self.trace)),
            ("seconds".to_string(), Value::Num(self.seconds)),
            ("workloads".to_string(), Value::Obj(workloads)),
        ])
        .to_json();
        text.push('\n');
        text
    }

    /// Parses a result file.
    ///
    /// # Errors
    ///
    /// Returns what the file lacks.
    pub fn parse(text: &str) -> Result<RunFile, BackendError> {
        let doc = json::parse(text)?;
        let Some(Value::Obj(workloads)) = doc.get("workloads") else {
            return Err("result file without `workloads`".into());
        };
        Ok(RunFile {
            seed: doc.get("seed").and_then(Value::as_f64).ok_or("no `seed`")? as u64,
            trace: matches!(doc.get("trace"), Some(Value::Bool(true))),
            seconds: doc
                .get("seconds")
                .and_then(Value::as_f64)
                .ok_or("no `seconds`")?,
            workloads: workloads
                .iter()
                .map(|(name, w)| WorkloadResult::from_value(name, w))
                .collect::<Result<_, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::spec;

    fn args(trace: bool) -> Args {
        Args {
            workload: "engine-batch".to_string(),
            seed: 1,
            seconds: 1.0,
            trace,
        }
    }

    fn full_report(trace: bool) -> Report {
        let mut report = Report {
            attempted: 10,
            slice_spread: Some(1.05),
            ..Report::default()
        };
        for m in spec().metrics(trace) {
            report.set(&m.name, 1.5);
        }
        report
    }

    #[test]
    fn check_wants_every_declared_metric_once_and_nothing_else() {
        let result = finish(spec(), &args(false), full_report(false)).unwrap();
        assert!(result.correct);
        let names: Vec<&str> = result.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let declared: Vec<&str> = spec().end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, declared);

        let mut missing = full_report(false);
        missing.metrics.remove("setup_s");
        assert!(finish(spec(), &args(false), missing).is_err());
        let mut stray = full_report(false);
        stray.set("made_up", 1.0);
        assert!(finish(spec(), &args(false), stray).is_err());
        let mut infinite = full_report(false);
        infinite.set("setup_s", f64::INFINITY);
        assert!(finish(spec(), &args(false), infinite).is_err());
        // A traced run reads 0 for a layer the workload never entered.
        let mut traced = full_report(true);
        traced.metrics.remove("learn.build_s");
        let result = finish(spec(), &args(true), traced).unwrap();
        assert_eq!(result.metric("learn.build_s"), Some(0.0));
        // A failed operation makes the run incorrect.
        let mut failed = full_report(false);
        failed.failed = 1;
        assert!(!finish(spec(), &args(false), failed).unwrap().correct);
    }

    #[test]
    fn result_lines_and_files_round_trip() {
        let result = finish(spec(), &args(false), full_report(false)).unwrap();
        let line = result.to_json_line();
        let doc = json::parse(&line).unwrap();
        let Value::Obj(keys) = &doc else { panic!() };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let parsed = WorkloadResult::parse(
            "engine-batch",
            &line,
            &["x", "diagnostics {\"slice_spread\":1.05}"],
        )
        .unwrap();
        assert_eq!(parsed, result);
        let file = RunFile {
            seed: 3,
            trace: false,
            seconds: 10.0,
            workloads: vec![result],
        };
        assert_eq!(RunFile::parse(&file.to_json()).unwrap(), file);
    }
}
