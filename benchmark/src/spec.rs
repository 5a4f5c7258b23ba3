//! The benchmark's declaration: `BENCHMARK.json` at the repo root is the one
//! place metric names, units, directions, bounds and workloads are written
//! down; it is compiled in, so the program and the file cannot drift.

use std::sync::OnceLock;

use spn_serve::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<WorkloadSpec>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Metrics that are counts or simulated statistics: the same seed must
/// reproduce them bit for bit, and `check` re-derives them from a second
/// pass.  Everything else is host time (or memory) and carries noise.
pub fn is_exact(name: &str) -> bool {
    const EXACT_LAYER: [&str; 10] = [
        "core.ops",
        "core.delta_recomputed_ops_mean",
        "core.delta_full_pass_share",
        "compiler.instructions",
        "compiler.nop_instructions",
        "compiler.copy_moves",
        "compiler.memory_loads",
        "compiler.memory_stores",
        "compiler.ops_per_instruction",
        "platforms.cpu_model_ops_per_cycle",
    ];
    name.starts_with("sim_")
        || name.starts_with("paper.")
        || name == "platforms.gpu_model_ops_per_cycle"
        || EXACT_LAYER.contains(&name)
        || (name.starts_with("processor.") && !name.starts_with("processor.host_"))
}

/// A name as the benchmark contract allows it: at most 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn parse_metrics(doc: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    let items = doc
        .get(key)
        .and_then(Value::as_arr)
        .ok_or(format!("BENCHMARK.json: `{key}` must be an array"))?;
    items
        .iter()
        .map(|item| {
            let text = |field: &str| {
                item.get(field)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("BENCHMARK.json: `{key}` entry without `{field}`"))
            };
            let higher_is_better = match text("better")?.as_str() {
                "higher" => true,
                "lower" => false,
                other => return Err(format!("BENCHMARK.json: better = {other:?}")),
            };
            Ok(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better,
                bound: item.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

fn parse(text: &str) -> Result<Spec, String> {
    let doc = json::parse(text)?;
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: `workloads` must be an array")?
        .iter()
        .map(|w| {
            let text = |field: &str| w.get(field).and_then(Value::as_str).map(str::to_string);
            Some(WorkloadSpec {
                name: text("name")?,
                why: text("why")?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json: a workload needs `name` and `why`")?;
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json: `run_seconds` must be a number")?,
        workloads,
        end_to_end: parse_metrics(&doc, "end_to_end")?,
        per_layer: parse_metrics(&doc, "per_layer")?,
    })
}

/// The compiled-in declaration.
///
/// # Panics
///
/// Panics when the committed `BENCHMARK.json` is malformed, which the crate's
/// tests catch before any run does.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(BENCHMARK_JSON).expect("committed BENCHMARK.json parses"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_declaration_meets_the_contract() {
        let spec = parse(BENCHMARK_JSON).unwrap();
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        let mut names: Vec<&str> = spec
            .workloads
            .iter()
            .map(|w| w.name.as_str())
            .chain(spec.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(spec.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        for w in &spec.workloads {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.name
            );
        }
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "set-up has the widest bound");
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }

    #[test]
    fn exact_metrics_are_the_counts_and_simulated_statistics() {
        assert!(is_exact("sim_ops_per_cycle"));
        assert!(is_exact("processor.ptree_cycles"));
        assert!(is_exact("compiler.instructions"));
        assert!(!is_exact("processor.host_ns_per_sim_cycle"));
        assert!(!is_exact("compiler.compile_s"));
        assert!(!is_exact("queries_per_s"));
    }
}
