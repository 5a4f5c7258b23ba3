//! Static-analysis CI gate: lints models and golden artifacts, exits
//! non-zero on findings.
//!
//! Runs the three analyses of the static-verification layer
//! ([`spn_core::analysis`] + [`spn_compiler::verify`]) over a configurable
//! set of subjects and prints every diagnostic with its stable code:
//!
//! * `--benchmarks` — the nine shipped benchmark circuits
//!   ([`spn_learn::Benchmark`]): structural lints once per model, numeric
//!   range analysis at every `NumericMode` × `Precision::SWEEP` combination,
//!   and schedule verification of the Ptree and Pvect compilations in both
//!   numeric domains,
//! * `--golden` — every committed golden-trace workload
//!   ([`spn_bench::traces::trace_cases`]): range analysis of the lowered
//!   program plus schedule verification of exactly the artifact the trace
//!   renders,
//! * `FILE...` — SPN text files ([`spn_core::io::parse_text`]): structural
//!   lints plus range analysis in both numeric domains at full precision.
//!
//! With no subject flags and no files, `--benchmarks --golden` is implied —
//! the full CI sweep.
//!
//! Exit status: `1` when any `error`-level diagnostic is found, or — under
//! `--deny warnings` (the CI mode) — when any `warn`-level diagnostic is
//! found.  `info` findings are always reported but never fatal.
//!
//! ```text
//! cargo run --release -p spn-bench --bin spn_lint -- --deny warnings
//! cargo run --release -p spn-bench --bin spn_lint -- model.spn
//! ```

use spn_bench::traces::trace_cases;
use spn_compiler::{verify_artifact, Compiler};
use spn_core::analysis::{self, Diagnostic, Severity};
use spn_core::flatten::OpList;
use spn_core::{io, NumericMode, Precision, Spn};
use spn_learn::Benchmark;
use spn_processor::ProcessorConfig;

/// One linted subject: a label for the report plus its diagnostics.
struct Report {
    label: String,
    diagnostics: Vec<Diagnostic>,
}

fn lint_model(label: &str, spn: &Spn, reports: &mut Vec<Report>) {
    reports.push(Report {
        label: format!("{label} [structure]"),
        diagnostics: analysis::lint_spn(spn),
    });
    let linear = OpList::from_spn(spn);
    for mode in [NumericMode::Linear, NumericMode::Log] {
        let lowered = match mode {
            NumericMode::Linear => linear.clone(),
            NumericMode::Log => linear.to_log_domain(),
        };
        for precision in Precision::SWEEP {
            let ops = lowered.clone().with_precision(precision);
            reports.push(Report {
                label: format!("{label} [ranges {mode} {precision}]"),
                diagnostics: analysis::lint_ranges(&ops),
            });
        }
    }
}

fn verify_model_schedules(label: &str, spn: &Spn, reports: &mut Vec<Report>) {
    let ptree = Compiler::new(ProcessorConfig::ptree());
    let pvect = Compiler::new(ProcessorConfig::pvect());
    let linear = OpList::from_spn(spn);
    for mode in [NumericMode::Linear, NumericMode::Log] {
        let ops = match mode {
            NumericMode::Linear => linear.clone(),
            NumericMode::Log => linear.to_log_domain(),
        };
        // Every program shape the scheduler emits: deep tiles and
        // single-level tiles.
        for (shape, compiler) in [("Ptree", &ptree), ("Pvect", &pvect)] {
            let artifact = compiler.compile_op_list(ops.clone()).unwrap_or_else(|err| {
                eprintln!("{label}: {shape} compilation failed: {err}");
                std::process::exit(2);
            });
            let diagnostics = verify_artifact(&artifact);
            reports.push(Report {
                label: format!("{label} [schedule {mode} {shape}]"),
                diagnostics,
            });
        }
    }
}

fn lint_benchmarks(reports: &mut Vec<Report>) {
    for benchmark in Benchmark::all() {
        let label = format!("benchmark {}", benchmark.name());
        let spn = benchmark.spn();
        lint_model(&label, &spn, reports);
        verify_model_schedules(&label, &spn, reports);
    }
}

fn lint_golden(reports: &mut Vec<Report>) {
    for case in trace_cases() {
        let label = format!("golden {}", case.name);
        let ops = case.op_list();
        reports.push(Report {
            label: format!("{label} [ranges]"),
            diagnostics: analysis::lint_ranges(&ops),
        });
        let compiler = Compiler::new(case.config().core);
        let diagnostics = match compiler.compile_op_list(ops) {
            Ok(artifact) => verify_artifact(&artifact),
            Err(err) => {
                eprintln!("{label}: compilation failed: {err}");
                std::process::exit(2);
            }
        };
        reports.push(Report {
            label: format!("{label} [schedule]"),
            diagnostics,
        });
    }
}

fn lint_file(path: &str, reports: &mut Vec<Report>) {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("{path}: cannot read: {err}");
            std::process::exit(2);
        }
    };
    let spn = match io::parse_text(&text) {
        Ok(spn) => spn,
        Err(err) => {
            eprintln!("{path}: cannot parse: {err}");
            std::process::exit(2);
        }
    };
    lint_model(path, &spn, reports);
}

fn main() {
    let mut deny_warnings = false;
    let mut benchmarks = false;
    let mut golden = false;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => match args.next().as_deref() {
                Some("warnings") => deny_warnings = true,
                other => {
                    eprintln!("--deny expects `warnings`, got {other:?}");
                    std::process::exit(2);
                }
            },
            "--benchmarks" => benchmarks = true,
            "--golden" => golden = true,
            "--help" | "-h" => {
                println!("usage: spn_lint [--deny warnings] [--benchmarks] [--golden] [FILE...]");
                return;
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag:?}");
                std::process::exit(2);
            }
            file => files.push(file.to_string()),
        }
    }
    if !benchmarks && !golden && files.is_empty() {
        benchmarks = true;
        golden = true;
    }

    let mut reports = Vec::new();
    if benchmarks {
        lint_benchmarks(&mut reports);
    }
    if golden {
        lint_golden(&mut reports);
    }
    for file in &files {
        lint_file(file, &mut reports);
    }

    let threshold = if deny_warnings {
        Severity::Warn
    } else {
        Severity::Error
    };
    let mut findings = 0usize;
    let mut fatal = 0usize;
    for report in &reports {
        for diagnostic in &report.diagnostics {
            findings += 1;
            if diagnostic.severity >= threshold {
                fatal += 1;
            }
            println!("{}: {diagnostic}", report.label);
        }
    }
    println!(
        "spn_lint: {} subject(s), {findings} finding(s), {fatal} at or above {threshold}",
        reports.len()
    );
    if fatal > 0 {
        std::process::exit(1);
    }
}
