//! The repo benchmark: seven workloads from spn-core to spn-serve, measured
//! end to end and, in a separate traced run, layer by layer.  See
//! `benchmark/README.md` for the command lines and what each number means.

#![forbid(unsafe_code)]

mod compare;
mod engine;
mod gen;
mod harness;
mod loadgen;
mod results;
mod sim;
mod spec;
mod stats;
mod sys;
mod tcp;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use harness::{Args, Report};
use results::{RunFile, WorkloadResult};
use spn_platforms::BackendError;
use trace::Tracer;

const USAGE: &str = "\
usage:
  spn-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one workload; the last line of stdout is its result as one JSON object
  spn-benchmark run --seed <n> [--trace] [--seconds <s>] [--out <file>]
      every workload, each in a process of its own; writes a result file
  spn-benchmark compare <base.json> <new.json>
      one row per end-to-end metric and workload, with a verdict
  spn-benchmark spread <result.json>...
      run-to-run spread of every end-to-end metric over several result files
  spn-benchmark workloads
      the workloads and why each is here";

/// Where traces and result files go: `benchmark/out/`.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn flag<'a>(argv: &'a [String], name: &str) -> Option<&'a str> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
}

fn run_workload(args: &Args, tracer: &mut Tracer) -> Result<Report, BackendError> {
    match args.workload.as_str() {
        "engine-batch" => engine::run_batch(args, tracer),
        "engine-modes" => engine::run_modes(args, tracer),
        "sim-fig4" => sim::run(args, tracer),
        name => match tcp::shape(name) {
            Some(shape) => tcp::run(args, shape, tracer),
            None => Err(format!("unknown workload {name:?}").into()),
        },
    }
}

/// Runs one workload in this process and prints its result.
fn single(argv: &[String]) -> Result<ExitCode, BackendError> {
    let spec = spec::spec();
    let number = |name: &str| -> Result<f64, BackendError> {
        let text = flag(argv, name).ok_or_else(|| format!("missing {name}\n{USAGE}"))?;
        Ok(text
            .parse::<f64>()
            .map_err(|e| format!("{name} {text}: {e}"))?)
    };
    let args = Args {
        workload: flag(argv, "--workload").ok_or(USAGE)?.to_string(),
        seed: flag(argv, "--seed")
            .ok_or(USAGE)?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: number("--seconds")?,
        trace: match flag(argv, "--trace") {
            Some("1") => true,
            Some("0") | None => false,
            Some(other) => return Err(format!("--trace {other}: expected 0 or 1").into()),
        },
    };
    if !spec.workloads.iter().any(|w| w.name == args.workload) {
        return Err(format!("unknown workload {:?}\n{USAGE}", args.workload).into());
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must lie in (0, 60]".into());
    }

    let (wall, cpu) = (Instant::now(), sys::thread_cpu_ns());
    let mut tracer = Tracer::new(args.trace);
    let mut report = run_workload(&args, &mut tracer)?;
    if !args.trace {
        report.set("peak_rss_mb", sys::peak_rss_mb());
    }
    if args.trace {
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{}.json", args.workload));
        std::fs::write(&path, tracer.to_json(&args.workload))?;
        report.note(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        ));
        for (name, totals) in tracer.totals() {
            report.note(format!(
                "span {name:<28} x{:<7} total {:>10.3} ms  self {:>10.3} ms",
                totals.count,
                totals.total_ns as f64 / 1e6,
                totals.self_ns as f64 / 1e6
            ));
        }
    }
    if let (Some(before), Some(after)) = (cpu, sys::thread_cpu_ns()) {
        report.note(format!(
            "main thread: {:.2} s on a CPU of {:.2} s wall",
            (after - before) as f64 / 1e9,
            wall.elapsed().as_secs_f64()
        ));
    }

    let result = results::finish(spec, &args, report)?;
    println!("{}", result.to_json_line());
    // Failed operations are the result's news, not a reason to withhold it.
    Ok(ExitCode::SUCCESS)
}

/// Runs every workload in a child process each, so set-up time and peak
/// memory are per workload, and writes the result file.
fn run_all(argv: &[String]) -> Result<ExitCode, BackendError> {
    let spec = spec::spec();
    let seed: u64 = flag(argv, "--seed")
        .ok_or(USAGE)?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let trace = argv.iter().any(|a| a == "--trace");
    let seconds = match flag(argv, "--seconds") {
        Some(text) => text.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?,
        None => spec.run_seconds,
    };
    let exe = std::env::current_exe()?;
    let mut file = RunFile {
        seed,
        trace,
        seconds,
        workloads: Vec::new(),
    };
    for workload in &spec.workloads {
        println!("== {} — {}", workload.name, workload.why);
        let output = Command::new(&exe)
            .args(["--workload", &workload.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for line in &lines {
            println!("{line}");
        }
        if !output.status.success() {
            return Err(format!("{}: exited with {}", workload.name, output.status).into());
        }
        let result = WorkloadResult::parse(&workload.name, last, &lines)?;
        println!();
        file.workloads.push(result);
    }
    let path = match flag(argv, "--out") {
        Some(path) => PathBuf::from(path),
        None => {
            std::fs::create_dir_all(out_dir())?;
            let suffix = if trace { "-trace" } else { "" };
            out_dir().join(format!("result-seed{seed}{suffix}.json"))
        }
    };
    std::fs::write(&path, file.to_json())?;
    let failed: u64 = file.workloads.iter().map(|w| w.failed).sum();
    let attempted: u64 = file.workloads.iter().map(|w| w.attempted).sum();
    println!(
        "{} workloads, {attempted} operations, {failed} failed; results written to {}",
        file.workloads.len(),
        path.display()
    );
    let correct = file.workloads.iter().all(|w| w.correct);
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("run") => run_all(&argv[1..]),
        Some("compare") => match &argv[1..] {
            [base, new] => compare::compare_files(spec::spec(), base, new),
            _ => Err(USAGE.into()),
        },
        Some("spread") if argv.len() > 2 => compare::spread_files(spec::spec(), &argv[1..]),
        Some("workloads") => {
            for w in &spec::spec().workloads {
                println!("{:<14} {}", w.name, w.why);
            }
            Ok(ExitCode::SUCCESS)
        }
        Some(_) if argv.iter().any(|a| a == "--workload") => single(&argv),
        _ => Err(USAGE.into()),
    };
    outcome.unwrap_or_else(|err| {
        eprintln!("spn-benchmark: {err}");
        ExitCode::from(2)
    })
}
