//! Regenerates or verifies the committed golden per-cycle traces.
//!
//! The multi-core simulator's timing model — instruction schedules,
//! shared-memory wave arbitration, interconnect hop latency, pipeline stage
//! starts — is pinned bit-for-bit by the trace artifacts under
//! `tests/golden_traces/`.  This binary is the only writer of those files:
//!
//! * `cargo run -p spn-bench --bin record_traces -- --check` (the default,
//!   run by CI on every build) re-renders every [`spn_bench::traces`] case
//!   and diffs it against the committed artifact, failing with the first
//!   divergent cycle when the timing model drifted;
//! * `cargo run -p spn-bench --bin record_traces -- --bless` rewrites the
//!   artifacts after an *intentional* timing change — commit the diff and
//!   explain the cycle shift in the PR.

use std::process::ExitCode;

use spn_bench::traces::{check_golden_traces, golden_dir, golden_path, render_case, trace_cases};

fn bless() -> Result<(), String> {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir)
        .map_err(|err| format!("{}: cannot create: {err}", dir.display()))?;
    for case in trace_cases() {
        let text =
            render_case(&case).map_err(|err| format!("{}: render failed: {err}", case.name))?;
        let path = golden_path(case.name);
        std::fs::write(&path, &text)
            .map_err(|err| format!("{}: cannot write: {err}", path.display()))?;
        println!(
            "record_traces: blessed {} ({} lines)",
            path.display(),
            text.lines().count()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] | ["--check"] => check_golden_traces()
            .map(|checked| println!("record_traces: {checked} golden traces match")),
        ["--bless"] => bless(),
        _ => Err("usage: record_traces [--check|--bless]".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("record_traces: {message}");
            ExitCode::FAILURE
        }
    }
}
