//! Golden per-cycle trace gate: every committed trace under
//! `tests/golden_traces/` must match a fresh rendering of its
//! [`spn_bench::traces`] case line for line, no trace file may be left
//! without its case, and perturbing the shared-memory model must move the
//! traces.
//!
//! This is the same check the `record_traces --check` binary (and CI)
//! runs, [`check_golden_traces`]; running it as an integration test means a
//! timing-model change fails `cargo test` immediately, with
//! [`TraceDivergence`]'s context lines pointing at the first moved cycle.
//! Re-bless intentional changes with
//! `cargo run -p spn-bench --bin record_traces -- --bless`.
//!
//! [`TraceDivergence`]: spn_accel::processor::TraceDivergence

use spn_accel::processor::diff_traces;
use spn_bench::traces::{check_golden_traces, golden_path, render_case_with_config, trace_cases};

#[test]
fn committed_golden_traces_match_fresh_renderings() {
    let cases = trace_cases();
    assert!(
        cases.len() >= 4,
        "the golden suite must pin at least four programs"
    );
    check_golden_traces().unwrap_or_else(|message| panic!("{message}"));
}

#[test]
fn perturbed_shared_memory_ports_diverge_in_sharded_traces() {
    // Doubling the shared-memory ports removes wave-arbitration stalls, so
    // every multi-core sharded trace must move.
    let mut checked = 0;
    for case in trace_cases().into_iter().filter(|c| c.cores > 1) {
        let golden = std::fs::read_to_string(golden_path(case.name)).expect("golden");
        let mut config = case.config();
        config.shared_memory.ports *= 2;
        let perturbed = render_case_with_config(&case, &config).expect("render");
        assert!(
            diff_traces(&golden, &perturbed).is_some(),
            "{}: doubling shared-memory ports must move the trace",
            case.name
        );
        checked += 1;
    }
    assert!(checked > 0, "no multi-core sharded golden case to perturb");
}
