//! CI gate for benchmark artifacts: verifies each given file is a non-empty
//! JSON array of records with a consistent schema.
//!
//! `bench_engine` and `bench_serve` write their measurements as JSON; a
//! crash mid-run (or a compile failure that used to be swallowed) leaves a
//! missing, empty or truncated file.  This binary makes that a hard CI
//! failure:
//!
//! * the file must parse as JSON (using the same parser the serving wire
//!   protocol uses),
//! * the top level must be a non-empty array of non-empty objects,
//! * every record must carry the same key set as the first one (catching
//!   truncated or mixed writes),
//! * every numeric field must be finite (the writers emit `null` for
//!   non-finite values, which this rejects in measurement fields),
//! * schema-aware field checks: a `numeric_mode` field must name a valid
//!   numeric mode (`"linear"` / `"log"`), a `precision` field a valid
//!   emulated PE format (`"f64"` / `"f32"` / `"e<exp>m<mant>"`), a
//!   `max_rel_error` field must be a finite non-negative number, a
//!   `host_cores`, `lanes` or `cores` (simulated processor cores) field
//!   must be a positive integer, a `connections`, `flips` or `n_samples`
//!   field a non-negative integer, an `abs_err` or `ci99` field a finite
//!   non-negative number, and an `incremental` field 0 or 1 — and
//!   engine-bench files (`*engine*.json`) must carry `numeric_mode`,
//!   `precision`, `max_rel_error`, `host_cores`, `lanes`, `cores`, `flips`,
//!   `incremental`, `n_samples`, `abs_err` *and* `ci99`, while serve-bench
//!   files (`*serve*.json`) must carry `connections`, `flips` and
//!   `incremental`, so the numeric-mode, precision-sweep, lane-width,
//!   simulated-core-count, connection-scaling, session-sweep and sampling
//!   annotations of the benchmark artifacts can never silently regress,
//! * engine-bench files must contain at least one *sampling* row
//!   (`n_samples` > 0), and on every sampling row the observed absolute
//!   error against the exact oracle must sit inside the reported 99%
//!   confidence radius (`abs_err` ≤ `ci99`, `ci99` > 0).  Draws are a pure
//!   function of `(model, row, seed, n)`, so this is a deterministic
//!   property of the artifact, not a flaky statistical one: a violation
//!   means the estimator or its reported variance regressed,
//! * incremental session rows at sparse flip counts (`flips` ≤ 2,
//!   `incremental` = 1) must report throughput at least matching their
//!   full-pass baseline row — the speedup the incremental evaluator exists
//!   to deliver is a checked property of the artifacts, not a hope,
//! * `--expect-lanes N[,M...]` additionally requires every engine-bench file
//!   to contain at least one record per listed lane width (CI sweeps
//!   `--expect-lanes 1,8`: one query per pass and the lane-blocked width).
//!
//! Run with `cargo run --release -p spn-bench --bin bench_check
//! [--expect-lanes N,M] FILE...`; exits non-zero on the first violation.

use spn_core::{NumericMode, Precision};
use spn_serve::json::{self, Value};

fn check_file(path: &str, expect_lanes: &[u64]) -> Result<usize, String> {
    let text =
        std::fs::read_to_string(path).map_err(|err| format!("{path}: cannot read: {err}"))?;
    let doc = json::parse(&text).map_err(|err| format!("{path}: malformed JSON: {err}"))?;
    let Value::Arr(records) = doc else {
        return Err(format!("{path}: top level is not a JSON array"));
    };
    if records.is_empty() {
        return Err(format!("{path}: no records"));
    }
    let mut reference_keys: Vec<String> = Vec::new();
    let mut seen_lanes: Vec<u64> = Vec::new();
    for (i, record) in records.iter().enumerate() {
        let Value::Obj(fields) = record else {
            return Err(format!("{path}: record {i} is not an object"));
        };
        if fields.is_empty() {
            return Err(format!("{path}: record {i} is empty"));
        }
        let mut keys: Vec<String> = fields.iter().map(|(k, _)| k.clone()).collect();
        keys.sort();
        if i == 0 {
            reference_keys = keys;
        } else if keys != reference_keys {
            return Err(format!(
                "{path}: record {i} keys {keys:?} differ from record 0 keys {reference_keys:?}"
            ));
        }
        for (key, value) in fields {
            match value {
                Value::Num(n) if !n.is_finite() => {
                    return Err(format!("{path}: record {i} field {key:?} is not finite"))
                }
                Value::Null => return Err(format!("{path}: record {i} field {key:?} is null")),
                _ => {}
            }
            match key.as_str() {
                "numeric_mode" => {
                    let name = value.as_str().ok_or_else(|| {
                        format!("{path}: record {i} field \"numeric_mode\" is not a string")
                    })?;
                    NumericMode::from_name(name).map_err(|_| {
                        format!(
                            "{path}: record {i} field \"numeric_mode\" holds \
                             unknown mode {name:?}"
                        )
                    })?;
                }
                "precision" => {
                    let name = value.as_str().ok_or_else(|| {
                        format!("{path}: record {i} field \"precision\" is not a string")
                    })?;
                    Precision::from_name(name).map_err(|_| {
                        format!(
                            "{path}: record {i} field \"precision\" holds \
                             unknown format {name:?}"
                        )
                    })?;
                }
                "max_rel_error" => {
                    let n = value.as_f64().ok_or_else(|| {
                        format!("{path}: record {i} field \"max_rel_error\" is not a number")
                    })?;
                    if !(n.is_finite() && n >= 0.0) {
                        return Err(format!(
                            "{path}: record {i} field \"max_rel_error\" is {n}, \
                             expected a finite non-negative number"
                        ));
                    }
                }
                "host_cores" | "lanes" | "cores" => {
                    let n = value.as_f64().ok_or_else(|| {
                        format!("{path}: record {i} field {key:?} is not a number")
                    })?;
                    if n < 1.0 || n.fract() != 0.0 {
                        return Err(format!(
                            "{path}: record {i} field {key:?} is {n}, \
                             expected a positive integer"
                        ));
                    }
                    if key == "lanes" && !seen_lanes.contains(&(n as u64)) {
                        seen_lanes.push(n as u64);
                    }
                }
                "connections" | "flips" | "n_samples" => {
                    let n = value.as_f64().ok_or_else(|| {
                        format!("{path}: record {i} field {key:?} is not a number")
                    })?;
                    if n < 0.0 || n.fract() != 0.0 {
                        return Err(format!(
                            "{path}: record {i} field {key:?} is {n}, \
                             expected a non-negative integer"
                        ));
                    }
                }
                "abs_err" | "ci99" => {
                    let n = value.as_f64().ok_or_else(|| {
                        format!("{path}: record {i} field {key:?} is not a number")
                    })?;
                    if !(n.is_finite() && n >= 0.0) {
                        return Err(format!(
                            "{path}: record {i} field {key:?} is {n}, \
                             expected a finite non-negative number"
                        ));
                    }
                }
                "incremental" => {
                    let n = value.as_f64().ok_or_else(|| {
                        format!("{path}: record {i} field \"incremental\" is not a number")
                    })?;
                    if n != 0.0 && n != 1.0 {
                        return Err(format!(
                            "{path}: record {i} field \"incremental\" is {n}, expected 0 or 1"
                        ));
                    }
                }
                _ => {}
            }
        }
        // Engine-bench records must carry the numeric-mode, precision,
        // host-core and lane-width annotations; serve-bench records must
        // carry the connection count (each writer has its own schema).
        let required: &[&str] = if path.contains("engine") {
            &[
                "numeric_mode",
                "precision",
                "max_rel_error",
                "host_cores",
                "lanes",
                "cores",
                "flips",
                "incremental",
                "n_samples",
                "abs_err",
                "ci99",
            ]
        } else if path.contains("serve") {
            &["connections", "flips", "incremental"]
        } else {
            &[]
        };
        for required in required {
            if record.get(required).is_none() {
                return Err(format!(
                    "{path}: record {i} is missing the {required:?} field"
                ));
            }
        }
    }
    if path.contains("engine") {
        for lanes in expect_lanes {
            if !seen_lanes.contains(lanes) {
                return Err(format!(
                    "{path}: no record with lanes = {lanes} \
                     (found lane widths {seen_lanes:?})"
                ));
            }
        }
    }
    check_incremental_speedup(path, &records)?;
    check_sampling_accuracy(path, &records)?;
    Ok(records.len())
}

/// Engine-bench artifacts must include the sampling axis, and every
/// sampling row (`n_samples` > 0) must report an observed absolute error
/// inside its reported 99% confidence radius.  The draws behind these rows
/// are seeded and deterministic, so a violation is a real estimator or
/// variance-reporting regression — never sampling noise.
fn check_sampling_accuracy(path: &str, records: &[Value]) -> Result<(), String> {
    if !path.contains("engine") {
        return Ok(());
    }
    let num = |record: &Value, key: &str| record.get(key).and_then(Value::as_f64);
    let mut sampling_rows = 0usize;
    for (i, record) in records.iter().enumerate() {
        let n_samples = num(record, "n_samples").unwrap_or(0.0);
        if n_samples <= 0.0 {
            continue;
        }
        sampling_rows += 1;
        let (Some(abs_err), Some(ci99)) = (num(record, "abs_err"), num(record, "ci99")) else {
            return Err(format!(
                "{path}: record {i} is a sampling row without abs_err / ci99"
            ));
        };
        if ci99 <= 0.0 {
            return Err(format!(
                "{path}: record {i} is a sampling row with ci99 = {ci99}, \
                 expected a positive confidence radius"
            ));
        }
        if abs_err > ci99 {
            return Err(format!(
                "{path}: record {i} ({n_samples} samples) reports abs_err \
                 {abs_err:.3e} outside its 99% confidence radius {ci99:.3e} — \
                 the estimator or its reported variance regressed"
            ));
        }
    }
    if sampling_rows == 0 {
        return Err(format!(
            "{path}: no sampling rows (n_samples > 0) — the approximate-query \
             benchmark axis is missing"
        ));
    }
    Ok(())
}

/// Every incremental session row at a sparse flip count (≤ 2 flipped
/// variables per delta) must be at least as fast as its full-pass baseline
/// row (`incremental: 0`, `flips: 0`) — on engine files the baseline with
/// the same workload and platform (compared on `queries_per_sec`), on serve
/// files the one with the same policy, worker count and connection count
/// (compared on `achieved_rps`).  A sparse-delta slowdown means the
/// incremental evaluator regressed below the full pass it exists to beat.
fn check_incremental_speedup(path: &str, records: &[Value]) -> Result<(), String> {
    let engine = path.contains("engine");
    if !engine && !path.contains("serve") {
        return Ok(());
    }
    let rate_key = if engine {
        "queries_per_sec"
    } else {
        "achieved_rps"
    };
    let num = |record: &Value, key: &str| record.get(key).and_then(Value::as_f64);
    for (i, record) in records.iter().enumerate() {
        if num(record, "incremental") != Some(1.0) || num(record, "flips") > Some(2.0) {
            continue;
        }
        let matches = |other: &&Value| {
            num(other, "incremental") == Some(0.0)
                && num(other, "flips") == Some(0.0)
                && if engine {
                    ["workload", "platform"].iter().all(|key| {
                        other.get(key).and_then(Value::as_str)
                            == record.get(key).and_then(Value::as_str)
                    })
                } else {
                    ["max_wait_us", "max_batch", "workers", "connections"]
                        .iter()
                        .all(|key| num(other, key) == num(record, key))
                }
        };
        let Some(baseline) = records.iter().find(matches) else {
            return Err(format!(
                "{path}: record {i} is an incremental session row with no \
                 matching full-pass baseline row"
            ));
        };
        let (fast, base) = match (num(record, rate_key), num(baseline, rate_key)) {
            (Some(fast), Some(base)) if base > 0.0 => (fast, base),
            _ => {
                return Err(format!(
                    "{path}: record {i} or its baseline lacks a positive {rate_key:?}"
                ))
            }
        };
        if fast < base {
            return Err(format!(
                "{path}: record {i} ({} flips, incremental) reports {fast:.0} \
                 {rate_key} against a full-pass baseline of {base:.0} — the \
                 sparse-delta path must not be slower than full re-evaluation",
                num(record, "flips").unwrap_or(0.0)
            ));
        }
    }
    Ok(())
}

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut expect_lanes: Vec<u64> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--expect-lanes" {
            let list = args.next().unwrap_or_default();
            expect_lanes = list
                .split(',')
                .map(|part| {
                    part.trim().parse::<u64>().unwrap_or_else(|_| {
                        eprintln!("bench_check: bad --expect-lanes value {part:?}");
                        std::process::exit(2);
                    })
                })
                .collect();
            if expect_lanes.is_empty() {
                eprintln!("bench_check: --expect-lanes needs a comma-separated list");
                std::process::exit(2);
            }
        } else {
            paths.push(arg);
        }
    }
    if paths.is_empty() {
        eprintln!("usage: bench_check [--expect-lanes N,M] FILE...");
        std::process::exit(2);
    }
    for path in &paths {
        match check_file(path, &expect_lanes) {
            Ok(count) => println!("{path}: ok ({count} records)"),
            Err(err) => {
                eprintln!("bench_check failed: {err}");
                std::process::exit(1);
            }
        }
    }
}
