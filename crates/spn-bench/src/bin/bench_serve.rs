//! Load generator for the spn-serve inference service: open-loop request
//! rate × batching policy × worker count.
//!
//! Each configuration starts a fresh [`Service`] over the CPU backend with
//! two registered models, fires a fixed number of requests *open loop* (the
//! submitter keeps to its schedule instead of waiting for responses — the
//! arrival process a real server faces), then drains all responses.  The
//! request stream cycles through the four query modes and both models, so
//! every batcher path is exercised.  Per-configuration records aggregate the
//! service's own metrics: achieved throughput, mean micro-batch size,
//! coalesced-batch share, and submit-to-response latency.
//!
//! Besides the in-process sweep, a **connection-scaling sweep** drives the
//! readiness-driven TCP front-end: hundreds of concurrent connections held
//! open by one server process (no per-connection threads), a subset of them
//! carrying pipelined line-protocol traffic.  Those records carry the held
//! connection count in `connections`; in-process records report `0`.
//!
//! Records are merged into `BENCH_serve.json`: a record replaces any
//! existing record with the same configuration key (rate, policy, workers,
//! connections), so re-runs refresh rather than duplicate rows.  Pass
//! `--fresh` (the CI default) to discard the existing file entirely.
//!
//! Run with `cargo run --release -p spn-bench --bin bench_serve [--smoke]
//! [--fresh] [out.json]`.  `--smoke` is the CI mode: two small in-process
//! configurations plus a small connection sweep, a few hundred requests.
//! Exits non-zero on any failure.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use spn_bench::flip_schedule;
use spn_core::random::{random_spn, RandomSpnConfig};
use spn_core::wire::QueryRequest;
use spn_core::{QueryMode, SampleMethod, SampleSpec, Spn};
use spn_learn::Benchmark;
use spn_platforms::{CpuModel, Parallelism};
use spn_serve::json::{self, Value};
use spn_serve::tcp::{decode_response, encode_request};
use spn_serve::{
    BatchPolicy, ModelVariant, ResponseHandle, ServeError, Service, ServiceConfig, TcpServer,
};

/// One measured serving configuration.
struct Record {
    rate_target: f64,
    max_wait_us: u64,
    max_batch: usize,
    workers: usize,
    /// Concurrent TCP connections held open during the measurement
    /// (0 = in-process submission, no TCP front-end involved).
    connections: usize,
    /// Variables flipped per delta on the session-replay sweep (0 on every
    /// other row, including the sweep's full-row one-shot baseline).
    flips: usize,
    /// Whether the row's queries rode the per-session incremental delta path
    /// (serialised as 0/1 in the JSON).
    incremental: bool,
    requests: u64,
    errors: u64,
    seconds: f64,
    achieved_rps: f64,
    mean_batch_queries: f64,
    batches: u64,
    coalesced_batches: u64,
    mean_latency_ms: f64,
    max_latency_ms: f64,
}

/// The mixed request stream: cycles modes and models deterministically.
fn build_request(id: u64, model: &str, num_vars: usize) -> QueryRequest {
    let mode = QueryMode::ALL[(id as usize) % QueryMode::ALL.len()];
    let all_true = "1".repeat(num_vars);
    let marginal = "?".repeat(num_vars);
    let partial: String = (0..num_vars)
        .map(|v| {
            if v == (id as usize) % num_vars {
                if id.is_multiple_of(2) {
                    '1'
                } else {
                    '0'
                }
            } else {
                '?'
            }
        })
        .collect();
    let result = match mode {
        QueryMode::Joint => QueryRequest::from_rows(id, model, mode, &[&all_true], None),
        QueryMode::Marginal => QueryRequest::from_rows(id, model, mode, &[&partial], None),
        QueryMode::Map => QueryRequest::from_rows(id, model, mode, &[&partial], None),
        QueryMode::Conditional => {
            QueryRequest::from_rows(id, model, mode, &[&partial], Some(&[&marginal]))
        }
        // A small fixed draw count keeps the approximate share of the
        // stream comparable in cost to the exact modes; the seed cycles so
        // the batcher still coalesces only same-spec requests.
        QueryMode::Sample | QueryMode::Expectation => QueryRequest::from_rows_with_spec(
            id,
            model,
            mode,
            &[&partial],
            None,
            SampleSpec {
                seed: id % 4,
                n_samples: 32,
                method: SampleMethod::Ancestral,
            },
        ),
    };
    result.expect("deterministic request stream is well-formed")
}

/// Compiles every model's default-variant plan, max-product program
/// included, before any request is timed: through the registry rather than
/// through `query()`, so compile time never lands in the recorded serving
/// metrics.
fn warm_plans(service: &Service<CpuModel>, models: &[(String, Spn)]) -> Result<(), ServeError> {
    for (name, _) in models {
        let (mut engine, _) = service.registry().engine(name, ModelVariant::default())?;
        engine.prepare_map().map_err(ServeError::from_backend)?;
    }
    Ok(())
}

/// Runs one configuration and aggregates its metrics.
fn run_config(
    models: &[(String, Spn)],
    rate: f64,
    policy: BatchPolicy,
    workers: usize,
    requests: u64,
) -> Result<Record, ServeError> {
    let service = Arc::new(Service::new(
        CpuModel::new(),
        ServiceConfig {
            workers,
            policy,
            parallelism: Parallelism::serial(),
            artifact_capacity: models.len().max(1),
            ..ServiceConfig::default()
        },
    ));
    for (name, spn) in models {
        service.register(name.clone(), spn);
    }
    warm_plans(&service, models)?;

    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut handles: Vec<ResponseHandle> = Vec::with_capacity(requests as usize);
    let start = Instant::now();
    for id in 0..requests {
        // Open loop: submissions stick to the schedule even when the service
        // lags (sleep only until this request's scheduled instant).
        let due = start + interval.mul_f64(id as f64);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let (name, spn) = &models[(id as usize) % models.len()];
        handles.push(service.submit(build_request(id, name, spn.num_vars()))?);
    }
    let mut errors = 0u64;
    for handle in handles {
        match handle.wait() {
            Ok(response) => {
                if response.values.iter().any(|v| !v.is_finite()) {
                    return Err(ServeError::Invalid("non-finite response value".to_string()));
                }
            }
            Err(_) => errors += 1,
        }
    }
    let seconds = start.elapsed().as_secs_f64();

    let metrics = service.metrics();
    service.shutdown();
    Ok(aggregate(
        &metrics, rate, policy, workers, 0, errors, seconds,
    ))
}

/// Folds a service metrics snapshot into one record.
fn aggregate(
    metrics: &[spn_serve::MetricsRecord],
    rate: f64,
    policy: BatchPolicy,
    workers: usize,
    connections: usize,
    errors: u64,
    seconds: f64,
) -> Record {
    let total_requests: u64 = metrics.iter().map(|r| r.stats.requests).sum();
    let total_queries: u64 = metrics.iter().map(|r| r.stats.queries).sum();
    let batches: u64 = metrics.iter().map(|r| r.stats.batches).sum();
    let coalesced: u64 = metrics.iter().map(|r| r.stats.coalesced_batches).sum();
    let total_latency: Duration = metrics.iter().map(|r| r.stats.total_latency).sum();
    let max_latency = metrics
        .iter()
        .map(|r| r.stats.max_latency)
        .max()
        .unwrap_or(Duration::ZERO);
    Record {
        rate_target: rate,
        max_wait_us: policy.max_wait.as_micros() as u64,
        max_batch: policy.max_batch_queries,
        workers,
        connections,
        flips: 0,
        incremental: false,
        requests: total_requests,
        errors,
        seconds,
        achieved_rps: total_requests as f64 / seconds.max(1e-12),
        mean_batch_queries: if batches == 0 {
            0.0
        } else {
            total_queries as f64 / batches as f64
        },
        batches,
        coalesced_batches: coalesced,
        mean_latency_ms: if total_requests == 0 {
            0.0
        } else {
            total_latency.as_secs_f64() * 1e3 / total_requests as f64
        },
        max_latency_ms: max_latency.as_secs_f64() * 1e3,
    }
}

/// Runs one connection-scaling configuration against the readiness-driven
/// TCP front-end: `connections` concurrent connections held open by a
/// single server process, traffic pipelined over `active` of them from
/// `client_threads` client threads, the rest idle — the serving shape the
/// event loop exists for.
fn run_tcp_config(
    models: &[(String, Spn)],
    connections: usize,
    active: usize,
    pipeline: u64,
    policy: BatchPolicy,
    workers: usize,
) -> Result<Record, ServeError> {
    let service = Arc::new(Service::new(
        CpuModel::new(),
        ServiceConfig {
            workers,
            policy,
            parallelism: Parallelism::serial(),
            artifact_capacity: models.len().max(1),
            ..ServiceConfig::default()
        },
    ));
    for (name, spn) in models {
        service.register(name.clone(), spn);
    }
    warm_plans(&service, models)?;
    let mut server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0")
        .map_err(|err| ServeError::Protocol(format!("spawning TCP server: {err}")))?;
    let addr = server.local_addr();

    let client_threads = 4usize.min(active.max(1));
    let conns_per_thread = connections / client_threads;
    let active_per_thread = (active / client_threads).max(1);
    // All parties (clients + the timer below) rendezvous after connection
    // setup, so the measured window covers traffic only — opening a
    // thousand sockets is setup cost, not serving throughput.
    let barrier = std::sync::Barrier::new(client_threads + 1);
    let mut start = Instant::now();
    let outcomes: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..client_threads)
            .map(|t| {
                let models = &models;
                let barrier = &barrier;
                scope.spawn(move || {
                    // Hold this thread's share of connections open; only the
                    // first `active_per_thread` of them carry traffic.
                    let held: Vec<TcpStream> = (0..conns_per_thread)
                        .filter_map(|_| TcpStream::connect(addr).ok())
                        .collect();
                    barrier.wait();
                    let mut sent = 0u64;
                    let mut errors = 0u64;
                    for (c, stream) in held.iter().take(active_per_thread).enumerate() {
                        let mut writer = stream;
                        let mut reader = BufReader::new(stream);
                        let mut lines = String::new();
                        for k in 0..pipeline {
                            let id = ((t * active_per_thread + c) as u64) * pipeline + k;
                            let (name, spn) = &models[(id as usize) % models.len()];
                            lines.push_str(&encode_request(&build_request(
                                id,
                                name,
                                spn.num_vars(),
                            )));
                            lines.push('\n');
                        }
                        if writer.write_all(lines.as_bytes()).is_err() {
                            errors += pipeline;
                            continue;
                        }
                        sent += pipeline;
                        for _ in 0..pipeline {
                            let mut reply = String::new();
                            match reader.read_line(&mut reply) {
                                Ok(n) if n > 0 => {
                                    if decode_response(reply.trim()).is_err() {
                                        errors += 1;
                                    }
                                }
                                _ => errors += 1,
                            }
                        }
                    }
                    drop(held);
                    (sent, errors)
                })
            })
            .collect();
        barrier.wait();
        start = Instant::now();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or((0, u64::MAX)))
            .collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    let errors: u64 = outcomes.iter().map(|&(_, e)| e).sum();

    let metrics = service.metrics();
    server.shutdown();
    service.shutdown();
    Ok(aggregate(
        &metrics,
        0.0, // closed-loop: no target rate, throughput is what was achieved
        policy,
        workers,
        connections,
        errors,
        seconds,
    ))
}

fn observation_char(observation: Option<bool>) -> char {
    match observation {
        Some(true) => '1',
        Some(false) => '0',
        None => '?',
    }
}

/// Runs one session-replay configuration over a single pipelined TCP
/// connection: a wire-v2 session absorbing one evidence delta of `flips`
/// variables per query (`flips > 0`, the incremental path), or the same walk
/// re-sent as full-row one-shot marginal queries (`flips == 0`, what a
/// session-less client pays per update).  Returns the record plus a checksum
/// over every response value, so the caller can cross-check the incremental
/// and full-row replays of the same walk bit-for-bit.
fn run_session_config(
    model: &str,
    spn: &Spn,
    flips: usize,
    deltas: usize,
    policy: BatchPolicy,
    workers: usize,
) -> Result<(Record, f64), ServeError> {
    let service = Arc::new(Service::new(
        CpuModel::new(),
        ServiceConfig {
            workers,
            policy,
            parallelism: Parallelism::serial(),
            artifact_capacity: 1,
            ..ServiceConfig::default()
        },
    ));
    service.register(model, spn);
    // Warm the compile cache outside the measured window.
    service.registry().engine(model, ModelVariant::default())?;
    let mut server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0")
        .map_err(|err| ServeError::Protocol(format!("spawning TCP server: {err}")))?;

    let num_vars = spn.num_vars();
    let schedule = flip_schedule(num_vars, flips.max(1), deltas);
    let stream = TcpStream::connect(server.local_addr())
        .map_err(|err| ServeError::Protocol(format!("connecting: {err}")))?;
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|err| ServeError::Protocol(format!("cloning stream: {err}")))?,
    );
    let mut writer = stream;
    let mut errors = 0u64;
    let mut checksum = 0.0;
    // Pipeline in bounded chunks (write `CHUNK` lines, read `CHUNK` replies)
    // so neither side's socket buffer can fill up and deadlock the exchange.
    const CHUNK: usize = 64;
    let mut exchange = |lines: &[String], check: &mut f64, errors: &mut u64| {
        for chunk in lines.chunks(CHUNK) {
            let block: String = chunk.iter().map(|l| format!("{l}\n")).collect();
            if writer.write_all(block.as_bytes()).is_err() {
                *errors += chunk.len() as u64;
                continue;
            }
            for _ in chunk {
                let mut reply = String::new();
                let value = match reader.read_line(&mut reply) {
                    Ok(n) if n > 0 => json::parse(reply.trim()).ok().and_then(|doc| {
                        let get = |key: &str| {
                            if let Value::Obj(fields) = &doc {
                                fields
                                    .iter()
                                    .find(|(k, _)| k == key)
                                    .map(|(_, v)| v.clone())
                            } else {
                                None
                            }
                        };
                        if !matches!(get("ok"), Some(Value::Bool(true))) {
                            return None;
                        }
                        // Session responses carry a scalar `value`; one-shot
                        // query responses a single-element `values` array.
                        match (get("value"), get("values")) {
                            (Some(Value::Num(v)), _) if v.is_finite() => Some(v),
                            (_, Some(Value::Arr(vs))) => match vs.as_slice() {
                                [Value::Num(v)] if v.is_finite() => Some(*v),
                                _ => None,
                            },
                            _ => None,
                        }
                    }),
                    _ => None,
                };
                match value {
                    Some(v) => *check += v,
                    None => *errors += 1,
                }
            }
        }
    };

    let start;
    if flips > 0 {
        // Incremental replay: open the session outside the measured window,
        // then time the deltas.
        let open = format!(
            r#"{{"v": 2, "type": "session_open", "id": 0, "session": 1, "model": "{model}", "row": "{}"}}"#,
            "?".repeat(num_vars)
        );
        let mut open_value = 0.0;
        exchange(std::slice::from_ref(&open), &mut open_value, &mut errors);
        let lines: Vec<String> = schedule
            .iter()
            .enumerate()
            .map(|(q, delta)| {
                let pairs: Vec<String> = delta
                    .iter()
                    .map(|&(var, obs)| format!(r#"[{var}, "{}"]"#, observation_char(obs)))
                    .collect();
                format!(
                    r#"{{"v": 2, "type": "delta", "id": {}, "session": 1, "flips": [{}]}}"#,
                    q + 1,
                    pairs.join(", ")
                )
            })
            .collect();
        start = Instant::now();
        exchange(&lines, &mut checksum, &mut errors);
    } else {
        // Full-row baseline: the same walk, each update re-sent as a one-shot
        // marginal query over the whole row.
        let mut row: Vec<char> = vec!['?'; num_vars];
        let lines: Vec<String> = schedule
            .iter()
            .enumerate()
            .map(|(q, delta)| {
                for &(var, obs) in delta {
                    row[var] = observation_char(obs);
                }
                let row: String = row.iter().collect();
                let request = QueryRequest::from_rows(
                    q as u64 + 1,
                    model,
                    QueryMode::Marginal,
                    &[&row],
                    None,
                )
                .expect("deterministic replay row is well-formed");
                encode_request(&request)
            })
            .collect();
        start = Instant::now();
        exchange(&lines, &mut checksum, &mut errors);
    }
    let seconds = start.elapsed().as_secs_f64();

    server.shutdown();
    service.shutdown();
    Ok((
        Record {
            rate_target: 0.0, // closed loop
            max_wait_us: policy.max_wait.as_micros() as u64,
            max_batch: policy.max_batch_queries,
            workers,
            connections: 1,
            flips,
            incremental: flips > 0,
            requests: deltas as u64,
            errors,
            seconds,
            achieved_rps: deltas as f64 / seconds.max(1e-12),
            mean_batch_queries: 1.0, // deltas ride the per-session FIFO, unbatched
            batches: deltas as u64,
            coalesced_batches: 0,
            // Per-request latency is not measured under pipelining.
            mean_latency_ms: 0.0,
            max_latency_ms: 0.0,
        },
        checksum,
    ))
}

fn record_value(r: &Record) -> Value {
    Value::Obj(vec![
        ("rate_target".to_string(), Value::Num(r.rate_target)),
        ("max_wait_us".to_string(), Value::Num(r.max_wait_us as f64)),
        ("max_batch".to_string(), Value::Num(r.max_batch as f64)),
        ("workers".to_string(), Value::Num(r.workers as f64)),
        ("connections".to_string(), Value::Num(r.connections as f64)),
        ("flips".to_string(), Value::Num(r.flips as f64)),
        (
            "incremental".to_string(),
            Value::Num(r.incremental as usize as f64),
        ),
        ("requests".to_string(), Value::Num(r.requests as f64)),
        ("errors".to_string(), Value::Num(r.errors as f64)),
        ("seconds".to_string(), Value::Num(r.seconds)),
        ("achieved_rps".to_string(), Value::Num(r.achieved_rps)),
        (
            "mean_batch_queries".to_string(),
            Value::Num(r.mean_batch_queries),
        ),
        ("batches".to_string(), Value::Num(r.batches as f64)),
        (
            "coalesced_batches".to_string(),
            Value::Num(r.coalesced_batches as f64),
        ),
        ("mean_latency_ms".to_string(), Value::Num(r.mean_latency_ms)),
        ("max_latency_ms".to_string(), Value::Num(r.max_latency_ms)),
    ])
}

/// The configuration key a record is deduplicated on when merging into an
/// existing file: (rate, policy, workers, connections, flips, incremental).
/// `connections`, `flips` and `incremental` default to 0 for rows written
/// before those fields existed.
fn config_key(record: &Value) -> Option<(u64, u64, u64, u64, u64, u64, u64)> {
    let Value::Obj(fields) = record else {
        return None;
    };
    let get = |name: &str| -> Option<f64> {
        fields.iter().find(|(k, _)| k == name).and_then(|(_, v)| {
            if let Value::Num(n) = v {
                Some(*n)
            } else {
                None
            }
        })
    };
    Some((
        get("rate_target")?.to_bits(),
        get("max_wait_us")? as u64,
        get("max_batch")? as u64,
        get("workers")? as u64,
        get("connections").unwrap_or(0.0) as u64,
        get("flips").unwrap_or(0.0) as u64,
        get("incremental").unwrap_or(0.0) as u64,
    ))
}

/// Merges `new` into the records already in `path` (if the file holds a valid
/// JSON array), writing one record per line.  A new record replaces any
/// existing record with the same configuration key; with `fresh` the existing
/// file is discarded and only `new` is written.
fn append_records(path: &str, new: &[Value], fresh: bool) -> Result<(), String> {
    let mut records: Vec<Value> = if fresh {
        Vec::new()
    } else {
        match std::fs::read_to_string(path) {
            Ok(existing) => match json::parse(&existing) {
                Ok(Value::Arr(items)) => items,
                _ => {
                    eprintln!("{path} did not hold a JSON array; starting fresh");
                    Vec::new()
                }
            },
            Err(_) => Vec::new(),
        }
    };
    let new_keys: Vec<_> = new.iter().filter_map(config_key).collect();
    records.retain(|r| match config_key(r) {
        Some(key) => !new_keys.contains(&key),
        // Keep rows whose key can't be read: better a duplicate than silent
        // data loss on a hand-edited file.
        None => true,
    });
    records.extend(new.iter().cloned());
    let body: Vec<String> = records
        .iter()
        .map(|r| format!("  {}", r.to_json()))
        .collect();
    std::fs::write(path, format!("[\n{}\n]\n", body.join(",\n")))
        .map_err(|err| format!("writing {path}: {err}"))
}

fn main() {
    let mut smoke = false;
    let mut fresh = false;
    let mut out_path = "BENCH_serve.json".to_string();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--fresh" => fresh = true,
            other => out_path = other.to_string(),
        }
    }

    let models: Vec<(String, Spn)> = vec![
        ("uci-banknote".to_string(), Benchmark::Banknote.spn()),
        ("uci-cpu-perf".to_string(), Benchmark::Cpu.spn()),
    ];

    // Sweep: open-loop rate × batching policy × batcher worker count.
    let immediate = BatchPolicy {
        max_batch_queries: 64,
        max_wait: Duration::ZERO,
    };
    let wait_1ms = BatchPolicy {
        max_batch_queries: 256,
        max_wait: Duration::from_millis(1),
    };
    let wait_5ms = BatchPolicy {
        max_batch_queries: 1024,
        max_wait: Duration::from_millis(5),
    };
    let configs: Vec<(f64, BatchPolicy, usize, u64)> = if smoke {
        vec![(500.0, immediate, 1, 200), (2000.0, wait_1ms, 2, 400)]
    } else {
        let mut configs = Vec::new();
        for &rate in &[1000.0, 4000.0, 16000.0] {
            for &policy in &[immediate, wait_1ms, wait_5ms] {
                for &workers in &[1usize, 2, 4] {
                    let requests = (rate / 2.0) as u64; // ~0.5 s per config
                    configs.push((rate, policy, workers, requests));
                }
            }
        }
        configs
    };

    println!("# Serving throughput: open-loop rate x batching policy x workers\n");
    println!("| rate | max_wait | max_batch | workers | achieved rps | mean batch | coalesced | mean lat (ms) | max lat (ms) |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut values = Vec::new();
    for (rate, policy, workers, requests) in configs {
        match run_config(&models, rate, policy, workers, requests) {
            Ok(record) => {
                println!(
                    "| {} | {}us | {} | {} | {:.0} | {:.2} | {}/{} | {:.3} | {:.3} |",
                    record.rate_target,
                    record.max_wait_us,
                    record.max_batch,
                    record.workers,
                    record.achieved_rps,
                    record.mean_batch_queries,
                    record.coalesced_batches,
                    record.batches,
                    record.mean_latency_ms,
                    record.max_latency_ms,
                );
                if record.errors > 0 {
                    eprintln!("bench_serve: {} requests failed", record.errors);
                    std::process::exit(1);
                }
                values.push(record_value(&record));
            }
            Err(err) => {
                eprintln!("bench_serve failed (rate {rate}, workers {workers}): {err}");
                std::process::exit(1);
            }
        }
    }

    // Connection-scaling sweep over the readiness-driven TCP front-end.
    // All connections are held open simultaneously; a fixed subset carries
    // pipelined traffic, the rest sit idle — proving one event-loop thread
    // (plus the fixed worker fleet) sustains the whole fleet of sockets.
    let tcp_configs: Vec<(usize, usize, u64)> = if smoke {
        vec![(64, 16, 4)]
    } else {
        vec![(128, 32, 8), (512, 32, 8), (1024, 32, 8)]
    };
    println!("\n# Connection scaling: held connections x pipelined traffic (readiness-driven TCP front-end)\n");
    println!(
        "| connections | active | requests | achieved rps | mean batch | mean lat (ms) | max lat (ms) |"
    );
    println!("|---|---|---|---|---|---|---|");
    for (connections, active, pipeline) in tcp_configs {
        match run_tcp_config(&models, connections, active, pipeline, wait_1ms, 1) {
            Ok(record) => {
                println!(
                    "| {} | {} | {} | {:.0} | {:.2} | {:.3} | {:.3} |",
                    record.connections,
                    active,
                    record.requests,
                    record.achieved_rps,
                    record.mean_batch_queries,
                    record.mean_latency_ms,
                    record.max_latency_ms,
                );
                if record.errors > 0 {
                    eprintln!(
                        "bench_serve: {} TCP requests failed at {} connections",
                        record.errors, connections
                    );
                    std::process::exit(1);
                }
                values.push(record_value(&record));
            }
            Err(err) => {
                eprintln!("bench_serve TCP sweep failed ({connections} connections): {err}");
                std::process::exit(1);
            }
        }
    }

    // Session-replay sweep: a wire-v2 session on a wide ≥ 500-op random
    // circuit absorbing per-delta evidence flips of 1/2/8/all variables, next
    // to the full-row one-shot baseline replaying the same walk (flips = 0).
    // The flips = 1 replay must agree with the baseline bit-for-bit — the
    // incremental evaluator's parity contract, checked on the value sums.
    let session_model = "session-random-96";
    let session_spn = {
        let mut rng = StdRng::seed_from_u64(0x5e55);
        random_spn(&RandomSpnConfig::with_vars(96), &mut rng)
    };
    let session_deltas = if smoke { 512 } else { 4096 };
    let flip_counts: Vec<usize> = vec![0, 1, 2, 8, session_spn.num_vars()];
    println!("\n# Session replay: per-delta flip count over one wire-v2 TCP session (0 = full-row one-shot baseline)\n");
    println!("| flips | incremental | deltas | deltas/sec |");
    println!("|---|---|---|---|");
    let mut baseline_checksum: Option<f64> = None;
    for flips in flip_counts {
        match run_session_config(
            session_model,
            &session_spn,
            flips,
            session_deltas,
            wait_1ms,
            1,
        ) {
            Ok((record, checksum)) => {
                println!(
                    "| {} | {} | {} | {:.0} |",
                    record.flips, record.incremental as usize, record.requests, record.achieved_rps,
                );
                if record.errors > 0 {
                    eprintln!(
                        "bench_serve: {} session replies failed at {flips} flips",
                        record.errors
                    );
                    std::process::exit(1);
                }
                match flips {
                    0 => baseline_checksum = Some(checksum),
                    1 => {
                        let expected = baseline_checksum.expect("baseline runs first");
                        if checksum.to_bits() != expected.to_bits() {
                            eprintln!(
                                "bench_serve: session replay diverged from the full-row \
                                 baseline: {checksum} vs {expected}"
                            );
                            std::process::exit(1);
                        }
                    }
                    _ => {}
                }
                values.push(record_value(&record));
            }
            Err(err) => {
                eprintln!("bench_serve session sweep failed ({flips} flips): {err}");
                std::process::exit(1);
            }
        }
    }

    if let Err(err) = append_records(&out_path, &values, fresh) {
        eprintln!("bench_serve failed: {err}");
        std::process::exit(1);
    }
    eprintln!("results written to {out_path}");
}
