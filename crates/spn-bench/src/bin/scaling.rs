//! The two scaling sweeps the repo benchmark (`benchmark/`) does not carry:
//!
//! 1. **worker threads** — one 4096-row MSNBC marginal batch sharded by
//!    `Engine::execute_batch_parallel` over 1/2/4/8 scoped workers, every
//!    pass's values compared bit for bit with the serial pass,
//! 2. **held connections** — the `poll(2)` TCP front-end of the shipped
//!    `ServiceConfig::default()` holding 128/512/1024 connections open at
//!    once (each proven live by a command round trip), 32 of them spread
//!    over the set carrying 8 pipelined requests per round; every reply must
//!    be `ok`, carry its request's id and hold, bit for bit, the value the
//!    in-process service answers for the same row.
//!
//! Every row is timed by the one [`measure`] function — a warm-up, then
//! `repeats` timed repetitions — and printed as repeats, median rate and
//! quartile distance, in markdown on stdout.  There is no result file: a
//! number worth quoting is quoted with the host it was measured on.  Any
//! mismatch exits non-zero.
//!
//! This program is a lodger: both axes move into `benchmark/` when it is
//! re-based (ROADMAP item 1(b)), and the program goes then.  The parity
//! matrix's sharding slices (`tests/parallel.rs`) and `tests/serve_scale.rs`
//! pin the properties; this only adds the rates.
//!
//! Run with `cargo run --release -p spn-bench --bin scaling [-- --smoke]`;
//! `--smoke` (the CI mode) keeps every check and shrinks the sizes to a
//! second or two.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spn_bench::stats::check_deterministic;
use spn_core::batch::EvidenceBatch;
use spn_core::wire::{parse_row, QueryRequest};
use spn_core::QueryMode;
use spn_learn::Benchmark;
use spn_platforms::{BackendError, CpuModel, Engine, EngineOptions, Parallelism};
use spn_serve::tcp::decode_response;
use spn_serve::{Service, ServiceConfig, TcpServer};

/// Connections that carry traffic, and requests each pipelines per round.
const ACTIVE: usize = 32;
const PIPELINE: usize = 8;

/// What `--smoke` shrinks; the axes and the checks are the same.
struct Sizes {
    repeats: usize,
    batch_rows: usize,
    passes: usize,
    connections: &'static [usize],
    rounds: usize,
}

const FULL: Sizes = Sizes {
    repeats: 9,
    batch_rows: 4096,
    passes: 8,
    connections: &[128, 512, 1024],
    rounds: 32,
};

const SMOKE: Sizes = Sizes {
    repeats: 3,
    batch_rows: 512,
    passes: 2,
    connections: &[64],
    rounds: 2,
};

/// Quartiles of ascending values as Python's `statistics.quantiles(n=4)`
/// computes them: the rule `benchmark/`'s `spread` and `BENCH_history.jsonl`
/// use, so a quartile distance means the same thing everywhere in the repo.
fn quartiles(ascending: &[f64]) -> [f64; 3] {
    let n = ascending.len();
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (ascending[j - 1] * (4.0 - delta) + ascending[j] * delta) / 4.0
    })
}

/// The one stopwatch.  Runs `body` once untimed, then `repeats` times timed;
/// `body` does `work` operations and checks every one of its outputs.
/// Prints one table row: label, work, repeats, median rate, quartile
/// distance of the rate.
fn measure(
    label: &str,
    work: usize,
    repeats: usize,
    mut body: impl FnMut() -> Result<(), BackendError>,
) -> Result<(), BackendError> {
    body()?;
    let mut rates = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let start = Instant::now();
        body()?;
        rates.push(work as f64 / start.elapsed().as_secs_f64());
    }
    rates.sort_by(f64::total_cmp);
    let [q1, median, q3] = quartiles(&rates);
    println!(
        "| {label} | {work} | {repeats} | {median:.0} | {:.0} ({:.1} %) |",
        q3 - q1,
        100.0 * (q3 - q1) / median
    );
    Ok(())
}

fn table_header(unit: &str) {
    println!(
        "| configuration | {unit} per repeat | repeats | median {unit}/s | quartile distance |"
    );
    println!("|---|---|---|---|---|");
}

/// Row `k` of a deterministic evidence mix in the wire alphabet: variable
/// `v` takes the `v`-th base-3 digit of `k` (`0` / `1` / `?`), so the first
/// `3^vars` rows are all distinct.
fn evidence_row(num_vars: usize, mut k: u64) -> String {
    (0..num_vars)
        .map(|_| {
            let digit = ['0', '1', '?'][(k % 3) as usize];
            k /= 3;
            digit
        })
        .collect()
}

fn worker_sweep(sizes: &Sizes) -> Result<(), BackendError> {
    let spn = Benchmark::Msnbc.spn();
    let mut batch = EvidenceBatch::with_capacity(spn.num_vars(), sizes.batch_rows);
    for k in 0..sizes.batch_rows as u64 {
        // Fibonacci hashing spreads consecutive `k` over every digit.
        let row = evidence_row(spn.num_vars(), k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        batch.push(&parse_row(&row)?)?;
    }
    let mut engine = Engine::new(CpuModel::new(), &spn, EngineOptions::default())?;
    let serial = engine.execute_batch(&batch)?.values;

    println!(
        "\n## Worker threads: `Engine::execute_batch_parallel`, MSNBC, {}-row batches\n",
        sizes.batch_rows
    );
    table_header("queries");
    for workers in [1, 2, 4, 8] {
        let parallelism = Parallelism::workers(workers);
        let label = format!("workers = {workers}");
        measure(
            &label,
            sizes.passes * sizes.batch_rows,
            sizes.repeats,
            || {
                for _ in 0..sizes.passes {
                    let out = engine.execute_batch_parallel(&batch, &parallelism)?;
                    check_deterministic(&label, &out.values, &serial)?;
                }
                Ok(())
            },
        )?;
    }
    Ok(())
}

/// Reads one reply line; a server that stops answering fails the read
/// timeout instead of hanging the sweep.
fn read_reply(reader: &mut impl BufRead) -> Result<String, BackendError> {
    let mut reply = String::new();
    if reader.read_line(&mut reply)? == 0 {
        return Err("the server closed a held connection".into());
    }
    Ok(reply)
}

/// One round of traffic: every active connection writes its pipeline of
/// requests (ids from `first_id` up, rows cycling through `pool`), then
/// every reply is read back in order and checked against the pool's value.
fn round(
    active: &mut [BufReader<&TcpStream>],
    pool: &[(String, u64)],
    first_id: usize,
) -> Result<(), BackendError> {
    let mut id = first_id;
    for reader in active.iter() {
        let mut lines = String::new();
        for _ in 0..PIPELINE {
            let row = &pool[id % pool.len()].0;
            lines.push_str(&format!(
                "{{\"id\": {id}, \"model\": \"banknote\", \"mode\": \"marginal\", \
                 \"rows\": [\"{row}\"]}}\n"
            ));
            id += 1;
        }
        let mut stream: &TcpStream = reader.get_ref();
        stream.write_all(lines.as_bytes())?;
    }
    let mut id = first_id;
    for reader in active.iter_mut() {
        for _ in 0..PIPELINE {
            let response = decode_response(read_reply(reader)?.trim())?;
            let want = pool[id % pool.len()].1;
            if response.id != id as u64 || !response.values.iter().map(|v| v.to_bits()).eq([want]) {
                return Err(format!(
                    "request {id}: got id {} values {:?}, want {}",
                    response.id,
                    response.values,
                    f64::from_bits(want)
                )
                .into());
            }
            id += 1;
        }
    }
    Ok(())
}

fn connection_sweep(sizes: &Sizes) -> Result<(), BackendError> {
    let spn = Benchmark::Banknote.spn();
    let num_vars = spn.num_vars();
    let service = Arc::new(Service::new(CpuModel::new(), ServiceConfig::default()));
    service.register("banknote", &spn);
    let mut server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0")?;

    // The request pool: every evidence row of the model, each with the bits
    // the in-process service answers for it.
    let mut pool: Vec<(String, u64)> = Vec::new();
    for k in 0..3u64.pow(num_vars as u32) {
        let row = evidence_row(num_vars, k);
        let request = QueryRequest::from_rows(0, "banknote", QueryMode::Marginal, &[&row], None)?;
        pool.push((row, service.query(request)?.values[0].to_bits()));
    }

    println!(
        "\n## Held connections: `poll(2)` front-end, {ACTIVE} active x {PIPELINE} pipelined \
         requests per round, the rest idle\n"
    );
    table_header("requests");
    let mut held: Vec<TcpStream> = Vec::new();
    for &connections in sizes.connections {
        // The set only grows, so every count is held at once; a command
        // round trip proves the event loop has accepted each newcomer.
        while held.len() < connections {
            let mut stream = TcpStream::connect(server.local_addr())?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            stream.write_all(b"{\"cmd\": \"models\"}\n")?;
            let reply = read_reply(&mut BufReader::new(&stream))?;
            if !reply.contains("\"ok\":true") {
                return Err(format!("connection {}: {reply}", held.len()).into());
            }
            held.push(stream);
        }
        // The active connections are spread over the whole held set.
        let mut active: Vec<BufReader<&TcpStream>> = held
            .iter()
            .step_by(connections / ACTIVE)
            .take(ACTIVE)
            .map(BufReader::new)
            .collect();
        let requests_per_round = ACTIVE * PIPELINE;
        let mut next_id = 0;
        measure(
            &format!("connections = {connections}"),
            sizes.rounds * requests_per_round,
            sizes.repeats,
            || {
                for _ in 0..sizes.rounds {
                    round(&mut active, &pool, next_id)?;
                    next_id += requests_per_round;
                }
                Ok(())
            },
        )?;
    }
    drop(held);
    server.shutdown();
    service.shutdown();
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sizes = match args.as_slice() {
        [] => &FULL,
        [flag] if flag == "--smoke" => &SMOKE,
        _ => {
            eprintln!("usage: scaling [--smoke]");
            std::process::exit(2);
        }
    };
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("# Scaling sweeps (host cores: {host_cores})");
    if let Err(err) = worker_sweep(sizes).and_then(|()| connection_sweep(sizes)) {
        eprintln!("scaling failed: {err}");
        std::process::exit(1);
    }
}
