//! Wall-clock throughput of the two-phase engine across dispatch styles,
//! worker counts and query modes.
//!
//! The engine compiles each workload once; the sweep then measures how many
//! queries per second the execute-many half sustains along three axes:
//!
//! 1. **dispatch** — evidence arriving one query at a time
//!    (`Engine::execute`) versus in dense [`EvidenceBatch`]es of size
//!    32/256/1024 (amortised dispatch, zero per-query allocation),
//! 2. **workers** — the same batches sharded across a fixed pool of scoped
//!    worker threads (`Engine::execute_batch_parallel`) at 1/2/4/8 workers,
//! 3. **query mode** — joint, marginal, MAP and conditional batches through
//!    `Engine::execute_query{,_parallel}` (conditionals cost two circuit
//!    passes per query, MAP adds the argmax traceback),
//! 4. **precision** — the same batches through engines stamped with each
//!    emulated PE format (`f64` / `f32` / the paper's `e8m10`), on a random
//!    benchmark circuit and on the deep chain; every record reports
//!    `max_rel_error` against the f64 oracle next to queries/sec, tracing
//!    the paper's accuracy-vs-bit-width trade-off curve,
//! 5. **simulated cores** — marginal batches sharded over 1/2/4 simulated
//!    processor cores behind one shared parameter memory; every record
//!    carries a `cores` column (1 for software platforms),
//! 6. **incremental sessions** — a long-lived evaluation session absorbing
//!    evidence deltas of 1/2/8/all flipped variables per query on a ≥ 500-op
//!    circuit, against the full-pass baseline re-executing the whole program
//!    per delta; sweep rows carry `flips > 0` and `incremental: 1`, every
//!    other record `flips: 0` / `incremental: 0`,
//! 7. **sampling** — likelihood-weighted `expectation` queries at 1e3 and
//!    1e5 draws per row through the alias-table sampler, reporting
//!    samples/sec plus the observed |estimate − exact| against the exact
//!    oracle and the reported 99% CI half-width (`abs_err` / `ci99`
//!    columns; `bench_check` pins `abs_err <= ci99` — sound because draws
//!    are deterministic per `(model, row, seed, n)`).
//!
//! Workload names are distinct from platform names (`uci-cpu-perf`, not
//! `CPU`) so the two columns of `BENCH_engine.json` can never be confused,
//! and every record carries its query mode and worker count.  Results go to
//! stdout as a markdown table and to `BENCH_engine.json` for the perf
//! trajectory.
//!
//! Run with `cargo run --release -p spn-bench --bin bench_engine [--smoke]
//! [out.json]`.  `--smoke` shrinks the sweep to a few hundred queries per
//! configuration — the CI smoke mode, exercising every axis in seconds.
//!
//! Exits non-zero (with a message on stderr) when any backend fails to
//! compile a workload, so CI catches compilation regressions instead of
//! reading a silently truncated JSON file.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use spn_bench::{flip_schedule, json_escape, json_number};
use spn_core::batch::EvidenceBatch;
use spn_core::query::{reference_query_with, ConditionalBatch, QueryBatch, QueryMode};
use spn_core::random::{deep_chain_spn, random_spn, RandomSpnConfig};
use spn_core::{Evidence, NumericMode, Precision, SampleBatch, SampleMethod, SampleSpec, Spn};
use spn_learn::Benchmark;
use spn_platforms::{
    Backend, BackendError, CpuModel, Engine, EngineOptions, Parallelism, ProcessorBackend,
};
use spn_processor::ProcessorConfig;

/// One measured configuration.
struct Measurement {
    workload: String,
    platform: String,
    mode: QueryMode,
    numeric: NumericMode,
    precision: Precision,
    /// Lane-block width of the CPU execute-many path (1 = one query per
    /// pass; non-CPU platforms always report 1).
    lanes: usize,
    /// Simulated core count of the processor backend (1 for every software
    /// platform and for the single-core simulator rows).
    cores: usize,
    batch_size: usize,
    threads: usize,
    queries: usize,
    seconds: f64,
    queries_per_sec: f64,
    /// Largest per-query relative error against the f64 oracle (relative on
    /// probabilities in the linear domain, on log-probabilities in the log
    /// domain); exactly 0.0 for full-precision rows.
    max_rel_error: f64,
    /// Variables flipped per delta on the session sweep (0 on every
    /// non-session row and on the session full-pass baseline).
    flips: usize,
    /// Whether the row went through the incremental session-delta path
    /// (serialised as 0/1 in the JSON).
    incremental: bool,
    /// Monte-Carlo draws per query row on the sampling sweep (0 on exact
    /// rows; sampling rows report *samples* per second in
    /// `queries_per_sec`).
    n_samples: u32,
    /// Largest per-row |estimate − exact| on the sampling sweep (0.0
    /// elsewhere).
    abs_err: f64,
    /// Largest per-row reported 99% CI half-width (`2.576 × std_err`, plus
    /// a `1e-12`-relative rounding floor) on the sampling sweep (0.0
    /// elsewhere); `bench_check` pins `abs_err <= ci99`.
    ci99: f64,
}

/// Two-sided 99% normal quantile: the CI half-width factor the sampling
/// sweep reports and `bench_check` gates on.
const CI99_Z: f64 = 2.5758293035489004;

/// Hardware threads of the host (1 when unknown): worker-count sweeps are
/// capped here, and every JSON record carries it so a <1.0x parallel row on
/// a small container can never be mistaken for a scaling regression.
fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Builds a deterministic batch of `n` mixed queries (cycling through
/// marginal, all-true, all-false and single-observation patterns).
fn build_marginal_batch(num_vars: usize, n: usize) -> EvidenceBatch {
    let mut batch = EvidenceBatch::with_capacity(num_vars, n);
    for q in 0..n {
        match q % 4 {
            0 => batch.push_marginal(),
            1 => batch.push_assignment(&vec![true; num_vars]).expect("arity"),
            2 => batch
                .push_assignment(&vec![false; num_vars])
                .expect("arity"),
            _ => {
                let mut e = Evidence::marginal(num_vars);
                e.observe(q % num_vars, q % 8 < 4);
                batch.push(&e).expect("arity");
            }
        }
    }
    batch
}

/// Builds a deterministic batch of `n` fully observed assignments.
fn build_joint_batch(num_vars: usize, n: usize) -> EvidenceBatch {
    let mut batch = EvidenceBatch::with_capacity(num_vars, n);
    for q in 0..n {
        let assignment: Vec<bool> = (0..num_vars).map(|v| (q + v) % 3 == 0).collect();
        batch.push_assignment(&assignment).expect("arity");
    }
    batch
}

/// Builds a deterministic batch of `n` conditional queries
/// `P(x_a = v | x_b = w)` with rotating variables and values.
fn build_conditional_batch(num_vars: usize, n: usize) -> ConditionalBatch {
    let mut cond = ConditionalBatch::new(num_vars);
    for q in 0..n {
        let mut target = Evidence::marginal(num_vars);
        target.observe(q % num_vars, q % 2 == 0);
        let mut given = Evidence::marginal(num_vars);
        given.observe((q + 1) % num_vars, q % 3 == 0);
        cond.push(&target, &given).expect("arity");
    }
    cond
}

/// Builds the query batch of `mode` with `n` queries (approximate modes at
/// the default spec; the sampling sweep builds its own specs).
fn build_query_batch(mode: QueryMode, num_vars: usize, n: usize) -> QueryBatch {
    match mode {
        QueryMode::Joint => QueryBatch::Joint(build_joint_batch(num_vars, n)),
        QueryMode::Marginal => QueryBatch::Marginal(build_marginal_batch(num_vars, n)),
        QueryMode::Map => QueryBatch::Map(build_marginal_batch(num_vars, n)),
        QueryMode::Conditional => QueryBatch::Conditional(build_conditional_batch(num_vars, n)),
        QueryMode::Sample | QueryMode::Expectation => {
            let batch = SampleBatch::new(build_marginal_batch(num_vars, n), SampleSpec::default());
            if mode == QueryMode::Sample {
                QueryBatch::Sample(batch)
            } else {
                QueryBatch::Expectation(batch)
            }
        }
    }
}

/// Timing repeats per configuration; the minimum is reported (standard
/// microbenchmark practice — the minimum is the run least disturbed by the
/// scheduler, and all dispatch modes do strictly deterministic work).
const REPEATS: usize = 5;

/// Runs `chunks` batches through `engine` and returns (seconds, checksum).
fn run_batched<B: Backend>(
    engine: &mut Engine<B>,
    batch: &EvidenceBatch,
    chunks: usize,
) -> (f64, f64) {
    let mut checksum = 0.0;
    let start = Instant::now();
    for _ in 0..chunks {
        let out = engine.execute_batch(batch).expect("execute_batch");
        checksum += out.values.iter().sum::<f64>();
    }
    (start.elapsed().as_secs_f64(), checksum)
}

/// Runs `chunks` sharded batches through the worker pool and returns
/// (seconds, checksum).
fn run_parallel<B: Backend>(
    engine: &mut Engine<B>,
    batch: &EvidenceBatch,
    chunks: usize,
    parallelism: &Parallelism,
) -> (f64, f64) {
    let mut checksum = 0.0;
    let start = Instant::now();
    for _ in 0..chunks {
        let out = engine
            .execute_batch_parallel(batch, parallelism)
            .expect("execute_batch_parallel");
        checksum += out.values.iter().sum::<f64>();
    }
    (start.elapsed().as_secs_f64(), checksum)
}

/// Runs `chunks` query batches through the mode-aware path and returns
/// (seconds, checksum).
fn run_query<B: Backend>(
    engine: &mut Engine<B>,
    query: &QueryBatch,
    chunks: usize,
    parallelism: Option<&Parallelism>,
) -> (f64, f64) {
    let mut checksum = 0.0;
    let start = Instant::now();
    for _ in 0..chunks {
        let out = match parallelism {
            Some(par) => engine
                .execute_query_parallel(query, par)
                .expect("execute_query_parallel"),
            None => engine.execute_query(query).expect("execute_query"),
        };
        checksum += out.values.iter().sum::<f64>();
    }
    (start.elapsed().as_secs_f64(), checksum)
}

/// Runs every query one at a time through the true single-query dispatch
/// path (`Engine::execute` over an `Evidence`) and returns (seconds,
/// checksum).  This is what a serving loop without batching pays per query.
fn run_single<B: Backend>(engine: &mut Engine<B>, evidences: &[Evidence]) -> (f64, f64) {
    let mut checksum = 0.0;
    let start = Instant::now();
    for evidence in evidences {
        let (value, _perf) = engine.execute(evidence).expect("execute");
        checksum += value;
    }
    (start.elapsed().as_secs_f64(), checksum)
}

/// Times `body` `REPEATS + 1` times (first run is the warm-up), checks its
/// checksum against `expected` and returns the minimum seconds.
fn best_of(expected: f64, label: &str, mut body: impl FnMut() -> (f64, f64)) -> f64 {
    let mut best = f64::INFINITY;
    for repeat in 0..=REPEATS {
        let (seconds, checksum) = body();
        assert!(
            (checksum - expected).abs() < 1e-6 * expected.abs().max(1e-12),
            "{label}: checksum {checksum} vs reference {expected}"
        );
        if repeat > 0 {
            best = best.min(seconds);
        }
    }
    best
}

/// Candidate worker counts of the sharded-execution sweep (1 = the serial
/// path); counts beyond the host's hardware threads are skipped — they can
/// only oversubscribe and mislead.
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// The thread sweep capped at the host core count (always keeping 1).
fn thread_sweep() -> Vec<usize> {
    let cores = host_cores();
    THREAD_SWEEP
        .iter()
        .copied()
        .filter(|&t| t == 1 || t <= cores)
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn record(
    results: &mut Vec<Measurement>,
    workload: &str,
    platform: &str,
    mode: QueryMode,
    numeric: NumericMode,
    lanes: usize,
    batch_size: usize,
    threads: usize,
    queries: usize,
    seconds: f64,
) {
    record_precision(
        results,
        workload,
        platform,
        mode,
        numeric,
        Precision::F64,
        0.0,
        lanes,
        batch_size,
        threads,
        queries,
        seconds,
    );
}

#[allow(clippy::too_many_arguments)]
fn record_precision(
    results: &mut Vec<Measurement>,
    workload: &str,
    platform: &str,
    mode: QueryMode,
    numeric: NumericMode,
    precision: Precision,
    max_rel_error: f64,
    lanes: usize,
    batch_size: usize,
    threads: usize,
    queries: usize,
    seconds: f64,
) {
    results.push(Measurement {
        workload: workload.to_string(),
        platform: platform.to_string(),
        mode,
        numeric,
        precision,
        lanes,
        cores: 1,
        batch_size,
        threads,
        queries,
        seconds,
        queries_per_sec: queries as f64 / seconds.max(1e-12),
        max_rel_error,
        flips: 0,
        incremental: false,
        n_samples: 0,
        abs_err: 0.0,
        ci99: 0.0,
    });
}

fn measure<B: Backend>(
    workload: &str,
    backend: B,
    lanes: usize,
    spn: &Spn,
    total_queries: usize,
    results: &mut Vec<Measurement>,
) -> Result<(), BackendError> {
    let numeric = NumericMode::Linear;
    let platform = backend.name();
    let mut engine = Engine::new(backend, spn, EngineOptions::default())
        .map_err(|err| format!("compiling {workload} for {platform}: {err}"))?;
    let num_vars = spn.num_vars();

    // Axis 1 — dispatch granularity (marginal queries, serial).
    for &batch_size in &[1usize, 32, 256, 1024] {
        let chunks = (total_queries / batch_size).max(1);
        let queries = chunks * batch_size;
        let batch = build_marginal_batch(num_vars, batch_size);
        let reference = reference_query_with(spn, &QueryBatch::Marginal(batch.clone()), numeric)
            .expect("reference");
        let expected: f64 = reference.values.iter().sum::<f64>() * chunks as f64;
        let label = format!("{workload}/{platform} batch {batch_size}");
        let best = if batch_size == 1 {
            // The true single-query dispatch path: one `Evidence` per call.
            let evidences: Vec<Evidence> = (0..queries)
                .map(|q| batch.to_evidence(q % batch.len()))
                .collect();
            best_of(expected, &label, || run_single(&mut engine, &evidences))
        } else {
            best_of(expected, &label, || {
                run_batched(&mut engine, &batch, chunks)
            })
        };
        record(
            results,
            workload,
            &platform,
            QueryMode::Marginal,
            numeric,
            lanes,
            batch_size,
            1,
            queries,
            best,
        );
    }

    // Axis 2 — worker count over large batches (marginal queries), capped at
    // the host's hardware threads.
    for &batch_size in &[256usize, 1024] {
        let chunks = (total_queries / batch_size).max(1);
        let queries = chunks * batch_size;
        let batch = build_marginal_batch(num_vars, batch_size);
        let reference = reference_query_with(spn, &QueryBatch::Marginal(batch.clone()), numeric)
            .expect("reference");
        let expected: f64 = reference.values.iter().sum::<f64>() * chunks as f64;
        for &threads in thread_sweep().iter().filter(|&&t| t > 1) {
            let parallelism = Parallelism::workers(threads);
            let label = format!("{workload}/{platform} batch {batch_size} x{threads}");
            let best = best_of(expected, &label, || {
                run_parallel(&mut engine, &batch, chunks, &parallelism)
            });
            record(
                results,
                workload,
                &platform,
                QueryMode::Marginal,
                numeric,
                lanes,
                batch_size,
                threads,
                queries,
                best,
            );
        }
    }

    // Axis 3 — query modes at batch 256, serial and 4 workers.  Marginal is
    // skipped here: axes 1 and 2 already record it at every batch size and
    // worker count, and duplicate (mode, batch, threads) keys would make the
    // JSON ambiguous.
    let batch_size = 256usize;
    let chunks = (total_queries / batch_size).max(1);
    let queries = chunks * batch_size;
    for mode in [QueryMode::Joint, QueryMode::Map, QueryMode::Conditional] {
        let query = build_query_batch(mode, num_vars, batch_size);
        let reference = reference_query_with(spn, &query, numeric).expect("reference");
        let expected: f64 = reference.values.iter().sum::<f64>() * chunks as f64;
        for &threads in [1usize, 4].iter().filter(|&&t| t == 1 || t <= host_cores()) {
            let parallelism = (threads > 1).then(|| Parallelism::workers(threads));
            let label = format!("{workload}/{platform} {mode} x{threads}");
            let best = best_of(expected, &label, || {
                run_query(&mut engine, &query, chunks, parallelism.as_ref())
            });
            record(
                results, workload, &platform, mode, numeric, lanes, batch_size, threads, queries,
                best,
            );
        }
    }
    Ok(())
}

/// Measures the multi-core simulator axis: the same marginal batches
/// sharded over 1, 2 and 4 simulated Ptree cores behind one shared
/// parameter memory.  Host wall-clock stays roughly flat (the host still
/// simulates every cycle of every core), but each row's `cores` column and
/// the merged perf report pin the simulated makespan scaling; the column is
/// also what `bench_check` requires on every engine record.
fn measure_processor_cores(
    workload: &str,
    spn: &Spn,
    total_queries: usize,
    results: &mut Vec<Measurement>,
) -> Result<(), BackendError> {
    let numeric = NumericMode::Linear;
    let batch_size = 256usize;
    let chunks = (total_queries / batch_size).max(1);
    let queries = chunks * batch_size;
    let batch = build_marginal_batch(spn.num_vars(), batch_size);
    let reference = reference_query_with(spn, &QueryBatch::Marginal(batch.clone()), numeric)
        .expect("reference");
    let expected: f64 = reference.values.iter().sum::<f64>() * chunks as f64;
    for cores in [1usize, 2, 4] {
        let backend = ProcessorBackend::with_cores(ProcessorConfig::ptree(), cores)?;
        let platform = backend.name();
        let mut engine = Engine::new(backend, spn, EngineOptions::default())
            .map_err(|err| format!("compiling {workload} for {platform}: {err}"))?;
        let label = format!("{workload}/{platform} cores {cores}");
        let best = best_of(expected, &label, || {
            run_batched(&mut engine, &batch, chunks)
        });
        results.push(Measurement {
            workload: workload.to_string(),
            platform,
            mode: QueryMode::Marginal,
            numeric,
            precision: Precision::F64,
            lanes: 1,
            cores,
            batch_size,
            threads: 1,
            queries,
            seconds: best,
            queries_per_sec: queries as f64 / best.max(1e-12),
            max_rel_error: 0.0,
            flips: 0,
            incremental: false,
            n_samples: 0,
            abs_err: 0.0,
            ci99: 0.0,
        });
    }
    Ok(())
}

/// Measures the numeric-mode axis on a deep chain whose probabilities
/// underflow linear f64: marginal batches in linear mode (values flush to
/// 0.0 — the cost baseline) against log mode (finite log-probabilities via
/// the log-sum-exp kernels).
fn measure_numeric_modes(
    workload: &str,
    spn: &Spn,
    total_queries: usize,
    results: &mut Vec<Measurement>,
) -> Result<(), BackendError> {
    let cpu = CpuModel::new();
    let platform = cpu.name();
    let lanes = cpu.lanes();
    let batch_size = 256usize;
    let chunks = (total_queries / batch_size).max(1);
    let queries = chunks * batch_size;
    let batch = build_marginal_batch(spn.num_vars(), batch_size);
    for numeric in NumericMode::ALL {
        let mut engine = Engine::new(CpuModel::new(), spn, EngineOptions::default().mode(numeric))
            .map_err(|err| format!("compiling {workload} ({numeric}) for {platform}: {err}"))?;
        let reference = reference_query_with(spn, &QueryBatch::Marginal(batch.clone()), numeric)
            .expect("reference");
        let expected: f64 = reference.values.iter().sum::<f64>() * chunks as f64;
        let label = format!("{workload}/{platform} numeric {numeric}");
        let best = best_of(expected, &label, || {
            run_batched(&mut engine, &batch, chunks)
        });
        record(
            results,
            workload,
            &platform,
            QueryMode::Marginal,
            numeric,
            lanes,
            batch_size,
            1,
            queries,
            best,
        );
    }
    Ok(())
}

/// Measures the precision axis: the same marginal batches through engines
/// stamped with each emulated PE format, recording throughput *and* the
/// largest per-query relative error against the f64 oracle — the paper's
/// accuracy-vs-bit-width trade-off.  Errors are relative on probabilities in
/// the linear domain and on log-probabilities in the log domain (where
/// quantization error is absolute in the log, i.e. relative in the
/// probability).
fn measure_precision_sweep(
    workload: &str,
    spn: &Spn,
    numeric: NumericMode,
    total_queries: usize,
    results: &mut Vec<Measurement>,
) -> Result<(), BackendError> {
    let cpu = CpuModel::new();
    let platform = cpu.name();
    let lanes = cpu.lanes();
    let batch_size = 256usize;
    let chunks = (total_queries / batch_size).max(1);
    let queries = chunks * batch_size;
    let batch = build_marginal_batch(spn.num_vars(), batch_size);
    let oracle = reference_query_with(spn, &QueryBatch::Marginal(batch.clone()), numeric)
        .expect("reference");
    for precision in Precision::SWEEP {
        let mut engine = Engine::new(
            CpuModel::new(),
            spn,
            EngineOptions::default().mode(numeric).precision(precision),
        )
        .map_err(|err| format!("compiling {workload} ({numeric}/{precision}): {err}"))?;
        // One untimed pass pins the accuracy (and the repeatability checksum
        // — a reduced-precision engine cannot be checked against the f64
        // oracle's sum).
        let once = engine
            .execute_batch(&batch)
            .map_err(|err| err.to_string())?;
        let max_rel_error = once
            .values
            .iter()
            .zip(&oracle.values)
            .map(|(got, want)| {
                if got.to_bits() == want.to_bits() {
                    0.0
                } else {
                    (got - want).abs() / want.abs().max(1e-300)
                }
            })
            .fold(0.0, f64::max);
        let expected: f64 = once.values.iter().sum::<f64>() * chunks as f64;
        let label = format!("{workload}/{platform} precision {precision}");
        let best = best_of(expected, &label, || {
            run_batched(&mut engine, &batch, chunks)
        });
        record_precision(
            results,
            workload,
            &platform,
            QueryMode::Marginal,
            numeric,
            precision,
            max_rel_error,
            lanes,
            batch_size,
            1,
            queries,
            best,
        );
    }
    Ok(())
}

/// Measures the sampling axis: likelihood-weighted `expectation` queries at
/// 1e3 and 1e5 draws per row through the engine's sampler, against the
/// exact oracle.  Each record reports *samples* per second in
/// `queries_per_sec`, the largest per-row |estimate − exact| in `abs_err`,
/// and the largest reported 99% CI half-width in `ci99`.  Every row's error
/// is checked against its own interval here at generation time — the draws
/// are a pure function of `(model, row, seed, n)`, so a pass is a pass on
/// every re-run — which is what lets `bench_check` gate on the recorded
/// `abs_err <= ci99` without statistical flake.
fn measure_sampling_sweep(
    workload: &str,
    spn: &Spn,
    smoke: bool,
    results: &mut Vec<Measurement>,
) -> Result<(), BackendError> {
    let numeric = NumericMode::Linear;
    let cpu = CpuModel::new();
    let platform = cpu.name();
    let lanes = cpu.lanes();
    let mut engine = Engine::new(cpu, spn, EngineOptions::default())
        .map_err(|err| format!("compiling {workload} for sampling: {err}"))?;
    let num_vars = spn.num_vars();
    let exact_of = |rows: &EvidenceBatch| {
        reference_query_with(spn, &QueryBatch::Marginal(rows.clone()), numeric)
            .expect("reference")
            .values
    };
    for n_samples in [1_000u32, 100_000] {
        // Fewer rows at the heavy draw count keep the sweep's wall-clock
        // bounded; each row still draws the full n.
        let batch_size = if n_samples > 10_000 { 4 } else { 16 };
        let rows = build_marginal_batch(num_vars, batch_size);
        let exact = exact_of(&rows);
        let spec = SampleSpec {
            seed: 0x5a17,
            n_samples,
            method: SampleMethod::LikelihoodWeighted,
        };
        let query = QueryBatch::Expectation(SampleBatch::new(rows, spec));
        // One untimed pass pins the estimates and their intervals.
        let once = engine
            .execute_query(&query)
            .map_err(|err| err.to_string())?;
        let std_err = once.std_err.as_ref().expect("expectation carries std_err");
        let mut abs_err = 0.0f64;
        let mut ci99 = 0.0f64;
        for ((got, want), se) in once.values.iter().zip(&exact).zip(std_err) {
            let err = (got - want).abs();
            // The relative floor keeps the bound meaningful when the
            // importance weights are near-constant: the reported spread can
            // sit below f64 summation noise, and the estimate-vs-oracle gap
            // is then rounding, not estimator error.
            let bound = CI99_Z * se + 1e-12 * want.abs().max(1e-300);
            if err > bound {
                return Err(format!(
                    "{workload}: sampling estimate {got} missed exact {want} beyond \
                     its reported 99% CI ({err:.3e} > {bound:.3e}) at n = {n_samples}"
                )
                .into());
            }
            abs_err = abs_err.max(err);
            ci99 = ci99.max(bound);
        }
        let expected: f64 = once.values.iter().sum();
        // Draws are deterministic per spec: the timed repeats are
        // checksum-verified against the untimed pass bit for bit.
        let label = format!("{workload}/{platform} sampling n {n_samples}");
        let timed_repeats = if smoke && n_samples > 10_000 { 1 } else { 2 };
        let mut best = f64::INFINITY;
        for _ in 0..timed_repeats {
            let start = Instant::now();
            let out = engine.execute_query(&query).expect("execute_query");
            let seconds = start.elapsed().as_secs_f64();
            let checksum: f64 = out.values.iter().sum();
            assert!(
                checksum.to_bits() == expected.to_bits(),
                "{label}: non-deterministic sampling checksum {checksum} vs {expected}"
            );
            best = best.min(seconds);
        }
        let samples = batch_size * n_samples as usize;
        results.push(Measurement {
            workload: workload.to_string(),
            platform: platform.clone(),
            mode: QueryMode::Expectation,
            numeric,
            precision: Precision::F64,
            lanes,
            cores: 1,
            batch_size,
            threads: 1,
            queries: samples,
            seconds: best,
            queries_per_sec: samples as f64 / best.max(1e-12),
            max_rel_error: 0.0,
            flips: 0,
            incremental: false,
            n_samples,
            abs_err,
            ci99,
        });
    }
    Ok(())
}

/// Replays `deltas` through a fresh evaluation session (the incremental
/// path) and returns (seconds, checksum over the open value and every delta
/// value).
fn run_session_walk<B: Backend>(
    engine: &mut Engine<B>,
    num_vars: usize,
    deltas: &[Vec<(usize, Option<bool>)>],
) -> (f64, f64) {
    let start = Instant::now();
    let mut session = engine
        .open_session(&Evidence::marginal(num_vars))
        .expect("open_session");
    let mut checksum = session.value();
    for flips in deltas {
        let outcome = engine.session_delta(&mut session, flips).expect("delta");
        checksum += outcome.value;
    }
    (start.elapsed().as_secs_f64(), checksum)
}

/// Replays the same walk without a session: every delta mutates a local
/// `Evidence` and pays a full `Engine::execute` pass — what a session-less
/// client re-sending the whole row per update costs.  The checksum is
/// bit-for-bit the session walk's (the incremental evaluator's parity
/// contract), so `best_of` cross-checks the two paths against each other.
fn run_full_walk<B: Backend>(
    engine: &mut Engine<B>,
    num_vars: usize,
    deltas: &[Vec<(usize, Option<bool>)>],
) -> (f64, f64) {
    let start = Instant::now();
    let mut evidence = Evidence::marginal(num_vars);
    let (value, _perf) = engine.execute(&evidence).expect("execute");
    let mut checksum = value;
    for flips in deltas {
        for &(var, observation) in flips {
            match observation {
                Some(value) => evidence.observe(var, value),
                None => evidence.forget(var),
            }
        }
        let (value, _perf) = engine.execute(&evidence).expect("execute");
        checksum += value;
    }
    (start.elapsed().as_secs_f64(), checksum)
}

/// Measures the incremental-session axis: a long-lived session absorbing
/// evidence deltas of 1/2/8/all flipped variables per query, against the
/// full-pass baseline replaying the same walk through `Engine::execute`.
/// Sweep rows carry their flip count and `incremental: 1`; the baseline row
/// is `flips: 0` / `incremental: 0`, and `bench_check` pins the ratio.
/// Returns the measured 1-flip speedup for the summary line.
fn measure_session_sweep(
    workload: &str,
    spn: &Spn,
    total_deltas: usize,
    results: &mut Vec<Measurement>,
) -> Result<f64, BackendError> {
    let numeric = NumericMode::Linear;
    let cpu = CpuModel::new();
    let platform = cpu.name();
    let lanes = cpu.lanes();
    let mut engine = Engine::new(cpu, spn, EngineOptions::default())
        .map_err(|err| format!("compiling {workload} for sessions: {err}"))?;
    let num_vars = spn.num_vars();
    let num_ops = engine.ops().num_ops();
    assert!(
        num_ops >= 500,
        "{workload}: session sweep needs a ≥ 500-op circuit, got {num_ops}"
    );
    eprintln!("{workload}: {num_ops} ops, {num_vars} vars");
    // Each walk answers one prime/open evaluation plus `total_deltas` deltas.
    let queries = total_deltas + 1;
    let mut push = |flips: usize, incremental: bool, seconds: f64| {
        results.push(Measurement {
            workload: workload.to_string(),
            platform: platform.clone(),
            mode: QueryMode::Marginal,
            numeric,
            precision: Precision::F64,
            lanes,
            cores: 1,
            batch_size: 1,
            threads: 1,
            queries,
            seconds,
            queries_per_sec: queries as f64 / seconds.max(1e-12),
            max_rel_error: 0.0,
            flips,
            incremental,
            n_samples: 0,
            abs_err: 0.0,
            ci99: 0.0,
        });
    };

    // Full-pass baseline on the sparsest walk (full-pass cost is independent
    // of the flip count, so one baseline row serves every sweep row).
    let deltas = flip_schedule(num_vars, 1, total_deltas);
    let (_, expected) = run_full_walk(&mut engine, num_vars, &deltas);
    let label = format!("{workload}/{platform} session baseline ({num_ops} ops)");
    let baseline = best_of(expected, &label, || {
        run_full_walk(&mut engine, num_vars, &deltas)
    });
    push(0, false, baseline);

    let mut one_flip_speedup = 0.0;
    for flips in [1usize, 2, 8, num_vars] {
        let deltas = flip_schedule(num_vars, flips, total_deltas);
        // The untimed full walk pins the expected checksum, so every timed
        // session run is cross-checked against the full-pass oracle.
        let (_, expected) = run_full_walk(&mut engine, num_vars, &deltas);
        let label = format!("{workload}/{platform} session flips {flips}");
        let best = best_of(expected, &label, || {
            run_session_walk(&mut engine, num_vars, &deltas)
        });
        push(flips, true, best);
        if flips == 1 {
            one_flip_speedup = baseline / best.max(1e-12);
        }
    }
    Ok(one_flip_speedup)
}

fn to_json(results: &[Measurement]) -> String {
    let host = host_cores();
    let mut out = String::from("[\n");
    for (i, m) in results.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "  {{\"workload\": \"{}\", \"platform\": \"{}\", \"mode\": \"{}\", ",
                "\"numeric_mode\": \"{}\", \"precision\": \"{}\", ",
                "\"max_rel_error\": {}, \"lanes\": {}, \"cores\": {}, ",
                "\"batch_size\": {}, \"threads\": {}, ",
                "\"flips\": {}, \"incremental\": {}, ",
                "\"n_samples\": {}, \"abs_err\": {}, \"ci99\": {}, ",
                "\"host_cores\": {}, \"queries\": {}, ",
                "\"seconds\": {}, \"queries_per_sec\": {}}}{}\n",
            ),
            json_escape(&m.workload),
            json_escape(&m.platform),
            m.mode.name(),
            m.numeric.name(),
            m.precision.name(),
            json_number(m.max_rel_error),
            m.lanes,
            m.cores,
            m.batch_size,
            m.threads,
            m.flips,
            m.incremental as usize,
            m.n_samples,
            json_number(m.abs_err),
            json_number(m.ci99),
            host,
            m.queries,
            json_number(m.seconds),
            json_number(m.queries_per_sec),
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    out.push_str("]\n");
    out
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_engine.json".to_string();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => out_path = other.to_string(),
        }
    }
    if let Err(err) = run(smoke, &out_path) {
        eprintln!("bench_engine failed: {err}");
        std::process::exit(1);
    }
}

fn run(smoke: bool, out_path: &str) -> Result<(), BackendError> {
    let mut results: Vec<Measurement> = Vec::new();
    // Smoke mode (CI) shrinks the sweep by an order of magnitude; the axes
    // and record schema stay identical.
    let (cpu_queries, sim_queries) = if smoke { (2_048, 256) } else { (20_480, 2_048) };

    // CPU backend: the software fast path, high query counts.  Small and
    // medium circuits are the dispatch-sensitive regime where batching
    // matters; the compute-dominated large circuits live in fig4.  Workload
    // names are deliberately distinct from every platform name.  Each
    // workload runs twice — one query per pass (lanes = 1, the baseline)
    // and the default lane-blocked width, both through `run_lanes::<L>` —
    // so the vectorization speed-up is a first-class row pair in the JSON.
    for (workload, benchmark) in [
        ("uci-banknote", Benchmark::Banknote),
        ("uci-cpu-perf", Benchmark::Cpu),
    ] {
        let spn = benchmark.spn();
        let scalar = CpuModel::scalar();
        let vectorized = CpuModel::new();
        let wide = vectorized.lanes();
        measure(workload, scalar, 1, &spn, cpu_queries, &mut results)?;
        measure(workload, vectorized, wide, &spn, cpu_queries, &mut results)?;
    }
    // Cycle-accurate simulator: far slower per query, smaller total.
    {
        let spn = Benchmark::Banknote.spn();
        measure(
            "uci-banknote",
            ProcessorBackend::ptree(),
            1,
            &spn,
            sim_queries,
            &mut results,
        )?;
        // Multi-core scaling: the same workload sharded over 1/2/4 simulated
        // cores (distinct workload name keeps the cores=1 row from colliding
        // with the full-axes Ptree rows above).
        measure_processor_cores("uci-banknote-cores", &spn, sim_queries, &mut results)?;
    }
    // Numeric-mode axis: a 1.2k-level deep chain whose probabilities
    // underflow linear f64 — log mode pays the transcendental kernels but is
    // the only mode returning finite answers here.
    {
        let chain = deep_chain_spn(1200, 1e-3);
        measure_numeric_modes("deep-chain-1200", &chain, cpu_queries / 4, &mut results)?;
        // Precision axis (distinct workload names keep the per-precision
        // rows from colliding with the f64 rows of the axes above): the
        // accuracy-vs-bit-width curve on a random benchmark circuit in the
        // linear domain and on the deep chain in the log domain (reduced
        // exponent ranges flush the chain's linear values to zero, so the
        // log domain is where custom formats earn their keep there).
        let spn = Benchmark::Banknote.spn();
        measure_precision_sweep(
            "uci-banknote-prec",
            &spn,
            NumericMode::Linear,
            cpu_queries / 4,
            &mut results,
        )?;
        measure_precision_sweep(
            "deep-chain-1200-prec",
            &chain,
            NumericMode::Log,
            cpu_queries / 8,
            &mut results,
        )?;
    }
    // Incremental-session axis: a wide random circuit (shallow per-leaf
    // cones, ≥ 500 ops — the regime the per-session delta path is built
    // for), flip counts 1/2/8/all against the full-pass baseline.
    let session_speedup = {
        let mut rng = StdRng::seed_from_u64(0x5e55);
        let spn = random_spn(&RandomSpnConfig::with_vars(48), &mut rng);
        measure_session_sweep("session-random-48", &spn, cpu_queries / 4, &mut results)?
    };
    // Sampling axis: approximate expectation queries at 1e3 / 1e5 draws per
    // row, samples/sec next to observed error vs the exact oracle.
    {
        let spn = Benchmark::Banknote.spn();
        measure_sampling_sweep("uci-banknote-sampling", &spn, smoke, &mut results)?;
    }

    println!("# Engine throughput: dispatch granularity, worker count, query mode\n");
    println!("host cores: {}\n", host_cores());
    println!(
        "| workload | platform | mode | numeric | precision | max rel err | lanes | cores | batch \
         | threads | flips | inc | queries | queries/sec |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|");
    for m in &results {
        println!(
            "| {} | {} | {} | {} | {} | {:.2e} | {} | {} | {} | {} | {} | {} | {} | {:.0} |",
            m.workload,
            m.platform,
            m.mode.name(),
            m.numeric.name(),
            m.precision,
            m.max_rel_error,
            m.lanes,
            m.cores,
            m.batch_size,
            m.threads,
            m.flips,
            m.incremental as usize,
            m.queries,
            m.queries_per_sec
        );
    }
    let wide = CpuModel::new().lanes();
    for (workload, platform) in results
        .iter()
        .map(|m| (m.workload.clone(), m.platform.clone()))
        .collect::<std::collections::BTreeSet<_>>()
    {
        let get = |mode: QueryMode, lanes: usize, size: usize, threads: usize| {
            results
                .iter()
                .find(|m| {
                    m.workload == workload
                        && m.platform == platform
                        && m.mode == mode
                        && m.lanes == lanes
                        && m.batch_size == size
                        && m.threads == threads
                })
                .map(|m| m.queries_per_sec)
        };
        // Ratios only make sense when both rows were measured (the deep-chain
        // workload skips the dispatch axis, worker counts beyond the host
        // cores are never swept, and only the CPU runs both lane widths).
        let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
            (Some(n), Some(d)) if d > 0.0 => format!("{:.2}x", n / d),
            _ => "n/a".to_string(),
        };
        let serial = |size: usize| {
            get(QueryMode::Marginal, 1, size, 1).or_else(|| {
                // Workloads measured only lane-blocked (numeric/precision axes).
                get(QueryMode::Marginal, wide, size, 1)
            })
        };
        println!(
            "\n{workload}/{platform}: batch 256 vs 1 = {}, batch 1024 vs 1 = {}, \
             4 workers vs 1 at batch 1024 = {}, {wide} lanes vs scalar at batch 1024 = {}",
            ratio(serial(256), serial(1)),
            ratio(serial(1024), serial(1)),
            ratio(
                get(QueryMode::Marginal, 1, 1024, 4).or_else(|| get(
                    QueryMode::Marginal,
                    wide,
                    1024,
                    4
                )),
                serial(1024)
            ),
            ratio(
                get(QueryMode::Marginal, wide, 1024, 1),
                get(QueryMode::Marginal, 1, 1024, 1)
            ),
        );
    }

    println!("\nsession-random-48: 1-flip deltas vs full passes = {session_speedup:.2}x");
    for m in results.iter().filter(|m| m.n_samples > 0) {
        println!(
            "{}: n = {} -> {:.0} samples/sec, max |err| = {:.3e} (reported 99% CI <= {:.3e})",
            m.workload, m.n_samples, m.queries_per_sec, m.abs_err, m.ci99
        );
    }

    std::fs::write(out_path, to_json(&results))
        .map_err(|err| format!("writing {out_path}: {err}"))?;
    eprintln!("results written to {out_path}");
    Ok(())
}
