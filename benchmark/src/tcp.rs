//! The four `tcp-*` workloads: the shipped server (`ServiceConfig::default()`
//! — two workers, 256-query / 1 ms batching; no benchmark-only tuning) run
//! in-process behind its TCP front-end and driven by [`crate::loadgen`].
//!
//! Every reply is compared byte for byte with the line the in-process oracle
//! encodes for the same request — responses carry shortest-round-trip
//! floats, so equal bytes mean bit-equal values.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spn_core::wire::{self, QueryRequest, QueryResponse};
use spn_core::{Evidence, QueryBatch, SampleSpec, Spn};
use spn_learn::Benchmark;
use spn_platforms::{BackendError, CpuModel, Engine, EngineOptions};
use spn_serve::json::{self, Value};
use spn_serve::tcp::{decode_request, encode_request, encode_response};
use spn_serve::{ModelVariant, Service, ServiceConfig, SessionOpen, TcpServer};

use crate::engine::{session_circuit, SESSION_VARS, SETUP_BUDGET};
use crate::gen::{self, Flip, MixModel};
use crate::harness::{self, Args, Report};
use crate::loadgen::{self, Conn, LoadResult, Pace};
use crate::stats::{self, percentile};
use crate::trace::Tracer;

/// Distinct one-shot requests (cycled) and session deltas (cycled): whole
/// blocks of the request mix, so the pool holds its exact shares.
const POOL: usize = 26 * gen::mix_block(2);
/// Requests replayed stage by stage in the traced run.
const REPLAYS: usize = 1024;
/// Requests per second of the open loop.
const OPEN_RATE: f64 = 3000.0;
/// The session every `tcp-session` delta addresses.
const SESSION: u64 = 1;

/// One `tcp-*` workload: how many connections, how paced, and the latency
/// limit `within_limit_share` counts against.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub connections: usize,
    pub pace: Pace,
    pub limit_ms: f64,
    pub sessions: bool,
}

pub fn shape(workload: &str) -> Option<Shape> {
    let one_shot = |connections, pace, limit_ms| Shape {
        connections,
        pace,
        limit_ms,
        sessions: false,
    };
    Some(match workload {
        // One caller waiting for each reply, then thinking for up to the
        // server's 1 ms poll tick: the per-request path with an idle server.
        "tcp-closed" => one_shot(
            2,
            Pace::Closed {
                in_flight: 1,
                think_us: 1000,
            },
            5.0,
        ),
        // Independent callers at a fixed rate, about 40 % of the capacity
        // `tcp-pipelined` measures on the reference box.
        "tcp-open" => one_shot(2, Pace::Open { rate: OPEN_RATE }, 5.0),
        // Capacity: 64 requests always in flight.  A reply waits for a
        // window's worth of work (p50 8 ms), so the limit is wider.
        "tcp-pipelined" => one_shot(
            2,
            Pace::Closed {
                in_flight: 32,
                think_us: 0,
            },
            15.0,
        ),
        "tcp-session" => Shape {
            connections: 1,
            pace: Pace::Closed {
                in_flight: 32,
                think_us: 0,
            },
            limit_ms: 10.0,
            sessions: true,
        },
        _ => return None,
    })
}

/// The models a workload serves, learned once for the oracle (each timed
/// set-up learns them again, as a deployment would).
fn models(sessions: bool) -> Vec<(&'static str, Spn)> {
    if sessions {
        vec![("random-96", session_circuit())]
    } else {
        vec![
            ("banknote", Benchmark::Banknote.spn()),
            ("msnbc", Benchmark::Msnbc.spn()),
        ]
    }
}

/// Server, front-end and connected, warmed clients.
struct Stack {
    service: Arc<Service<CpuModel>>,
    server: TcpServer,
    conns: Vec<Conn>,
}

impl Stack {
    /// Learn, register, compile (including the MAP plan), spawn the server,
    /// connect and exchange one request per connection — everything up to
    /// the first measured request.
    fn build(shape: &Shape, warm_line: &str) -> Result<Stack, BackendError> {
        let service = Arc::new(Service::new(CpuModel::new(), ServiceConfig::default()));
        for (name, spn) in models(shape.sessions) {
            service.register(name, &spn);
            let variant = ModelVariant::default();
            let (mut engine, version) = service.registry().engine(name, variant)?;
            if !shape.sessions {
                engine.prepare_map()?;
                let map = engine
                    .shared_map()
                    .ok_or("MAP plan missing after prepare_map")?;
                service.registry().store_map(name, version, variant, map);
            }
        }
        let server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0")?;
        let mut conns = Vec::with_capacity(shape.connections);
        for _ in 0..shape.connections {
            let mut conn = Conn::connect(server.local_addr())?;
            let reply = conn.exchange(warm_line)?;
            if !reply.contains("\"ok\":true") {
                return Err(format!("warm-up request refused: {reply}").into());
            }
            conns.push(conn);
        }
        Ok(Stack {
            service,
            server,
            conns,
        })
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.conns.clear();
        self.server.shutdown();
        self.service.shutdown();
    }
}

/// The request lines of a workload and what checks their replies.
struct Traffic {
    lines: Vec<String>,
    /// Rows each pooled request carries.
    rows: Vec<usize>,
    /// One-shot: the reply line the oracle encodes for each pooled request.
    expected: Vec<String>,
    /// One-shot: the pooled requests themselves (for the staged replay).
    requests: Vec<QueryRequest>,
    /// Session: the delta walk behind the lines.
    walk: Vec<Vec<Flip>>,
    warm_line: String,
}

fn oracle_engine(spn: &Spn) -> Result<Engine<CpuModel>, BackendError> {
    Engine::new(CpuModel::new(), spn, EngineOptions::default())
}

fn one_shot_traffic(seed: u64, models: &[(&'static str, Spn)]) -> Result<Traffic, BackendError> {
    let mix: Vec<MixModel<'_>> = models
        .iter()
        .map(|(name, spn)| MixModel {
            name,
            num_vars: spn.num_vars(),
        })
        .collect();
    let requests = gen::request_mix(&mut gen::rng(seed, 0x7c9), &mix, POOL)?;
    let mut engines = models
        .iter()
        .map(|(name, spn)| Ok((*name, oracle_engine(spn)?)))
        .collect::<Result<Vec<_>, BackendError>>()?;
    let mut expected = Vec::with_capacity(requests.len());
    for request in &requests {
        let engine = &mut engines
            .iter_mut()
            .find(|(name, _)| *name == request.model)
            .ok_or("request for an unknown model")?
            .1;
        let out = engine.execute_query(&request.query)?;
        let samples = match &request.query {
            QueryBatch::Sample(b) | QueryBatch::Expectation(b) => {
                u64::from(b.spec().n_samples) * b.len() as u64
            }
            _ => 0,
        };
        expected.push(encode_response(&QueryResponse {
            id: request.id,
            model: request.model.clone(),
            mode: request.query.mode(),
            numeric: request.numeric,
            precision: request.precision,
            values: out.values,
            assignments: out.assignments,
            std_err: out.std_err,
            samples,
        }));
    }
    let lines: Vec<String> = requests.iter().map(encode_request).collect();
    Ok(Traffic {
        warm_line: lines[0].clone(),
        rows: requests.iter().map(|r| r.query.len()).collect(),
        lines,
        expected,
        requests,
        walk: Vec::new(),
    })
}

fn session_traffic(seed: u64) -> Traffic {
    // 90 % one-flip deltas (cone path), 10 % all-variables (full pass).
    let walk = gen::flip_walk(&mut gen::rng(seed, 0x5e5), SESSION_VARS, POOL, 0.1);
    Traffic {
        lines: walk
            .iter()
            .enumerate()
            .map(|(i, flips)| gen::delta_line(i as u64, SESSION, flips))
            .collect(),
        rows: vec![1; walk.len()],
        expected: Vec::new(),
        requests: Vec::new(),
        walk,
        warm_line: format!(
            "{{\"v\":2,\"type\":\"session_open\",\"id\":0,\"session\":{SESSION},\"model\":\"random-96\",\"row\":\"{}\"}}",
            "?".repeat(SESSION_VARS)
        ),
    }
}

/// Checks session replies.  While the load runs every reply must say
/// `"ok":true` and echo its id, and a fixed one in 64 is kept; when the
/// phase is over the walk is replayed on the generator's own evidence and
/// each kept reply, and the last, is compared bit for bit with a from-scratch
/// evaluation.  A from-scratch pass over the session circuit takes most of a
/// millisecond and evicts a core's cache, so it stays off the timed path.
struct SessionOracle<'a> {
    engine: Engine<CpuModel>,
    evidence: Evidence,
    walk: &'a [Vec<Flip>],
    kept: Vec<(u64, String)>,
    sampled: u64,
}

impl SessionOracle<'_> {
    const SAMPLE_EVERY: u64 = 64;

    fn admit(&mut self, seq: u64, reply: &str) -> bool {
        let index = seq % self.walk.len() as u64;
        if !reply.starts_with(&format!("{{\"id\":{index},\"ok\":true,")) {
            return false;
        }
        if seq.is_multiple_of(Self::SAMPLE_EVERY) {
            self.kept.push((seq, reply.to_string()));
        }
        true
    }

    /// Replays the `sent` deltas of the phase that just ended; returns how
    /// many kept replies (and the last one) differ from the evaluation.
    fn verify(&mut self, sent: u64, last_reply: &str) -> u64 {
        let mut kept = std::mem::take(&mut self.kept).into_iter().peekable();
        let mut mismatches = 0;
        for seq in 0..sent {
            for &(var, obs) in &self.walk[(seq % self.walk.len() as u64) as usize] {
                match obs {
                    Some(value) => self.evidence.observe(var, value),
                    None => self.evidence.forget(var),
                }
            }
            if let Some((_, reply)) = kept.next_if(|(kept_seq, _)| *kept_seq == seq) {
                self.sampled += 1;
                mismatches += u64::from(!self.matches_scratch(&reply));
            }
        }
        if sent > 0 {
            mismatches += u64::from(!self.matches_scratch(last_reply));
        }
        mismatches
    }

    fn matches_scratch(&mut self, reply: &str) -> bool {
        let value = json::parse(reply)
            .ok()
            .and_then(|doc| doc.get("value").and_then(Value::as_f64));
        let scratch = self.engine.execute(&self.evidence).map(|(v, _)| v);
        matches!((value, scratch), (Some(v), Ok(s)) if v.to_bits() == s.to_bits())
    }
}

/// Runs one load phase and checks its replies.
fn phase(
    stack: &mut Stack,
    shape: &Shape,
    seconds: f64,
    traffic: &Traffic,
    session: &mut Option<SessionOracle<'_>>,
    tracer: &mut Tracer,
) -> Result<LoadResult, BackendError> {
    let mut last_reply = String::new();
    let mut check = |seq: u64, reply: &str| match session {
        Some(oracle) => {
            last_reply.clear();
            last_reply.push_str(reply);
            oracle.admit(seq, reply)
        }
        None => reply == traffic.expected[(seq % traffic.expected.len() as u64) as usize],
    };
    let mut result = loadgen::drive(
        &mut stack.conns,
        shape.pace,
        seconds,
        &traffic.lines,
        &mut check,
        tracer,
    )?;
    if let Some(oracle) = session {
        let mismatches = oracle.verify(result.sent, &last_reply).min(result.ok);
        result.ok -= mismatches;
        result.failed += mismatches;
    }
    Ok(result)
}

fn merge(mut a: LoadResult, b: LoadResult) -> LoadResult {
    // Arrival times of the second phase continue after the first.
    let offset = a.elapsed_s;
    a.sent += b.sent;
    a.ok += b.ok;
    a.failed += b.failed;
    a.latency_ms.extend(b.latency_ms);
    a.done_s.extend(b.done_s.iter().map(|t| t + offset));
    a.late_ms.extend(b.late_ms);
    a.elapsed_s += b.elapsed_s;
    a
}

/// A `tcp-*` workload.
///
/// # Errors
///
/// Returns the error of a server that does not start or a broken socket.
pub fn run(args: &Args, shape: Shape, tracer: &mut Tracer) -> Result<Report, BackendError> {
    let mut report = Report::default();
    let models = models(shape.sessions);
    let traffic = if shape.sessions {
        session_traffic(args.seed)
    } else {
        one_shot_traffic(args.seed, &models)?
    };
    let mut stack = harness::setup(args, &mut report, SETUP_BUDGET, || {
        Stack::build(&shape, &traffic.warm_line)
    })?;
    let mut session = if shape.sessions {
        Some(SessionOracle {
            engine: oracle_engine(&models[0].1)?,
            evidence: Evidence::marginal(SESSION_VARS),
            walk: &traffic.walk,
            kept: Vec::new(),
            sampled: 0,
        })
    } else {
        None
    };

    let load = if args.trace {
        // Untraced and traced quarters alternate, so both see the same
        // stretch of wall time.
        let quarter = args.seconds / 4.0;
        let mut silent = Tracer::new(false);
        let mut arms: [Option<LoadResult>; 2] = [None, None];
        for round in 0..4 {
            let arm = round % 2;
            let tracer = if arm == 0 { &mut silent } else { &mut *tracer };
            let result = phase(&mut stack, &shape, quarter, &traffic, &mut session, tracer)?;
            arms[arm] = Some(match arms[arm].take() {
                Some(earlier) => merge(earlier, result),
                None => result,
            });
        }
        let [Some(plain), Some(traced)] = arms else {
            return Err("a load phase is missing".into());
        };
        let rate = |r: &LoadResult| r.ok as f64 / r.elapsed_s;
        report.set(
            "loadgen.trace_overhead_share",
            1.0 - rate(&traced) / rate(&plain),
        );
        merge(plain, traced)
    } else {
        phase(
            &mut stack,
            &shape,
            args.seconds,
            &traffic,
            &mut session,
            tracer,
        )?
    };
    report.attempted += load.sent;
    report.failed += load.failed;
    if load.failed > 0 {
        report.failures.push(format!(
            "{} of {} replies missing or mismatching",
            load.failed, load.sent
        ));
    }

    let summary = loadgen::summarize(&load, shape.limit_ms);
    report.slice_spread = Some(summary.rate.spread);
    let latency = &summary.latency_sorted_ms;
    let p50 = summary.fast_p50_ms;
    report.note(format!(
        "{} sent, {} ok, {} failed in {:.2} s; {} latency samples: p50 {:.3} ms at the fast-decile slice, {:.3} overall, p90 {:.3}, p99 {:.3}, p99.9 {:.3}, max {:.3} (tail percentiles are printed, not gated: scheduler stalls on a shared box move them severalfold)",
        load.sent,
        load.ok,
        load.failed,
        load.elapsed_s,
        latency.len(),
        p50,
        percentile(latency, 0.5),
        percentile(latency, 0.9),
        percentile(latency, 0.99),
        percentile(latency, 0.999),
        percentile(latency, 1.0),
    ));
    let late = stats::sorted(load.late_ms.clone());
    report.note(format!(
        "replies/s: {:.1} at the fast-decile slice, {:.1} overall; slices: fast-quartile {:.1}, median {:.1}, spread {:.3}; generator lateness p50 {:.3} ms, max {:.3} ms",
        summary.fast_rate,
        summary.replies_per_s,
        summary.rate.fast,
        summary.rate.median,
        summary.rate.spread,
        percentile(&late, 0.5),
        percentile(&late, 1.0),
    ));
    if let Some(oracle) = &session {
        report.note(format!(
            "{} deltas checked against a from-scratch evaluation (plus the final state)",
            oracle.sampled
        ));
    }

    if args.trace {
        report.set("loadgen.sent", load.sent as f64);
        report.set("loadgen.ok", load.ok as f64);
        report.set("loadgen.failed", load.failed as f64);
        report.set("loadgen.samples", latency.len() as f64);
        report.set("loadgen.late_p50_ms", percentile(&late, 0.5));
        report.set("loadgen.late_max_ms", percentile(&late, 1.0));
        report.set("loadgen.latency_p99_ms", percentile(latency, 0.99));
        report.set("loadgen.latency_p999_ms", percentile(latency, 0.999));
        report.set("loadgen.latency_max_ms", percentile(latency, 1.0));
        report.set("loadgen.rate_median", summary.rate.median);
        report.set("loadgen.slice_spread", summary.rate.spread);
        service_metrics(&stack.service, &mut report);
        let staged_ms = if shape.sessions {
            staged_session_replay(&stack.service, &traffic, tracer, &mut report)?
        } else {
            staged_replay(&stack.service, &models, &traffic, tracer, &mut report)?
        };
        report.set("serve.frontend_residual_ms", p50 - staged_ms);
        report.note(format!(
            "request path: staged stages sum to {staged_ms:.3} ms of the {p50:.3} ms TCP median; the rest is socket, framing and poll wake-up"
        ));
        if matches!(shape.pace, Pace::Closed { in_flight, .. } if in_flight > 1) && !shape.sessions
        {
            report.set(
                "serve.inproc_capacity_rps",
                inproc_capacity(&stack.service, &traffic)?,
            );
        }
    } else {
        let rows_per_reply = (0..load.sent)
            .map(|seq| traffic.rows[(seq % traffic.rows.len() as u64) as usize])
            .sum::<usize>() as f64
            / load.sent.max(1) as f64;
        // An open loop completes what its schedule offers; a closed loop's
        // rate is read at the fast-decile slice.
        let rate = match shape.pace {
            Pace::Open { .. } => summary.replies_per_s,
            Pace::Closed { .. } => summary.fast_rate,
        };
        // Every failure, a request never answered too, misses the limit.
        let share = summary.within_limit_share * load.ok as f64 / load.sent.max(1) as f64;
        report.set("requests_per_s", rate);
        report.set("queries_per_s", rate * rows_per_reply);
        report.set("latency_p50_ms", p50);
        report.set("within_limit_share", share);
    }
    drop(session);
    drop(stack);
    // The simulated columns cover the two learned circuits the one-shot
    // workloads serve.  `tcp-session` reports them too: its own 110k-op
    // circuit takes half a minute to compile for the simulated processors.
    let online = if shape.sessions {
        self::models(false)
    } else {
        models
    };
    let circuits: Vec<(&str, &Spn)> = online.iter().map(|(name, spn)| (*name, spn)).collect();
    crate::sim::summarize_circuits(args, &circuits, tracer, &mut report)?;
    Ok(report)
}

/// The server's own counters after the TCP phases.
fn service_metrics(service: &Service<CpuModel>, report: &mut Report) {
    let records = service.metrics();
    let sum = |f: fn(&spn_serve::ModeStats) -> u64| {
        records.iter().map(|r| f(&r.stats)).sum::<u64>() as f64
    };
    let (requests, batches) = (sum(|s| s.requests), sum(|s| s.batches));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    report.set("serve.batches", batches);
    report.set(
        "serve.mean_batch_queries",
        ratio(sum(|s| s.queries), batches),
    );
    report.set(
        "serve.coalesced_batch_share",
        ratio(sum(|s| s.coalesced_batches), batches),
    );
    let latency: Duration = records.iter().map(|r| r.stats.total_latency).sum();
    report.set(
        "serve.service_latency_mean_ms",
        ratio(latency.as_secs_f64() * 1e3, requests),
    );
    let sessions = service.session_stats();
    report.set("serve.errors", sum(|s| s.errors) + sessions.errors as f64);
    let deltas = sessions.deltas as f64;
    report.set(
        "serve.session_full_pass_share",
        ratio(sessions.full_pass_deltas as f64, deltas),
    );
    report.set(
        "serve.session_recomputed_ops_mean",
        ratio(sessions.recomputed_ops as f64, deltas),
    );
    report.set("serve.session_evictions", sessions.evictions as f64);
}

/// Median duration of the spans called `name`, in nanoseconds.
fn median_ns(tracer: &Tracer, name: &str) -> f64 {
    stats::median(&tracer.durations_ns(name))
}

/// Replays the head of the request stream in-process, one span per stage of
/// the path a TCP request takes between its line being framed and its reply
/// line being queued: parse, decode, engine lookup, submit-and-wait, encode.
/// Returns the stages' summed medians in ms.
fn staged_replay(
    service: &Service<CpuModel>,
    models: &[(&'static str, Spn)],
    traffic: &Traffic,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<f64, BackendError> {
    let mut engines = models
        .iter()
        .map(|(name, spn)| Ok((*name, oracle_engine(spn)?)))
        .collect::<Result<Vec<_>, BackendError>>()?;
    for (i, line) in traffic.lines.iter().take(REPLAYS).enumerate() {
        let op = i as u64;
        let whole = tracer.begin("replay.request", op);
        let doc = tracer.span("serve.json_parse", op, || json::parse(line))?;
        let request = tracer.span("serve.decode_request", op, || decode_request(&doc))?;
        tracer.span("serve.registry_engine", op, || {
            service
                .registry()
                .engine(&request.model, ModelVariant::default())
                .map(drop)
        })?;
        let response = tracer.span("serve.submit_wait", op, || {
            service
                .submit(request)
                .and_then(spn_serve::ResponseHandle::wait)
        })?;
        let reply = tracer.span("serve.encode_response", op, || encode_response(&response));
        tracer.end(whole);
        report.check(reply == traffic.expected[i], || {
            format!("staged replay of request {i} differs from the oracle")
        });
        // Beside the path: what the engine and the wire builder alone cost
        // for the same request.
        let request = &traffic.requests[i];
        let engine = &mut engines
            .iter_mut()
            .find(|(name, _)| *name == request.model)
            .ok_or("request for an unknown model")?
            .1;
        tracer.span("platforms.execute_query", op, || {
            engine.execute_query(&request.query).map(drop)
        })?;
        let (rows, givens, spec) = request_rows(&request.query);
        tracer.span("core.wire_build_query", op, || {
            wire::build_query_with_spec(request.query.mode(), &rows, givens.as_deref(), spec)
                .map(drop)
        })?;
    }
    let stages = [
        ("serve.json_parse_ns", "serve.json_parse"),
        ("serve.decode_request_ns", "serve.decode_request"),
        ("serve.registry_engine_ns", "serve.registry_engine"),
        ("serve.submit_wait_ns", "serve.submit_wait"),
        ("serve.encode_response_ns", "serve.encode_response"),
    ];
    let mut total_ns = 0.0;
    for (metric, span) in stages {
        let ns = median_ns(tracer, span);
        report.set(metric, ns);
        total_ns += ns;
    }
    let engine_ns = median_ns(tracer, "platforms.execute_query");
    report.set("platforms.execute_single_ns", engine_ns);
    report.set(
        "core.wire_build_query_ns",
        median_ns(tracer, "core.wire_build_query"),
    );
    report.note(format!(
        "the engine (fill + kernel and all) takes {:.1} % of the staged request path",
        100.0 * engine_ns / total_ns
    ));
    Ok(total_ns / 1e6)
}

/// The evidence rows a query was built from (what `wire::build_query` takes).
fn request_rows(query: &QueryBatch) -> (Vec<Evidence>, Option<Vec<Evidence>>, SampleSpec) {
    let rows = |b: &spn_core::EvidenceBatch| (0..b.len()).map(|q| b.to_evidence(q)).collect();
    match query {
        QueryBatch::Joint(b) | QueryBatch::Marginal(b) | QueryBatch::Map(b) => {
            (rows(b), None, SampleSpec::default())
        }
        QueryBatch::Conditional(c) => (
            rows(c.numerator()),
            Some(rows(c.denominator())),
            SampleSpec::default(),
        ),
        QueryBatch::Sample(s) | QueryBatch::Expectation(s) => (rows(s.rows()), None, s.spec()),
    }
}

/// The session path staged: parse the delta line, then the in-process
/// `session_delta` round trip on a session of the replay's own.
fn staged_session_replay(
    service: &Service<CpuModel>,
    traffic: &Traffic,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<f64, BackendError> {
    let conn = service.allocate_connection();
    service
        .session_open(
            conn,
            SessionOpen {
                id: 0,
                session: SESSION,
                model: "random-96".to_string(),
                variant: ModelVariant::default(),
                evidence: Evidence::marginal(SESSION_VARS),
            },
        )?
        .wait()?;
    for (i, (line, flips)) in traffic
        .lines
        .iter()
        .zip(&traffic.walk)
        .take(REPLAYS)
        .enumerate()
    {
        let op = i as u64;
        let whole = tracer.begin("replay.request", op);
        tracer.span("serve.json_parse", op, || json::parse(line).map(drop))?;
        let response = tracer.span("serve.session_delta", op, || {
            service
                .session_delta(conn, SESSION, op, flips.clone())
                .and_then(spn_serve::SessionHandle::wait)
        })?;
        tracer.end(whole);
        report.check(response.value.is_finite(), || {
            format!("staged delta {i} returned {}", response.value)
        });
    }
    service.drop_connection(conn);
    let parse = median_ns(tracer, "serve.json_parse");
    let delta = median_ns(tracer, "serve.session_delta");
    report.set("serve.json_parse_ns", parse);
    report.set("serve.session_delta_ns", delta);
    Ok((parse + delta) / 1e6)
}

/// Saturated in-process submission (64 requests always queued, no socket):
/// what the batcher and workers sustain when the front-end costs nothing.
fn inproc_capacity(service: &Service<CpuModel>, traffic: &Traffic) -> Result<f64, BackendError> {
    const WINDOW: usize = 64;
    const SECONDS: f64 = 1.0;
    let mut handles = std::collections::VecDeque::with_capacity(WINDOW);
    let mut next = 0usize;
    let mut done = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < SECONDS {
        while handles.len() < WINDOW {
            let request = traffic.requests[next % traffic.requests.len()].clone();
            handles.push_back(service.submit(request)?);
            next += 1;
        }
        if let Some(handle) = handles.pop_front() {
            handle.wait()?;
            done += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    for handle in handles {
        handle.wait()?;
    }
    Ok(done as f64 / elapsed)
}
