//! Session lifecycle and isolation tests for the wire-v2 serving path.
//!
//! Covers the full client-visible session contract: open → deltas → close
//! over TCP with every value checked bit-for-bit against a serial engine
//! oracle, reconnection invalidating server-side state, LRU eviction under
//! a capacity-constrained table, and — the regression this subsystem is
//! structured around — concurrent sessions whose deltas must never be
//! coalesced or cross-contaminated by the micro-batcher.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spn_accel::core::random::{random_spn, RandomSpnConfig};
use spn_accel::core::{Evidence, NumericMode, Precision};
use spn_accel::learn::Benchmark;
use spn_accel::platforms::{CpuModel, Engine, EngineOptions, Parallelism};
use spn_accel::serve::json::{self, Value};
use spn_accel::serve::{BatchPolicy, ModelVariant, Service, ServiceConfig, SessionOpen, TcpServer};

fn apply_flips(evidence: &mut Evidence, flips: &[(usize, Option<bool>)]) {
    for &(var, observation) in flips {
        match observation {
            Some(value) => evidence.observe(var, value),
            None => evidence.forget(var),
        }
    }
}

/// Formats flips as the wire's `[[var, "0"|"1"|"?"], ...]` array.
fn flips_json(flips: &[(usize, Option<bool>)]) -> String {
    let pairs: Vec<String> = flips
        .iter()
        .map(|&(var, observation)| {
            let obs = match observation {
                Some(true) => "1",
                Some(false) => "0",
                None => "?",
            };
            format!("[{var}, \"{obs}\"]")
        })
        .collect();
    format!("[{}]", pairs.join(", "))
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// Sends one line and returns the reply line exactly as received.
    fn ask_raw(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        assert!(!reply.is_empty(), "connection dropped on {line:?}");
        reply
    }

    fn ask(&mut self, line: &str) -> Value {
        json::parse(self.ask_raw(line).trim()).unwrap()
    }
}

fn is_ok(reply: &Value) -> bool {
    matches!(reply.get("ok"), Some(Value::Bool(true)))
}

fn value_of(reply: &Value) -> f64 {
    reply.get("value").and_then(Value::as_f64).unwrap()
}

#[test]
fn tcp_sessions_answer_deltas_bit_for_bit_then_close() {
    let spn = Benchmark::Banknote.spn();
    let num_vars = spn.num_vars();
    let service = Arc::new(Service::new(CpuModel::new(), ServiceConfig::default()));
    service.register("banknote", &spn);
    let mut server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr());

    let mut oracle = Engine::new(CpuModel::new(), &spn, EngineOptions::default()).unwrap();
    let mut evidence = Evidence::marginal(num_vars);
    evidence.observe(0, true);

    let open = client.ask(&format!(
        r#"{{"v": 2, "type": "session_open", "id": 1, "session": 9, "model": "banknote", "row": "1{}"}}"#,
        "?".repeat(num_vars - 1)
    ));
    assert!(is_ok(&open), "{open:?}");
    assert_eq!(open.get("session").and_then(Value::as_f64), Some(9.0));
    assert_eq!(open.get("incremental"), Some(&Value::Bool(true)));
    assert_eq!(open.get("full_pass"), Some(&Value::Bool(true)));
    let (want, _) = oracle.execute(&evidence).unwrap();
    assert_eq!(value_of(&open).to_bits(), want.to_bits());

    // A deterministic little random walk, every step checked bit-for-bit.
    let mut rng = StdRng::seed_from_u64(5);
    for id in 2..14u64 {
        let flips: Vec<(usize, Option<bool>)> = (0..rng.gen_range(1usize..3))
            .map(|_| {
                let var = rng.gen_range(0usize..num_vars);
                (
                    var,
                    [Some(true), Some(false), None][rng.gen_range(0usize..3)],
                )
            })
            .collect();
        let reply = client.ask(&format!(
            r#"{{"v": 2, "type": "delta", "id": {id}, "session": 9, "flips": {}}}"#,
            flips_json(&flips)
        ));
        assert!(is_ok(&reply), "{reply:?}");
        assert_eq!(reply.get("id").and_then(Value::as_f64), Some(id as f64));
        apply_flips(&mut evidence, &flips);
        let (want, _) = oracle.execute(&evidence).unwrap();
        assert_eq!(
            value_of(&reply).to_bits(),
            want.to_bits(),
            "delta {id} ({flips:?}): {reply:?}"
        );
        assert!(reply.get("recomputed_ops").and_then(Value::as_f64).unwrap() >= 0.0);
    }

    // Close answers the current value one last time and frees the id.
    let close = client.ask(r#"{"v": 2, "type": "session_close", "id": 99, "session": 9}"#);
    assert!(is_ok(&close), "{close:?}");
    assert_eq!(close.get("closed"), Some(&Value::Bool(true)));
    let (want, _) = oracle.execute(&evidence).unwrap();
    assert_eq!(value_of(&close).to_bits(), want.to_bits());

    // The closed session is gone; the id is free for a fresh open.
    let stale =
        client.ask(r#"{"v": 2, "type": "delta", "id": 100, "session": 9, "flips": [[0, "?"]]}"#);
    assert!(!is_ok(&stale));
    let reopen = client.ask(&format!(
        r#"{{"v": 2, "type": "session_open", "id": 101, "session": 9, "model": "banknote", "row": "{}"}}"#,
        "?".repeat(num_vars)
    ));
    assert!(is_ok(&reopen), "{reopen:?}");
    assert!((value_of(&reopen) - 1.0).abs() < 1e-9);

    // Session traffic lands in the metrics command's global counters.
    let metrics = client.ask(r#"{"cmd": "metrics"}"#);
    let sessions = metrics.get("sessions").unwrap();
    assert_eq!(sessions.get("opens").and_then(Value::as_f64), Some(2.0));
    assert_eq!(sessions.get("deltas").and_then(Value::as_f64), Some(12.0));
    assert_eq!(sessions.get("closes").and_then(Value::as_f64), Some(1.0));

    server.shutdown();
    service.shutdown();
}

#[test]
fn v2_envelope_serves_one_shot_queries_and_rejects_unknown_versions() {
    let spn = Benchmark::Banknote.spn();
    let num_vars = spn.num_vars();
    let service = Arc::new(Service::new(CpuModel::new(), ServiceConfig::default()));
    service.register("banknote", &spn);
    let mut server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr());
    let marginal = "?".repeat(num_vars);

    // "type": "query" is the v1 one-shot under the v2 envelope.
    let reply = client.ask(&format!(
        r#"{{"v": 2, "type": "query", "id": 1, "model": "banknote", "mode": "marginal", "rows": ["{marginal}"]}}"#
    ));
    assert!(is_ok(&reply), "{reply:?}");
    let values = reply.get("values").and_then(Value::as_arr).unwrap();
    assert!((values[0].as_f64().unwrap() - 1.0).abs() < 1e-9);

    // ...in every mode, numeric domain and precision, and for a malformed
    // request too: a v1 line and the same line under the v2 envelope get
    // byte-identical replies.
    for (body, ok) in [
        (
            r#""id": 10, "model": "banknote", "mode": "joint", "rows": ["1010"]"#,
            true,
        ),
        (
            r#""id": 11, "model": "banknote", "mode": "marginal", "rows": ["1???", "????"]"#,
            true,
        ),
        (
            r#""id": 12, "model": "banknote", "mode": "map", "rows": ["?1??"]"#,
            true,
        ),
        (
            r#""id": 13, "model": "banknote", "mode": "conditional", "targets": ["1???"], "givens": ["???0"]"#,
            true,
        ),
        (
            r#""id": 14, "model": "banknote", "mode": "sample", "rows": ["?1??"], "seed": 7, "n_samples": 3"#,
            true,
        ),
        (
            r#""id": 15, "model": "banknote", "mode": "expectation", "rows": ["1???"], "seed": 11, "n_samples": 64, "method": "likelihood""#,
            true,
        ),
        (
            r#""id": 16, "model": "banknote", "mode": "marginal", "numeric": "log", "rows": ["1???"]"#,
            true,
        ),
        (
            r#""id": 17, "model": "banknote", "mode": "map", "precision": "e8m10", "rows": ["??1?"]"#,
            true,
        ),
        (
            r#""id": 18, "model": "banknote", "mode": "marginal", "rows": [5]"#,
            false,
        ),
    ] {
        let v1 = client.ask_raw(&format!("{{{body}}}"));
        let v2 = client.ask_raw(&format!(r#"{{"v": 2, "type": "query", {body}}}"#));
        assert_eq!(v1, v2, "{body}");
        assert_eq!(is_ok(&json::parse(v1.trim()).unwrap()), ok, "{body}: {v1}");
    }

    // Unknown version numbers and unknown v2 types are protocol errors that
    // keep the connection open.
    for bad in [
        format!(
            r#"{{"v": 3, "id": 2, "model": "banknote", "mode": "marginal", "rows": ["{marginal}"]}}"#
        ),
        r#"{"v": 2, "type": "subscribe", "id": 3}"#.to_string(),
        r#"{"v": 2, "id": 4}"#.to_string(),
        r#"{"v": 2, "type": "delta", "id": 5, "session": 1, "flips": [[0, "2"]]}"#.to_string(),
        r#"{"v": 2, "type": "session_open", "id": 6, "session": 1, "model": "banknote"}"#
            .to_string(),
    ] {
        let reply = client.ask(&bad);
        assert!(!is_ok(&reply), "{bad}: {reply:?}");
    }

    // The connection still serves a plain v1 line afterwards.
    let reply = client.ask(&format!(
        r#"{{"id": 7, "model": "banknote", "mode": "marginal", "rows": ["{marginal}"]}}"#
    ));
    assert!(is_ok(&reply), "{reply:?}");

    server.shutdown();
    service.shutdown();
}

#[test]
fn reconnecting_invalidates_sessions_instead_of_resuming_them() {
    let spn = Benchmark::Banknote.spn();
    let num_vars = spn.num_vars();
    let service = Arc::new(Service::new(CpuModel::new(), ServiceConfig::default()));
    service.register("banknote", &spn);
    let mut server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0").unwrap();

    let mut first = Client::connect(server.local_addr());
    let open = first.ask(&format!(
        r#"{{"v": 2, "type": "session_open", "id": 1, "session": 1, "model": "banknote", "row": "{}"}}"#,
        "?".repeat(num_vars)
    ));
    assert!(is_ok(&open), "{open:?}");
    assert_eq!(service.session_count(), 1);
    drop(first);

    // Same session id, new connection: the key is connection-scoped, so the
    // delta must fail — stale state is never resumed across connections.
    let mut second = Client::connect(server.local_addr());
    let reply =
        second.ask(r#"{"v": 2, "type": "delta", "id": 2, "session": 1, "flips": [[0, "1"]]}"#);
    assert!(!is_ok(&reply), "{reply:?}");
    assert!(
        reply
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("unknown session"),
        "{reply:?}"
    );

    // The dropped connection's session is reaped by the event loop.
    let deadline = Instant::now() + Duration::from_secs(5);
    while service.session_count() > 0 {
        assert!(Instant::now() < deadline, "dropped session never reaped");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(service.session_stats().evictions, 1);

    // Re-opening the id on the new connection works and re-primes.
    let reopen = second.ask(&format!(
        r#"{{"v": 2, "type": "session_open", "id": 3, "session": 1, "model": "banknote", "row": "{}"}}"#,
        "?".repeat(num_vars)
    ));
    assert!(is_ok(&reopen), "{reopen:?}");
    assert!((value_of(&reopen) - 1.0).abs() < 1e-9);

    server.shutdown();
    service.shutdown();
}

#[test]
fn session_table_evicts_least_recently_used_under_capacity_pressure() {
    let spn = Benchmark::Banknote.spn();
    let num_vars = spn.num_vars();
    let service = Arc::new(Service::new(
        CpuModel::new(),
        ServiceConfig {
            session_capacity: 2,
            ..ServiceConfig::default()
        },
    ));
    service.register("banknote", &spn);
    let mut server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr());
    let marginal = "?".repeat(num_vars);

    for session in 1..=2u64 {
        let open = client.ask(&format!(
            r#"{{"v": 2, "type": "session_open", "id": {session}, "session": {session}, "model": "banknote", "row": "{marginal}"}}"#
        ));
        assert!(is_ok(&open), "{open:?}");
    }
    // Touch session 1 so session 2 is the LRU victim of the next open.
    let touch =
        client.ask(r#"{"v": 2, "type": "delta", "id": 10, "session": 1, "flips": [[0, "1"]]}"#);
    assert!(is_ok(&touch), "{touch:?}");

    let open = client.ask(&format!(
        r#"{{"v": 2, "type": "session_open", "id": 3, "session": 3, "model": "banknote", "row": "{marginal}"}}"#
    ));
    assert!(is_ok(&open), "{open:?}");
    assert_eq!(service.session_count(), 2);
    assert_eq!(service.session_stats().evictions, 1);

    // The evicted session is gone; the survivors still answer.
    let reply =
        client.ask(r#"{"v": 2, "type": "delta", "id": 11, "session": 2, "flips": [[0, "1"]]}"#);
    assert!(!is_ok(&reply), "evicted session answered: {reply:?}");
    for session in [1u64, 3] {
        let reply = client.ask(&format!(
            r#"{{"v": 2, "type": "delta", "id": 12, "session": {session}, "flips": [[0, "?"]]}}"#
        ));
        assert!(is_ok(&reply), "survivor {session}: {reply:?}");
    }

    server.shutdown();
    service.shutdown();
}

/// The regression test of the batching bug class this subsystem is designed
/// against: concurrent sessions submit interleaved deltas (plus one-shot
/// queries tempting the micro-batcher with a patient policy), and every
/// session's full value trace must be bit-for-bit the trace of an
/// independent engine replaying only *its own* flips in order.  Any
/// cross-session coalescing or state mixing corrupts at least one trace.
#[test]
fn concurrent_session_deltas_are_never_coalesced_across_sessions() {
    let mut rng = StdRng::seed_from_u64(99);
    let spn = random_spn(&RandomSpnConfig::with_vars(10), &mut rng);
    let num_vars = spn.num_vars();
    let service = Arc::new(Service::new(
        CpuModel::new(),
        ServiceConfig {
            workers: 3,
            policy: BatchPolicy {
                max_batch_queries: 128,
                max_wait: Duration::from_millis(10),
            },
            parallelism: Parallelism::serial(),
            artifact_capacity: 4,
            ..ServiceConfig::default()
        },
    ));
    service.register("model", &spn);

    const SESSIONS: u64 = 4;
    const STEPS: usize = 25;
    let conn = service.allocate_connection();

    let clients: Vec<_> = (0..SESSIONS)
        .map(|session| {
            let service = Arc::clone(&service);
            let spn = spn.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000 + session);
                let mut evidence = Evidence::marginal(num_vars);
                evidence.observe(session as usize, true);
                let open = service
                    .session_open(
                        conn,
                        SessionOpen {
                            id: 0,
                            session,
                            model: "model".to_string(),
                            variant: ModelVariant::new(NumericMode::Linear, Precision::F64),
                            evidence: evidence.clone(),
                        },
                    )
                    .unwrap()
                    .wait()
                    .unwrap();

                // Fire the whole delta sequence before waiting: the session's
                // private FIFO must keep submission order even when three
                // workers race over four session tokens and a query stream.
                let mut trace = vec![open.value];
                let mut flip_log = Vec::new();
                let mut handles = Vec::new();
                for id in 1..=STEPS as u64 {
                    let flips: Vec<(usize, Option<bool>)> = (0..rng.gen_range(1usize..3))
                        .map(|_| {
                            let var = rng.gen_range(0usize..num_vars);
                            (
                                var,
                                [Some(true), Some(false), None][rng.gen_range(0usize..3)],
                            )
                        })
                        .collect();
                    flip_log.push(flips.clone());
                    handles.push(service.session_delta(conn, session, id, flips).unwrap());
                    if id.is_multiple_of(5) {
                        // One-shot queries on the same model keep the
                        // micro-batcher busy coalescing around the sessions.
                        let request = spn_accel::core::wire::QueryRequest::from_rows(
                            id,
                            "model",
                            spn_accel::core::QueryMode::Marginal,
                            &["?".repeat(num_vars).as_str()],
                            None,
                        )
                        .unwrap();
                        let response = service.query(request).unwrap();
                        assert!((response.values[0] - 1.0).abs() < 1e-9);
                    }
                }
                for handle in handles {
                    trace.push(handle.wait().unwrap().value);
                }

                // Independent oracle: replay only this session's flips.
                let mut oracle =
                    Engine::new(CpuModel::new(), &spn, EngineOptions::default()).unwrap();
                let (want, _) = oracle.execute(&evidence).unwrap();
                assert_eq!(trace[0].to_bits(), want.to_bits(), "session {session} open");
                for (step, flips) in flip_log.iter().enumerate() {
                    apply_flips(&mut evidence, flips);
                    let (want, _) = oracle.execute(&evidence).unwrap();
                    assert_eq!(
                        trace[step + 1].to_bits(),
                        want.to_bits(),
                        "session {session} diverged at step {step}: another session's \
                         state leaked in"
                    );
                }
                service
                    .session_close(conn, session, 9999)
                    .unwrap()
                    .wait()
                    .unwrap();
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }

    assert_eq!(service.session_count(), 0);
    let stats = service.session_stats();
    assert_eq!(stats.opens, SESSIONS);
    assert_eq!(stats.deltas, SESSIONS * STEPS as u64);
    assert_eq!(stats.closes, SESSIONS);
    assert_eq!(stats.errors, 0);
    service.shutdown();
}
