//! End-to-end serving test: the TCP front-end under concurrent mixed-mode
//! load against multiple models, checked bit-for-bit against the serial
//! engine.
//!
//! This is the acceptance test of the serving stack: an ephemeral-port
//! server, ≥ 100 concurrent requests mixing all six query modes (the four
//! exact ones plus `sample` / `expectation`) across two registered models,
//! every response byte-decoded back to `f64`s that must equal
//! `Engine::execute_query`'s answers bit for bit — approximate answers
//! included, since sampling is a pure function of `(model, row, spec)` —
//! and the micro-batch counters must show actual coalescing.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use spn_accel::core::random::{random_spn, RandomSpnConfig};
use spn_accel::core::wire::QueryRequest;
use spn_accel::core::{NumericMode, Precision, QueryMode, SampleMethod, SampleSpec, Spn};
use spn_accel::learn::Benchmark;
use spn_accel::platforms::{CpuModel, Engine, EngineOptions, Parallelism};
use spn_accel::serve::tcp::{decode_response, encode_request};
use spn_accel::serve::{BatchPolicy, Service, ServiceConfig, TcpServer};

/// The request mix: cycles through models, modes and row patterns.
fn build_request(id: u64, model: &str, num_vars: usize) -> QueryRequest {
    let mode = QueryMode::ALL[(id as usize) % QueryMode::ALL.len()];
    let all_true = "1".repeat(num_vars);
    let all_false = "0".repeat(num_vars);
    let partial = {
        let mut row: Vec<char> = vec!['?'; num_vars];
        row[(id as usize) % num_vars] = if id.is_multiple_of(2) { '1' } else { '0' };
        row.into_iter().collect::<String>()
    };
    let marginal = "?".repeat(num_vars);
    match mode {
        QueryMode::Joint => {
            let rows: Vec<&str> = match id % 3 {
                0 => vec![&all_true],
                1 => vec![&all_false],
                _ => vec![&all_true, &all_false],
            };
            QueryRequest::from_rows(id, model, mode, &rows, None).unwrap()
        }
        QueryMode::Marginal => {
            QueryRequest::from_rows(id, model, mode, &[&partial, &marginal], None).unwrap()
        }
        QueryMode::Map => QueryRequest::from_rows(id, model, mode, &[&partial], None).unwrap(),
        QueryMode::Conditional => {
            QueryRequest::from_rows(id, model, mode, &[&partial], Some(&[&marginal])).unwrap()
        }
        // Approximate modes: a couple of distinct specs so the batcher both
        // coalesces same-spec requests and keeps different-spec ones apart.
        QueryMode::Sample | QueryMode::Expectation => QueryRequest::from_rows_with_spec(
            id,
            model,
            mode,
            &[&partial],
            None,
            SampleSpec {
                seed: id % 2,
                n_samples: 8,
                method: if mode == QueryMode::Sample {
                    SampleMethod::Ancestral
                } else {
                    SampleMethod::LikelihoodWeighted
                },
            },
        )
        .unwrap(),
    }
}

#[test]
fn tcp_server_serves_concurrent_mixed_mode_load_bit_for_bit() {
    let models: Vec<(&str, Spn)> = vec![
        ("banknote", Benchmark::Banknote.spn()),
        ("cpu-perf", Benchmark::Cpu.spn()),
    ];

    // A single batcher worker with a patient policy maximises observable
    // coalescing; correctness must hold regardless.
    let service = Arc::new(Service::new(
        CpuModel::new(),
        ServiceConfig {
            workers: 1,
            policy: BatchPolicy {
                max_batch_queries: 128,
                max_wait: Duration::from_millis(20),
            },
            parallelism: Parallelism::workers(2),
            artifact_capacity: 8,
            ..ServiceConfig::default()
        },
    ));
    for (name, spn) in &models {
        service.register(*name, spn);
    }
    let mut server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    const CLIENTS: u64 = 120;
    let clients: Vec<_> = (0..CLIENTS)
        .map(|id| {
            let (model, num_vars) = {
                let (name, spn) = &models[(id as usize) % models.len()];
                (name.to_string(), spn.num_vars())
            };
            std::thread::spawn(move || {
                let request = build_request(id, &model, num_vars);
                let mut stream = TcpStream::connect(addr).unwrap();
                let line = encode_request(&request);
                stream.write_all(line.as_bytes()).unwrap();
                stream.write_all(b"\n").unwrap();
                stream.flush().unwrap();
                let mut reader = BufReader::new(stream);
                let mut reply = String::new();
                reader.read_line(&mut reply).unwrap();
                let response = decode_response(reply.trim()).unwrap();
                (request, response)
            })
        })
        .collect();

    // Serial oracles: one engine per model, the exact path a non-serving
    // caller would use.
    let mut oracles: Vec<(String, Engine<CpuModel>)> = models
        .iter()
        .map(|(name, spn)| {
            (
                name.to_string(),
                Engine::new(CpuModel::new(), spn, EngineOptions::default()).unwrap(),
            )
        })
        .collect();

    for client in clients {
        let (request, response) = client.join().unwrap();
        assert_eq!(response.id, request.id);
        assert_eq!(response.model, request.model);
        assert_eq!(response.mode, request.query.mode());

        let engine = &mut oracles
            .iter_mut()
            .find(|(name, _)| *name == request.model)
            .unwrap()
            .1;
        let expected = engine.execute_query(&request.query).unwrap();
        assert_eq!(response.values.len(), expected.values.len());
        for (q, (got, want)) in response.values.iter().zip(&expected.values).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "request {} query {q}: {got} vs {want} (mode {})",
                request.id,
                request.query.mode()
            );
        }
        match request.query.mode() {
            QueryMode::Map | QueryMode::Sample => {
                assert_eq!(response.assignments, expected.assignments);
            }
            _ => assert!(response.assignments.is_none()),
        }
        // Approximate answers carry their estimator spread, bit for bit.
        assert_eq!(
            response.std_err.is_some(),
            request.query.mode().is_approximate()
        );
        if let (Some(got), Some(want)) = (&response.std_err, &expected.std_err) {
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(want) {
                assert_eq!(a.to_bits(), b.to_bits(), "request {} std_err", request.id);
            }
            assert_eq!(response.samples, expected.samples, "request {}", request.id);
        }
    }

    // The micro-batcher must have observably coalesced concurrent requests.
    let metrics = service.metrics();
    let total_requests: u64 = metrics.iter().map(|r| r.stats.requests).sum();
    assert_eq!(total_requests, CLIENTS);
    let max_batch_requests = metrics
        .iter()
        .map(|r| r.stats.max_batch_requests)
        .max()
        .unwrap_or(0);
    assert!(
        max_batch_requests > 1,
        "no coalescing observed: {metrics:?}"
    );
    let errors: u64 = metrics.iter().map(|r| r.stats.errors).sum();
    assert_eq!(errors, 0);

    // Both models and all six modes were exercised.
    for (name, _) in &models {
        assert!(metrics.iter().any(|r| r.model == *name));
    }
    for mode in QueryMode::ALL {
        assert!(metrics.iter().any(|r| r.mode == mode), "missing {mode}");
    }

    server.shutdown();
    service.shutdown();
}

#[test]
fn a_precision_sweep_across_a_hot_swap_matches_the_oracle_bit_for_bit() {
    // One connection walks 40 precisions of one model — more variants than
    // the registry caches, so plans are evicted and recompiled under the
    // workers' feet — and the model is replaced halfway.  Every reply must
    // be the answer of a fresh engine over the registration current when
    // the request was sent: the workers hold no model state of their own.
    let before = Benchmark::Banknote.spn();
    let after = random_spn(
        &RandomSpnConfig::with_vars(before.num_vars()),
        &mut StdRng::seed_from_u64(23),
    );
    let service = Arc::new(Service::new(
        CpuModel::new(),
        ServiceConfig {
            artifact_capacity: 4,
            ..ServiceConfig::default()
        },
    ));
    service.register("m", &before);
    let mut server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let mut current = &before;
    // 1..=40, then 1 and 20 again: variants first compiled before the swap.
    for (id, mant_bits) in (1..=40u8).chain([1, 20]).enumerate() {
        if id == 20 {
            service.register("m", &after);
            current = &after;
        }
        let precision = Precision::custom(8, mant_bits).unwrap();
        let numeric = NumericMode::ALL[id % 2];
        let request = build_request(id as u64, "m", current.num_vars())
            .with_precision(precision)
            .with_numeric(numeric);
        writer
            .write_all(format!("{}\n", encode_request(&request)).as_bytes())
            .unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let response = decode_response(reply.trim()).unwrap();

        let options = EngineOptions::default().mode(numeric).precision(precision);
        let expected = Engine::new(CpuModel::new(), current, options)
            .unwrap()
            .execute_query(&request.query)
            .unwrap();
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&response.values),
            bits(&expected.values),
            "request {id} ({numeric}, {precision}, {})",
            request.query.mode()
        );
        if matches!(request.query.mode(), QueryMode::Map | QueryMode::Sample) {
            assert_eq!(response.assignments, expected.assignments, "request {id}");
        }
        assert!(service.registry().cached_artifacts() <= 4);
    }

    server.shutdown();
    service.shutdown();
}

#[test]
fn tcp_protocol_reports_errors_and_commands() {
    let service = Arc::new(Service::new(CpuModel::new(), ServiceConfig::default()));
    service.register("banknote", &Benchmark::Banknote.spn());
    let mut server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0").unwrap();

    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut ask = |line: &str| {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    };

    // Malformed JSON, unknown model, unknown mode, then a models listing.
    assert!(ask("{not json").contains("\"ok\":false"));
    assert!(
        ask(r#"{"id": 4, "model": "ghost", "mode": "marginal", "rows": ["????"]}"#)
            .contains("unknown model")
    );
    assert!(
        ask(r#"{"id": 5, "model": "banknote", "mode": "mpe", "rows": ["????"]}"#)
            .contains("\"ok\":false")
    );
    let models = ask(r#"{"cmd": "models"}"#);
    assert!(models.contains("banknote"), "{models}");

    // A good request still works on the same connection, and shows up in the
    // metrics command.
    let num_vars = Benchmark::Banknote.spn().num_vars();
    let good = ask(&format!(
        r#"{{"id": 6, "model": "banknote", "mode": "marginal", "rows": ["{}"]}}"#,
        "?".repeat(num_vars)
    ));
    let response = decode_response(good.trim()).unwrap();
    assert_eq!(response.id, 6);
    assert!((response.values[0] - 1.0).abs() < 1e-9);
    let metrics = ask(r#"{"cmd": "metrics"}"#);
    assert!(metrics.contains("\"marginal\""), "{metrics}");

    server.shutdown();
    service.shutdown();
}

/// Malformed `"numeric"` / `"precision"` fields and truncated request lines
/// must produce a structured `ok: false` response — never a dropped
/// connection — and the connection must keep serving afterwards.
#[test]
fn tcp_rejects_malformed_numeric_and_precision_fields() {
    let service = Arc::new(Service::new(CpuModel::new(), ServiceConfig::default()));
    service.register("banknote", &Benchmark::Banknote.spn());
    let mut server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let num_vars = Benchmark::Banknote.spn().num_vars();
    let rows = "?".repeat(num_vars);

    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut ask = |line: &str| {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(!reply.is_empty(), "connection dropped on {line:?}");
        reply
    };
    let request = |extra: &str| {
        format!(
            r#"{{"id": 9, "model": "banknote", "mode": "marginal", "rows": ["{rows}"]{extra}}}"#
        )
    };

    // Unknown precision names (including a numeric-mode name in the
    // precision field and out-of-range custom formats).
    for bad in ["f16", "log", "e99m1", "e8m0", ""] {
        let reply = ask(&request(&format!(r#", "precision": "{bad}""#)));
        assert!(reply.contains("\"ok\":false"), "{bad:?}: {reply}");
        assert!(
            reply.contains("unknown precision")
                || reply.contains("mantissa bits")
                || reply.contains("exponent bits"),
            "{bad:?}: {reply}"
        );
        let err = decode_response(reply.trim()).unwrap_err();
        assert!(matches!(err, spn_accel::serve::ServeError::Remote(_)));
    }
    // A precision name in the numeric field is an unknown *numeric mode*.
    let reply = ask(&request(r#", "numeric": "e8m10""#));
    assert!(reply.contains("unknown numeric mode"), "{reply}");

    // Type confusion: both fields must be strings, not numbers / arrays /
    // booleans — a structured protocol error either way.
    for field in ["numeric", "precision"] {
        for value in ["64", "[\"f64\"]", "true", "null"] {
            let reply = ask(&request(&format!(r#", "{field}": {value}"#)));
            assert!(reply.contains("\"ok\":false"), "{field}={value}: {reply}");
            assert!(
                reply.contains(&format!("field \\\"{field}\\\" must be a string")),
                "{field}={value}: {reply}"
            );
        }
    }

    // Truncated lines: a request cut mid-object (and one cut mid-string)
    // parse-fails into a structured error, and the connection keeps going.
    let full = request(r#", "precision": "e8m10""#);
    for cut in [full.len() - 5, full.len() / 2, 9] {
        let reply = ask(&full[..cut]);
        assert!(reply.contains("\"ok\":false"), "cut at {cut}: {reply}");
        assert!(reply.contains("protocol error"), "cut at {cut}: {reply}");
    }

    // The same connection still answers a good reduced-precision request,
    // echoing the precision.
    let good = ask(&request(r#", "precision": "e8m10""#));
    let response = decode_response(good.trim()).unwrap();
    assert_eq!(response.id, 9);
    assert_eq!(response.precision, spn_accel::core::Precision::E8M10);
    assert_eq!(response.numeric, spn_accel::core::NumericMode::Linear);
    // A normalised SPN's quantized partition function re-rounds to 1.0.
    assert!((response.values[0] - 1.0).abs() < 1e-2);

    server.shutdown();
    service.shutdown();
}
