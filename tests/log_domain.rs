//! Deep-circuit underflow parity: end-to-end log-domain execution.
//!
//! The acceptance test of the numeric-mode stack.  A deep-chain SPN
//! (≥ 1k nodes, sum weights of 1e-3) evaluates to *exactly* `0.0` in the
//! linear domain on every backend — the silent underflow this subsystem
//! exists to fix — while the same circuit compiled in
//! [`NumericMode::Log`](spn_accel::core::NumericMode::Log) returns a finite
//! log-probability: the op list's bits on CPU, GPU and both processor
//! presets, serial and parallel, across all four query modes (slices of the
//! parity matrix, `tests/parity/mod.rs`, which also hold it to the graph
//! sweep), and within 1e-9 of the interpreted `Evaluator::evaluate_log`
//! oracle through an spn-serve TCP round trip.

mod parity;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use spn_accel::core::eval::Evaluator;
use spn_accel::core::flatten::OpList;
use spn_accel::core::random::deep_chain_spn;
use spn_accel::core::wire::QueryRequest;
use spn_accel::core::{
    ConditionalBatch, Evidence, EvidenceBatch, NumericMode, QueryBatch, QueryMode, Spn, SpnError,
};
use spn_accel::platforms::{CpuModel, Engine, EngineOptions, Parallelism};
use spn_accel::serve::tcp::{decode_response, encode_request};
use spn_accel::serve::{BatchPolicy, Service, ServiceConfig, TcpServer};

const LEVELS: usize = 1200;
const WEIGHT: f64 = 1e-3;

fn chain() -> Spn {
    let spn = deep_chain_spn(LEVELS, WEIGHT);
    assert!(spn.num_nodes() >= 1000, "chain must be a ≥1k-node circuit");
    spn
}

/// The interpreted log-domain oracle for every query of `batch`.
fn oracle_logs(spn: &Spn, batch: &EvidenceBatch) -> Vec<f64> {
    let mut evaluator = Evaluator::new(spn);
    let mut out = Vec::new();
    evaluator.evaluate_log_batch(batch, &mut out).unwrap();
    out.into_iter().map(|v| v.ln()).collect()
}

fn assert_close(got: f64, want: f64, what: &str) {
    assert!(
        got.is_finite(),
        "{what}: expected a finite log-probability, got {got}"
    );
    assert!(
        (got - want).abs() <= 1e-9 * want.abs().max(1.0),
        "{what}: {got} vs oracle {want}"
    );
}

#[test]
fn deep_chain_underflow_parity_on_cpu() {
    parity::run("deep_chain_underflow_parity_on_cpu");
}

#[test]
fn deep_chain_underflow_parity_on_gpu() {
    parity::run("deep_chain_underflow_parity_on_gpu");
}

#[test]
fn deep_chain_underflow_parity_on_ptree() {
    parity::run("deep_chain_underflow_parity_on_ptree");
}

#[test]
fn deep_chain_underflow_parity_on_pvect() {
    parity::run("deep_chain_underflow_parity_on_pvect");
}

#[test]
fn all_query_modes_stay_finite_in_log_mode() {
    parity::run("all_query_modes_stay_finite_in_log_mode");
}

#[test]
fn linear_conditionals_fail_with_the_underflow_carrying_error() {
    let spn = chain();
    let mut engine = Engine::new(
        CpuModel::new(),
        &spn,
        EngineOptions::default().mode(NumericMode::Linear),
    )
    .unwrap();
    let mut cond = ConditionalBatch::new(1);
    let mut target = Evidence::marginal(1);
    target.observe(0, true);
    cond.push(&target, &Evidence::marginal(1)).unwrap();

    // The denominator P(marginal) underflows to 0.0, so the linear engine
    // must fail — with the dedicated variant carrying the raw values, so a
    // caller can tell underflow (this case) from a structural zero.
    let err = engine
        .execute_query(&QueryBatch::Conditional(cond))
        .unwrap_err();
    let spn_err = err
        .downcast_ref::<SpnError>()
        .expect("engine surfaces the core error");
    match spn_err {
        SpnError::UndefinedConditional {
            query,
            numerator,
            denominator,
            mode,
        } => {
            assert_eq!(*query, 0);
            assert_eq!(*numerator, 0.0);
            assert_eq!(*denominator, 0.0);
            assert_eq!(*mode, NumericMode::Linear);
        }
        other => panic!("expected UndefinedConditional, got {other:?}"),
    }
}

#[test]
fn deep_chain_log_mode_round_trips_through_the_tcp_server() {
    let spn = chain();
    let ops = OpList::from_spn(&spn);
    let oracle = {
        let mut batch = EvidenceBatch::new(1);
        batch.push_assignment(&[true]).unwrap();
        oracle_logs(&spn, &batch)[0]
    };

    let service = Arc::new(Service::new(
        CpuModel::new(),
        ServiceConfig {
            workers: 2,
            policy: BatchPolicy {
                max_batch_queries: 64,
                max_wait: Duration::from_millis(1),
            },
            parallelism: Parallelism::serial(),
            artifact_capacity: 4,
            ..ServiceConfig::default()
        },
    ));
    service.register("chain", &spn);
    assert_eq!(ops.mode(), NumericMode::Linear);
    let mut server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0").unwrap();

    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut exchange = |request: &QueryRequest| {
        let line = encode_request(request);
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        decode_response(reply.trim()).unwrap()
    };

    // Linear over the wire: the underflowed 0.0, faithfully.
    let linear =
        exchange(&QueryRequest::from_rows(1, "chain", QueryMode::Joint, &["1"], None).unwrap());
    assert_eq!(linear.numeric, NumericMode::Linear);
    assert_eq!(linear.values, vec![0.0]);

    // Log over the wire: finite, matching the interpreted oracle.
    let log = exchange(
        &QueryRequest::from_rows(2, "chain", QueryMode::Joint, &["1"], None)
            .unwrap()
            .with_numeric(NumericMode::Log),
    );
    assert_eq!(log.numeric, NumericMode::Log);
    assert_close(log.values[0], oracle, "TCP log joint");

    // A log-domain *structural* zero (not an underflow) is exactly -inf,
    // which JSON cannot carry as a number: it must travel as null and decode
    // back to -inf.  "certain" puts probability 0 on X0 = false.
    let certain = {
        let mut b = spn_accel::core::SpnBuilder::new(1);
        let x = b.indicator(spn_accel::core::VarId(0), true);
        let nx = b.indicator(spn_accel::core::VarId(0), false);
        let root = b.sum(vec![(x, 1.0), (nx, 0.0)]).unwrap();
        b.finish(root).unwrap()
    };
    service.register("certain", &certain);
    let zero = exchange(
        &QueryRequest::from_rows(3, "certain", QueryMode::Joint, &["0"], None)
            .unwrap()
            .with_numeric(NumericMode::Log),
    );
    assert_eq!(zero.numeric, NumericMode::Log);
    assert_eq!(zero.values, vec![f64::NEG_INFINITY]);
    // Conditional in log mode over the wire (subtraction, no underflow).
    let cond = exchange(
        &QueryRequest::from_rows(4, "chain", QueryMode::Conditional, &["1"], Some(&["?"]))
            .unwrap()
            .with_numeric(NumericMode::Log),
    );
    assert!((cond.values[0] - 0.5f64.ln()).abs() < 1e-9);

    server.shutdown();
    service.shutdown();
}

#[test]
fn negative_infinity_round_trips_as_null_on_the_wire() {
    use spn_accel::core::wire::QueryResponse;
    use spn_accel::serve::tcp::encode_response;

    let response = QueryResponse {
        id: 7,
        model: "m".to_string(),
        mode: QueryMode::Joint,
        numeric: NumericMode::Log,
        precision: spn_accel::core::Precision::F64,
        values: vec![f64::NEG_INFINITY, -1.5],
        assignments: None,
        std_err: None,
        samples: 0,
    };
    let line = encode_response(&response);
    assert!(
        line.contains("null"),
        "-inf must encode as null, got {line}"
    );
    let decoded = decode_response(&line).unwrap();
    assert_eq!(decoded.values[0], f64::NEG_INFINITY);
    assert_eq!(decoded.values[1].to_bits(), (-1.5f64).to_bits());
    assert_eq!(decoded.numeric, NumericMode::Log);

    // In a linear-domain response a null value stays a protocol error: only
    // the log domain defines it.
    let linear = QueryResponse {
        numeric: NumericMode::Linear,
        ..response
    };
    assert!(decode_response(&encode_response(&linear)).is_err());
}
