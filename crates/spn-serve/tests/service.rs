//! In-process service tests: correctness across modes, observable
//! coalescing, per-request error isolation, and model hot-swap.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use spn_core::query::{reference_query, reference_query_with};
use spn_core::wire::QueryRequest;
use spn_core::{
    ConditionalBatch, Evidence, EvidenceBatch, NumericMode, Precision, QueryBatch, QueryMode, Spn,
    SpnBuilder, VarId,
};
use spn_platforms::{
    Backend, BackendError, BatchResult, CpuCompiled, CpuModel, ExecBuffers, Parallelism,
};
use spn_serve::{BatchPolicy, ModelVariant, Service, ServiceConfig};

/// P(X0, X1) = P(X0) P(X1) with P(X0=1) = 0.2, P(X1=1) = 0.9.
fn independent_pair() -> Spn {
    let mut b = SpnBuilder::new(2);
    let x0 = b.indicator(VarId(0), true);
    let nx0 = b.indicator(VarId(0), false);
    let x1 = b.indicator(VarId(1), true);
    let nx1 = b.indicator(VarId(1), false);
    let s0 = b.sum(vec![(x0, 0.2), (nx0, 0.8)]).unwrap();
    let s1 = b.sum(vec![(x1, 0.9), (nx1, 0.1)]).unwrap();
    let root = b.product(vec![s0, s1]).unwrap();
    b.finish(root).unwrap()
}

/// A single-variable SPN where X0 = false has probability zero.
fn zero_false_spn() -> Spn {
    let mut b = SpnBuilder::new(1);
    let x = b.indicator(VarId(0), true);
    let nx = b.indicator(VarId(0), false);
    let root = b.sum(vec![(x, 1.0), (nx, 0.0)]).unwrap();
    b.finish(root).unwrap()
}

#[test]
fn all_modes_match_the_reference_oracle() {
    let spn = independent_pair();
    let service = Service::new(CpuModel::new(), ServiceConfig::default());
    service.register("pair", &spn);

    for (mode, rows, givens) in [
        (QueryMode::Joint, vec!["10", "01"], None),
        (QueryMode::Marginal, vec!["1?", "??"], None),
        (QueryMode::Map, vec!["?1", "??"], None),
        (
            QueryMode::Conditional,
            vec!["1?", "?1"],
            Some(vec!["?1", "1?"]),
        ),
    ] {
        let request = QueryRequest::from_rows(1, "pair", mode, &rows, givens.as_deref()).unwrap();
        let expected = reference_query(&spn, &request.query).unwrap();
        let response = service.query(request).unwrap();
        assert_eq!(response.mode, mode);
        for (got, want) in response.values.iter().zip(&expected.values) {
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1e-12),
                "{mode}: {got} vs {want}"
            );
        }
        assert_eq!(
            response.assignments.is_some(),
            mode == QueryMode::Map,
            "{mode}: assignments presence"
        );
        if let Some(assignments) = &response.assignments {
            assert_eq!(assignments, expected.assignments.as_ref().unwrap());
        }
    }
    service.shutdown();
}

#[test]
fn concurrent_load_coalesces_into_batches() {
    let spn = independent_pair();
    // One worker with a generous wait guarantees concurrent submissions meet
    // in the queue.
    let service = Arc::new(Service::new(
        CpuModel::new(),
        ServiceConfig {
            workers: 1,
            policy: BatchPolicy {
                max_batch_queries: 64,
                max_wait: Duration::from_millis(100),
            },
            parallelism: Parallelism::serial(),
            artifact_capacity: 4,
            ..ServiceConfig::default()
        },
    ));
    service.register("pair", &spn);

    let handles: Vec<_> = (0..32)
        .map(|i| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let request = QueryRequest::from_rows(
                    i,
                    "pair",
                    QueryMode::Marginal,
                    &[if i % 2 == 0 { "1?" } else { "?0" }],
                    None,
                )
                .unwrap();
                let response = service.query(request).unwrap();
                assert_eq!(response.id, i);
                let expected = if i % 2 == 0 { 0.2 } else { 0.1 };
                assert!((response.values[0] - expected).abs() < 1e-9);
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    let metrics = service.metrics();
    let marginal = metrics
        .iter()
        .find(|r| r.model == "pair" && r.mode == QueryMode::Marginal)
        .expect("marginal row");
    assert_eq!(marginal.stats.requests, 32);
    assert_eq!(marginal.stats.queries, 32);
    assert!(
        marginal.stats.max_batch_requests > 1,
        "expected coalescing, got {:?}",
        marginal.stats
    );
    assert!(marginal.stats.batches < 32);
    service.shutdown();
}

#[test]
fn batch_errors_stay_with_the_request_that_caused_them() {
    let spn = zero_false_spn();
    let service = Arc::new(Service::new(
        CpuModel::new(),
        ServiceConfig {
            workers: 1,
            policy: BatchPolicy {
                max_batch_queries: 64,
                max_wait: Duration::from_millis(100),
            },
            parallelism: Parallelism::serial(),
            artifact_capacity: 4,
            ..ServiceConfig::default()
        },
    ));
    service.register("zero", &spn);

    // Conditioning on X0 = false (probability zero) must fail; conditioning
    // on X0 = true must keep succeeding even when coalesced with the bad one.
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let given = if i == 3 { "0" } else { "1" };
                let request = QueryRequest::from_rows(
                    i,
                    "zero",
                    QueryMode::Conditional,
                    &["1"],
                    Some(&[given]),
                )
                .unwrap();
                (i, service.query(request))
            })
        })
        .collect();
    for handle in handles {
        let (i, result) = handle.join().unwrap();
        if i == 3 {
            assert!(result.is_err(), "query {i} should fail");
        } else {
            let response = result.unwrap_or_else(|e| panic!("query {i} failed: {e}"));
            assert!((response.values[0] - 1.0).abs() < 1e-9);
        }
    }
    service.shutdown();
}

#[test]
fn invalid_requests_fail_fast() {
    let service = Service::new(CpuModel::new(), ServiceConfig::default());
    service.register("pair", &independent_pair());

    // Unknown model.
    let request =
        QueryRequest::from_rows(1, "missing", QueryMode::Marginal, &["??"], None).unwrap();
    assert!(service.submit(request).is_err());
    // Arity mismatch.
    let request = QueryRequest::from_rows(2, "pair", QueryMode::Marginal, &["???"], None).unwrap();
    assert!(service.submit(request).is_err());
    // Empty batch.
    let request = QueryRequest {
        id: 3,
        model: "pair".to_string(),
        query: QueryBatch::Marginal(EvidenceBatch::new(2)),
        numeric: NumericMode::Linear,
        precision: spn_core::Precision::F64,
    };
    assert!(service.submit(request).is_err());
    service.shutdown();
}

#[test]
fn reregistering_a_model_takes_effect() {
    let service = Service::new(CpuModel::new(), ServiceConfig::default());
    service.register("m", &independent_pair());
    let request = |id| QueryRequest::from_rows(id, "m", QueryMode::Marginal, &["1?"], None);
    let before = service.query(request(1).unwrap()).unwrap();
    assert!((before.values[0] - 0.2).abs() < 1e-9);

    // Swap in a model with P(X0=1) = 0.5 under the same name.
    let mut b = SpnBuilder::new(2);
    let x0 = b.indicator(VarId(0), true);
    let nx0 = b.indicator(VarId(0), false);
    let x1 = b.indicator(VarId(1), true);
    let nx1 = b.indicator(VarId(1), false);
    let s0 = b.sum(vec![(x0, 0.5), (nx0, 0.5)]).unwrap();
    let s1 = b.sum(vec![(x1, 0.9), (nx1, 0.1)]).unwrap();
    let root = b.product(vec![s0, s1]).unwrap();
    service.register("m", &b.finish(root).unwrap());

    let after = service.query(request(2).unwrap()).unwrap();
    assert!((after.values[0] - 0.5).abs() < 1e-9);
    service.shutdown();
}

#[test]
fn log_mode_requests_are_served_alongside_linear_ones() {
    let spn = independent_pair();
    let service = Service::new(CpuModel::new(), ServiceConfig::default());
    service.register("pair", &spn);

    for (mode, rows, givens) in [
        (QueryMode::Joint, vec!["10", "01"], None),
        (QueryMode::Marginal, vec!["1?", "??"], None),
        (QueryMode::Map, vec!["?1"], None),
        (QueryMode::Conditional, vec!["1?"], Some(vec!["?1"])),
    ] {
        let linear = service
            .query(QueryRequest::from_rows(1, "pair", mode, &rows, givens.as_deref()).unwrap())
            .unwrap();
        let log_request = QueryRequest::from_rows(2, "pair", mode, &rows, givens.as_deref())
            .unwrap()
            .with_numeric(NumericMode::Log);
        let expected = reference_query_with(&spn, &log_request.query, NumericMode::Log).unwrap();
        let log = service.query(log_request).unwrap();
        assert_eq!(log.numeric, NumericMode::Log);
        assert_eq!(linear.numeric, NumericMode::Linear);
        for ((got, want), lin) in log.values.iter().zip(&expected.values).zip(&linear.values) {
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1e-12),
                "{mode}: {got} vs oracle {want}"
            );
            assert!(
                (got.exp() - lin).abs() <= 1e-9,
                "{mode}: exp({got}) vs linear {lin}"
            );
        }
        assert_eq!(log.assignments, linear.assignments);
    }
    // Both artifacts are cached side by side.
    assert_eq!(service.registry().cached_artifacts(), 2);
    service.shutdown();
}

#[test]
fn hot_swap_while_batches_are_in_flight_is_atomic() {
    // Workers hold Arc'd artifacts: requests already dispatched finish on the
    // artifact they started with, and every response reflects exactly one
    // model version (v1's 0.2 or v2's 0.5) — never a torn mix.  The next
    // batch after the swap settles must use the new artifact.
    let service = Arc::new(Service::new(
        CpuModel::new(),
        ServiceConfig {
            workers: 2,
            policy: BatchPolicy {
                max_batch_queries: 8,
                max_wait: Duration::from_millis(2),
            },
            parallelism: Parallelism::serial(),
            artifact_capacity: 4,
            ..ServiceConfig::default()
        },
    ));
    service.register("m", &independent_pair()); // P(X0=1) = 0.2

    let v2 = {
        let mut b = SpnBuilder::new(2);
        let x0 = b.indicator(VarId(0), true);
        let nx0 = b.indicator(VarId(0), false);
        let x1 = b.indicator(VarId(1), true);
        let nx1 = b.indicator(VarId(1), false);
        let s0 = b.sum(vec![(x0, 0.5), (nx0, 0.5)]).unwrap();
        let s1 = b.sum(vec![(x1, 0.9), (nx1, 0.1)]).unwrap();
        let root = b.product(vec![s0, s1]).unwrap();
        b.finish(root).unwrap() // P(X0=1) = 0.5
    };

    // Clients hammer the service with two-row requests while the swap lands;
    // the swap itself is gated on the first completed response (not a sleep),
    // so at least one request is guaranteed to have run against v1.
    let (first_response_tx, first_response_rx) = std::sync::mpsc::channel::<()>();
    let clients: Vec<_> = (0..6)
        .map(|c| {
            let service = Arc::clone(&service);
            let first_response_tx = first_response_tx.clone();
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                for i in 0..40u64 {
                    let request = QueryRequest::from_rows(
                        c * 1000 + i,
                        "m",
                        QueryMode::Marginal,
                        &["1?", "1?"],
                        None,
                    )
                    .unwrap();
                    match service.query(request) {
                        Ok(response) => {
                            assert_eq!(response.values.len(), 2);
                            // Both rows of one request ran on one artifact.
                            assert_eq!(
                                response.values[0].to_bits(),
                                response.values[1].to_bits(),
                                "torn batch: {:?}",
                                response.values
                            );
                            let v = response.values[0];
                            assert!(
                                (v - 0.2).abs() < 1e-9 || (v - 0.5).abs() < 1e-9,
                                "value from neither version: {v}"
                            );
                            let _ = first_response_tx.send(());
                            seen.push(v);
                        }
                        Err(err) => panic!("query failed during hot swap: {err}"),
                    }
                }
                seen
            })
        })
        .collect();

    first_response_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("some client answered before the swap");
    service.register("m", &v2);

    let mut all: Vec<f64> = Vec::new();
    for client in clients {
        all.extend(client.join().unwrap());
    }
    // The old artifact answered the early in-flight requests...
    assert!(all.iter().any(|v| (v - 0.2).abs() < 1e-9));

    // ...and once the swap has settled, the next batch uses the new one.
    let settled = service
        .query(QueryRequest::from_rows(9999, "m", QueryMode::Marginal, &["1?"], None).unwrap())
        .unwrap();
    assert!((settled.values[0] - 0.5).abs() < 1e-9);
    service.shutdown();
}

#[test]
fn conditional_requests_can_merge_after_map_requests_ran() {
    // Exercises the lazily compiled max-product artifact being shared through
    // the registry: MAP first, then other modes, on two workers.
    let spn = independent_pair();
    let service = Service::new(
        CpuModel::new(),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );
    service.register("pair", &spn);
    for i in 0..4 {
        let request = QueryRequest::from_rows(i, "pair", QueryMode::Map, &["??"], None).unwrap();
        let response = service.query(request).unwrap();
        assert_eq!(response.assignments.as_ref().unwrap()[0], vec![false, true]);
    }
    let mut cond = ConditionalBatch::new(2);
    let mut target = Evidence::marginal(2);
    target.observe(0, true);
    cond.push(&target, &Evidence::marginal(2)).unwrap();
    let response = service
        .query(QueryRequest {
            id: 9,
            model: "pair".to_string(),
            query: QueryBatch::Conditional(cond),
            numeric: NumericMode::Linear,
            precision: spn_core::Precision::F64,
        })
        .unwrap();
    assert!((response.values[0] - 0.2).abs() < 1e-9);
    service.shutdown();
}

/// A backend with no code generator: every compile fails.
#[derive(Clone)]
struct NoCompile;

impl Backend for NoCompile {
    type Compiled = ();
    type Scratch = ();

    fn name(&self) -> String {
        "no-compile".to_string()
    }

    fn compile(&self, _ops: &spn_core::flatten::OpList) -> Result<(), BackendError> {
        Err("no code generator".into())
    }

    fn execute_batch(
        &self,
        _compiled: &(),
        _batch: &EvidenceBatch,
        _buffers: &mut ExecBuffers,
        _scratch: &mut (),
    ) -> Result<BatchResult, BackendError> {
        unreachable!("nothing ever compiles")
    }
}

#[test]
fn a_compile_error_reaches_every_request_of_the_group_with_one_prefix() {
    // One patient worker, so the two same-key requests are answered from
    // one fan-out of the same engine-build failure.
    let service = Service::new(
        NoCompile,
        ServiceConfig {
            workers: 1,
            policy: BatchPolicy {
                max_batch_queries: 64,
                max_wait: Duration::from_millis(100),
            },
            ..ServiceConfig::default()
        },
    );
    service.register("pair", &independent_pair());
    let handles: Vec<_> = (0..2)
        .map(|id| {
            let request = QueryRequest::from_rows(id, "pair", QueryMode::Marginal, &["1?"], None);
            service.submit(request.unwrap()).unwrap()
        })
        .collect();
    for handle in handles {
        let message = handle.wait().unwrap_err().message();
        assert_eq!(message, "backend error: no code generator");
    }
    service.shutdown();
}

/// The CPU model, counting `compile` calls and making executions meet in
/// pairs: a call to `execute_batch` returns only once a second thread is
/// inside it too, so two requests answered this way were answered by two
/// different workers.
#[derive(Clone)]
struct CountingPairs {
    cpu: CpuModel,
    compiles: Arc<AtomicUsize>,
    pair: Arc<Barrier>,
}

impl Backend for CountingPairs {
    type Compiled = CpuCompiled;
    type Scratch = ();

    fn name(&self) -> String {
        self.cpu.name()
    }

    fn compile(&self, ops: &spn_core::flatten::OpList) -> Result<CpuCompiled, BackendError> {
        self.compiles.fetch_add(1, Ordering::SeqCst);
        self.cpu.compile(ops)
    }

    fn execute_batch(
        &self,
        compiled: &CpuCompiled,
        batch: &EvidenceBatch,
        buffers: &mut ExecBuffers,
        scratch: &mut (),
    ) -> Result<BatchResult, BackendError> {
        self.pair.wait();
        self.cpu.execute_batch(compiled, batch, buffers, scratch)
    }
}

#[test]
fn two_workers_compile_a_models_max_product_program_once() {
    let compiles = Arc::new(AtomicUsize::new(0));
    let backend = CountingPairs {
        cpu: CpuModel::new(),
        compiles: Arc::clone(&compiles),
        pair: Arc::new(Barrier::new(2)),
    };
    // No coalescing: every request is its own batch.
    let service = Service::new(
        backend,
        ServiceConfig {
            workers: 2,
            policy: BatchPolicy {
                max_batch_queries: 1,
                max_wait: Duration::ZERO,
            },
            ..ServiceConfig::default()
        },
    );
    service.register("pair", &independent_pair());
    // Compile the sum-product program here, so the workers cannot race to it.
    service
        .registry()
        .plan("pair", ModelVariant::default())
        .unwrap();
    assert_eq!(compiles.load(Ordering::SeqCst), 1);

    let answer_in_pairs = |mode: QueryMode| {
        let handles: Vec<_> = (0..2)
            .map(|id| {
                let request = QueryRequest::from_rows(id, "pair", mode, &["1?"], None);
                service.submit(request.unwrap()).unwrap()
            })
            .collect();
        for handle in handles {
            handle.wait().unwrap();
        }
    };
    // One marginal request per worker: both engines exist before either
    // meets a MAP query.
    answer_in_pairs(QueryMode::Marginal);
    assert_eq!(compiles.load(Ordering::SeqCst), 1);
    // One MAP request per worker: the max-product program compiles once,
    // into the plan both engines share.
    answer_in_pairs(QueryMode::Map);
    assert_eq!(compiles.load(Ordering::SeqCst), 2);
    service.shutdown();
}

#[test]
fn a_plan_the_registry_evicted_dies_once_the_worker_runs_another() {
    // The registry is the only model cache: with room for one plan and one
    // worker, a variant that was served and then displaced is kept alive
    // by nothing — the worker's engine moved on to the plan it ran last.
    let service = Service::new(
        CpuModel::new(),
        ServiceConfig {
            workers: 1,
            artifact_capacity: 1,
            ..ServiceConfig::default()
        },
    );
    service.register("m", &independent_pair());
    let variant = |mant_bits| {
        ModelVariant::default().with_precision(Precision::custom(8, mant_bits).unwrap())
    };
    let serve = |variant: ModelVariant| {
        let request = QueryRequest::from_rows(1, "m", QueryMode::Marginal, &["1?"], None)
            .unwrap()
            .with_precision(variant.precision);
        let response = service.query(request).unwrap();
        assert!((response.values[0] - 0.2).abs() < 1e-2);
        // The cached plan is the one the worker just ran: a hit, no compile.
        let (_, plan) = service.registry().plan("m", variant).unwrap();
        Arc::downgrade(&plan)
    };

    let first = serve(variant(20));
    assert!(first.upgrade().is_some(), "the registry caches the plan");
    let mut served = vec![first.clone()];
    for mant_bits in 21..=40 {
        served.push(serve(variant(mant_bits)));
        let alive = served.iter().filter(|plan| plan.strong_count() > 0).count();
        assert!(
            alive <= service.registry().cached_artifacts() + 1,
            "{alive} plans alive behind a one-plan cache and one worker"
        );
    }
    assert!(first.upgrade().is_none(), "an evicted plan is still pinned");
    service.shutdown();
}
