//! Engine-level tests of the two-phase execution architecture: cross-backend
//! parity over a shared [`EvidenceBatch`], and the compile-once semantics
//! (one compiled artifact serving many batches).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spn_accel::core::eval::Evaluator;
use spn_accel::core::flatten::OpList;
use spn_accel::core::random::{random_spn, RandomSpnConfig};
use spn_accel::core::{Evidence, EvidenceBatch};
use spn_accel::platforms::{
    Backend, CpuModel, Engine, EngineOptions, GpuModel, Parallelism, ProcessorBackend,
};

/// A deterministic batch mixing marginal, complete and partial queries.
fn mixed_batch(num_vars: usize, queries: usize, seed: u64) -> EvidenceBatch {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = EvidenceBatch::with_capacity(num_vars, queries);
    for q in 0..queries {
        match q % 3 {
            0 => batch.push_marginal(),
            1 => {
                let assignment: Vec<bool> = (0..num_vars).map(|_| rng.gen_bool(0.5)).collect();
                batch.push_assignment(&assignment).unwrap();
            }
            _ => {
                let mut e = Evidence::marginal(num_vars);
                for var in 0..num_vars {
                    if rng.gen_bool(0.4) {
                        e.observe(var, rng.gen_bool(0.5));
                    }
                }
                batch.push(&e).unwrap();
            }
        }
    }
    batch
}

/// CPU backend, GPU backend, both processor configurations and the
/// reference evaluator produce identical root values over one shared batch.
#[test]
fn all_backends_agree_on_a_shared_batch() {
    for (seed, vars) in [(7u64, 6usize), (8, 13), (9, 21)] {
        let spn = random_spn(
            &RandomSpnConfig::with_vars(vars),
            &mut StdRng::seed_from_u64(seed),
        );
        let ops = OpList::from_spn(&spn);
        let batch = mixed_batch(vars, 9, seed ^ 0xFEED);

        // The reference: the reusable evaluator's batch path.
        let mut reference = Vec::new();
        Evaluator::new(&spn)
            .evaluate_batch(&batch, &mut reference)
            .unwrap();

        let mut cpu = Engine::from_ops(CpuModel::new(), &ops).unwrap();
        let mut gpu = Engine::from_ops(GpuModel::new(), &ops).unwrap();
        let mut ptree = Engine::from_ops(ProcessorBackend::ptree(), &ops).unwrap();
        let mut pvect = Engine::from_ops(ProcessorBackend::pvect(), &ops).unwrap();

        let cpu_out = cpu.execute_batch(&batch).unwrap();
        let gpu_out = gpu.execute_batch(&batch).unwrap();
        let ptree_out = ptree.execute_batch(&batch).unwrap();
        let pvect_out = pvect.execute_batch(&batch).unwrap();

        for (name, values) in [
            ("CPU", &cpu_out.values),
            ("GPU", &gpu_out.values),
            ("Ptree", &ptree_out.values),
            ("Pvect", &pvect_out.values),
        ] {
            assert_eq!(values.len(), batch.len(), "{name}");
            for (q, (value, expected)) in values.iter().zip(&reference).enumerate() {
                assert!(
                    (value - expected).abs() <= 1e-9 * expected.abs().max(1e-12),
                    "{name} seed {seed} query {q}: {value} vs {expected}"
                );
            }
        }
        for out in [&cpu_out, &gpu_out, &ptree_out, &pvect_out] {
            assert_eq!(out.perf.queries, batch.len() as u64);
        }
    }
}

/// One compiled engine serves many batches; results match per-batch fresh
/// compilation (the artifact is stateless across batches).
#[test]
fn compiled_artifact_is_reusable_across_batches() {
    let spn = random_spn(
        &RandomSpnConfig::with_vars(10),
        &mut StdRng::seed_from_u64(21),
    );
    let ops = OpList::from_spn(&spn);
    let mut long_lived = Engine::from_ops(CpuModel::new(), &ops).unwrap();
    for round in 0..5u64 {
        let batch = mixed_batch(10, 7, round);
        let reused = long_lived.execute_batch(&batch).unwrap();
        let fresh = Engine::from_ops(CpuModel::new(), &ops)
            .unwrap()
            .execute_batch(&batch)
            .unwrap();
        assert_eq!(reused.values, fresh.values, "round {round}");
        assert_eq!(reused.perf, fresh.perf, "round {round}");
    }
}

/// Single-query execution is exactly a one-element batch.
#[test]
fn execute_is_a_one_query_batch() {
    let spn = random_spn(
        &RandomSpnConfig::with_vars(8),
        &mut StdRng::seed_from_u64(33),
    );
    let mut engine = Engine::new(GpuModel::new(), &spn, EngineOptions::default()).unwrap();
    let mut e = Evidence::marginal(8);
    e.observe(2, true);
    let (single, perf) = engine.execute(&e).unwrap();
    let batch = EvidenceBatch::from_evidences(8, &[e]).unwrap();
    let batched = engine.execute_batch(&batch).unwrap();
    assert_eq!(single, batched.values[0]);
    assert_eq!(perf, batched.perf);
    assert_eq!(perf.queries, 1);
}

/// Constant-only (zero-variable) SPNs execute through the engine: the batch
/// counts queries even though each evidence row is empty.
#[test]
fn zero_variable_spn_executes() {
    let mut b = spn_accel::core::SpnBuilder::new(0);
    let c = b.constant(0.25);
    let spn = b.finish(c).unwrap();
    let mut engine = Engine::new(CpuModel::new(), &spn, EngineOptions::default()).unwrap();
    let (value, perf) = engine.execute(&Evidence::marginal(0)).unwrap();
    assert_eq!(value, 0.25);
    assert_eq!(perf.queries, 1);
    let batch = EvidenceBatch::marginals(0, 3);
    let out = engine.execute_batch(&batch).unwrap();
    assert_eq!(out.values, vec![0.25; 3]);
}

/// Engines reject batches over the wrong variable count.
#[test]
fn engines_reject_mismatched_batches() {
    let spn = random_spn(
        &RandomSpnConfig::with_vars(5),
        &mut StdRng::seed_from_u64(55),
    );
    let wrong = EvidenceBatch::marginals(6, 2);
    let mut cpu = Engine::new(CpuModel::new(), &spn, EngineOptions::default()).unwrap();
    let mut gpu = Engine::new(GpuModel::new(), &spn, EngineOptions::default()).unwrap();
    let mut hw = Engine::new(ProcessorBackend::ptree(), &spn, EngineOptions::default()).unwrap();
    assert!(cpu.execute_batch(&wrong).is_err());
    assert!(gpu.execute_batch(&wrong).is_err());
    assert!(hw.execute_batch(&wrong).is_err());
    assert!(cpu.execute(&Evidence::marginal(9)).is_err());
}

/// One engine rebound across plans of different sizes answers each exactly
/// like an engine built for that plan alone — batch path, sharded path and
/// the one-query scratch path — and keeps no reference to the plan it left.
#[test]
fn a_rebound_engine_answers_like_a_fresh_one_on_every_backend() {
    fn check<B: Backend + Clone>(backend: B) {
        let plans: Vec<_> = [(31u64, 5usize), (32, 19), (33, 9)]
            .into_iter()
            .map(|(seed, vars)| {
                let spn = random_spn(
                    &RandomSpnConfig::with_vars(vars),
                    &mut StdRng::seed_from_u64(seed),
                );
                Arc::clone(
                    Engine::new(backend.clone(), &spn, EngineOptions::default())
                        .unwrap()
                        .plan(),
                )
            })
            .collect();
        let mut engine = Engine::from_plan(Arc::clone(&plans[0]));
        for plan in plans.iter().chain(plans.iter().rev()) {
            engine.rebind(Arc::clone(plan));
            assert!(Arc::ptr_eq(engine.plan(), plan));
            let mut fresh = Engine::from_plan(Arc::clone(plan));
            let vars = plan.ops().num_vars();
            let batch = mixed_batch(vars, 70, vars as u64);
            let want = fresh.execute_batch(&batch).unwrap();
            assert_eq!(engine.execute_batch(&batch).unwrap(), want);
            let sharded = engine
                .execute_batch_parallel(&batch, &Parallelism::workers(2))
                .unwrap();
            assert_eq!(sharded, want);
            let evidence = batch.to_evidence(1);
            let (value, _) = engine.execute(&evidence).unwrap();
            assert_eq!(value.to_bits(), want.values[1].to_bits());
        }
        // Rebinding dropped the engine's hold on the plans it left.
        assert_eq!(Arc::strong_count(&plans[1]), 1);
        assert_eq!(Arc::strong_count(&plans[0]), 2);
    }
    check(CpuModel::new());
    check(GpuModel::new());
    check(ProcessorBackend::ptree());
}
