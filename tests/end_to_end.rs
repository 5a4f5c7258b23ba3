//! Cross-crate integration tests: model → flatten → compile → simulate,
//! checked against the reference evaluator through the two-phase Engine API.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spn_accel::core::analysis::{lint_spn, max_severity};
use spn_accel::core::flatten::OpList;
use spn_accel::core::random::{random_spn, RandomSpnConfig};
use spn_accel::core::{Evidence, EvidenceBatch, Severity, Spn};
use spn_accel::learn::Benchmark;
use spn_accel::platforms::{CpuModel, Engine, EngineOptions, GpuModel, ProcessorBackend};
use spn_accel::processor::ProcessorConfig;

/// Compiles `spn` for `config`, runs one query, returns (value, cycles).
fn run_on(config: &ProcessorConfig, spn: &Spn, evidence: &Evidence) -> (f64, u64) {
    let backend = ProcessorBackend::new(config.clone()).expect("backend");
    let mut engine = Engine::new(backend, spn, EngineOptions::default()).expect("compile");
    let (value, perf) = engine.execute(evidence).expect("run");
    (value, perf.cycles)
}

#[test]
fn random_spns_agree_across_every_execution_path() {
    let mut rng = StdRng::seed_from_u64(101);
    for vars in [3usize, 9, 17, 33] {
        let spn = random_spn(&RandomSpnConfig::with_vars(vars), &mut rng);
        let diags = lint_spn(&spn);
        assert!(max_severity(&diags) < Some(Severity::Warn), "{diags:?}");
        let ops = OpList::from_spn(&spn);

        // One engine per platform, compiled once, reused for every query.
        let mut cpu = Engine::from_ops(CpuModel::new(), &ops).expect("cpu compile");
        let mut gpu = Engine::from_ops(GpuModel::new(), &ops).expect("gpu compile");
        let mut ptree = Engine::from_ops(ProcessorBackend::ptree(), &ops).expect("ptree compile");
        let mut pvect = Engine::from_ops(ProcessorBackend::pvect(), &ops).expect("pvect compile");

        for evidence in [
            Evidence::marginal(vars),
            Evidence::from_assignment(&vec![true; vars]),
            {
                let mut e = Evidence::marginal(vars);
                e.observe(0, false);
                e
            },
        ] {
            let reference = spn.evaluate(&evidence).unwrap();
            let tolerance = 1e-9 * reference.abs().max(1e-12);

            assert!((ops.evaluate(&evidence).unwrap() - reference).abs() <= tolerance);
            let (cpu_value, _) = cpu.execute(&evidence).unwrap();
            assert!((cpu_value - reference).abs() <= tolerance);
            let (gpu_value, _) = gpu.execute(&evidence).unwrap();
            assert!((gpu_value - reference).abs() <= tolerance);
            for engine in [&mut ptree, &mut pvect] {
                let (hw_value, _) = engine.execute(&evidence).unwrap();
                assert!(
                    (hw_value - reference).abs() <= tolerance,
                    "{} disagrees on {vars} vars",
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn learned_benchmark_circuits_run_on_the_processor() {
    for benchmark in [Benchmark::Banknote, Benchmark::EegEye, Benchmark::Cpu] {
        let spn = benchmark.spn();
        let evidence = Evidence::marginal(spn.num_vars());
        let reference = spn.evaluate(&evidence).unwrap();
        let (value, cycles) = run_on(&ProcessorConfig::ptree(), &spn, &evidence);
        assert!(
            (value - reference).abs() <= 1e-9 * reference.abs().max(1e-12),
            "{}",
            benchmark.name()
        );
        assert!(cycles > 0);
    }
}

#[test]
fn conditional_queries_match_between_software_and_hardware() {
    let spn = Benchmark::Banknote.spn();
    let n = spn.num_vars();
    let mut engine =
        Engine::new(ProcessorBackend::ptree(), &spn, EngineOptions::default()).unwrap();

    let mut evidence = Evidence::marginal(n);
    evidence.observe(1, true);
    let mut joint = evidence.clone();
    joint.observe(0, true);

    let software = spn.evaluate(&joint).unwrap() / spn.evaluate(&evidence).unwrap();
    // Ship both sub-queries of the conditional as one two-query batch.
    let batch = EvidenceBatch::from_evidences(n, &[joint, evidence]).unwrap();
    let result = engine.execute_batch(&batch).unwrap();
    assert_eq!(result.perf.queries, 2);
    assert!((result.values[0] / result.values[1] - software).abs() < 1e-9);
}

#[test]
fn ptree_is_faster_than_pvect_on_a_learned_circuit() {
    let spn = Benchmark::Msnbc.spn();
    let evidence = Evidence::marginal(spn.num_vars());
    let (_, ptree_cycles) = run_on(&ProcessorConfig::ptree(), &spn, &evidence);
    let (_, pvect_cycles) = run_on(&ProcessorConfig::pvect(), &spn, &evidence);
    assert!(
        ptree_cycles < pvect_cycles,
        "Ptree {ptree_cycles} cycles vs Pvect {pvect_cycles} cycles"
    );
}

#[test]
fn batched_execution_amortises_cycles_linearly_on_the_simulator() {
    // The modelled cost of one query must not depend on how queries are
    // batched: N queries through one engine cost N × single-query cycles.
    let spn = Benchmark::Banknote.spn();
    let n = spn.num_vars();
    let mut engine =
        Engine::new(ProcessorBackend::ptree(), &spn, EngineOptions::default()).unwrap();
    let single = engine.execute(&Evidence::marginal(n)).unwrap().1;
    let batch = EvidenceBatch::marginals(n, 5);
    let batched = engine.execute_batch(&batch).unwrap().perf;
    assert_eq!(batched.queries, 5);
    assert_eq!(batched.cycles, 5 * single.cycles);
    assert!((batched.cycles_per_query() - single.cycles as f64).abs() < 1e-9);
}
