//! Property-style tests over randomly generated SPNs.
//!
//! These check the global invariants that every layer of the stack must
//! preserve: structural validity of generated circuits, equivalence of all
//! program representations, and the compiler/simulator pair reproducing the
//! reference semantics under arbitrary evidence.
//!
//! The offline build has no proptest, so cases are driven by an explicit
//! seeded generator: each case derives (SPN seed, variable count, random
//! observation pattern) from one `StdRng` stream, which keeps failures
//! reproducible by seed exactly like a proptest regression file would.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spn_accel::core::analysis::{lint_spn, max_severity};
use spn_accel::core::eval::Evaluator;
use spn_accel::core::flatten::OpList;
use spn_accel::core::random::{random_spn, RandomSpnConfig};
use spn_accel::core::{io, Evidence, EvidenceBatch, Severity, Spn};
use spn_accel::platforms::{Engine, EngineOptions, ProcessorBackend};
use spn_accel::processor::ProcessorConfig;

/// One generated case: an SPN and a random observation pattern over its
/// variables (each variable observed true/false or marginalised).
fn case(rng: &mut StdRng) -> (Spn, Evidence) {
    let vars = rng.gen_range(1usize..14);
    let seed = rng.gen_range(0u64..1000);
    let spn = random_spn(
        &RandomSpnConfig::with_vars(vars),
        &mut StdRng::seed_from_u64(seed),
    );
    let pattern: Vec<Option<bool>> = (0..vars)
        .map(|_| match rng.gen_range(0usize..3) {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        })
        .collect();
    (spn, Evidence::from_options(pattern))
}

/// Generated SPNs are always complete, decomposable and normalised, and
/// their fully marginalised value is one.
#[test]
fn generated_spns_are_valid() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for _ in 0..48 {
        let (spn, _) = case(&mut rng);
        let diags = lint_spn(&spn);
        assert!(max_severity(&diags) < Some(Severity::Warn), "{diags:?}");
        let z = spn.evaluate(&Evidence::marginal(spn.num_vars())).unwrap();
        assert!((z - 1.0).abs() < 1e-6);
    }
}

/// Algorithm 1 (the flattened program) and the graph evaluator agree under
/// any evidence, and probabilities are monotone under observation.
#[test]
fn program_forms_agree() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    for _ in 0..48 {
        let (spn, evidence) = case(&mut rng);
        let reference = spn.evaluate(&evidence).unwrap();
        let ops = OpList::from_spn(&spn);
        assert!((ops.evaluate(&evidence).unwrap() - reference).abs() < 1e-9);
        // Observing variables can only lower (or keep) the probability mass.
        let marginal = spn.evaluate(&Evidence::marginal(spn.num_vars())).unwrap();
        assert!(reference <= marginal + 1e-9);
    }
}

/// The batched evaluator agrees with per-query evaluation in both the
/// linear and the log domain.
#[test]
fn batched_evaluation_matches_per_query_evaluation() {
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    for _ in 0..24 {
        let (spn, _) = case(&mut rng);
        let vars = spn.num_vars();
        // A mixed batch: several random patterns plus the two extremes.
        let mut batch = EvidenceBatch::new(vars);
        batch.push_marginal();
        batch.push_assignment(&vec![true; vars]).unwrap();
        let mut evidences = vec![
            Evidence::marginal(vars),
            Evidence::from_assignment(&vec![true; vars]),
        ];
        for _ in 0..6 {
            let pattern: Vec<Option<bool>> = (0..vars)
                .map(|_| match rng.gen_range(0usize..3) {
                    0 => Some(false),
                    1 => Some(true),
                    _ => None,
                })
                .collect();
            let e = Evidence::from_options(pattern);
            batch.push(&e).unwrap();
            evidences.push(e);
        }

        let mut evaluator = Evaluator::new(&spn);
        let mut linear = Vec::new();
        evaluator.evaluate_batch(&batch, &mut linear).unwrap();
        let mut logs = Vec::new();
        evaluator.evaluate_log_batch(&batch, &mut logs).unwrap();

        assert_eq!(linear.len(), evidences.len());
        for (q, e) in evidences.iter().enumerate() {
            let expected = spn.evaluate(e).unwrap();
            assert!(
                (linear[q] - expected).abs() <= 1e-9 * expected.abs().max(1e-12),
                "linear query {q}"
            );
            let expected_log = spn.evaluate_log(e).unwrap();
            let diff = if expected_log.is_zero() {
                if logs[q].is_zero() {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (logs[q].ln() - expected_log.ln()).abs()
            };
            assert!(diff < 1e-9, "log query {q}");
        }
    }
}

/// The text format round-trips semantics.
#[test]
fn text_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x7E57);
    for _ in 0..48 {
        let (spn, evidence) = case(&mut rng);
        let parsed = io::parse_text(&io::write_text(&spn)).unwrap();
        assert!(
            (parsed.evaluate(&evidence).unwrap() - spn.evaluate(&evidence).unwrap()).abs() < 1e-9
        );
    }
}

/// The compiled program running on the structurally-checked simulator
/// reproduces the reference value on both processor configurations.
/// (Compilation plus cycle-accurate simulation is slower, so fewer cases.)
#[test]
fn compiled_programs_match_reference() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    for _ in 0..12 {
        let (spn, evidence) = case(&mut rng);
        let reference = spn.evaluate(&evidence).unwrap();
        for config in [ProcessorConfig::ptree(), ProcessorConfig::pvect()] {
            let backend = ProcessorBackend::new(config).unwrap();
            let mut engine = Engine::new(backend, &spn, EngineOptions::default()).unwrap();
            let (value, perf) = engine.execute(&evidence).unwrap();
            assert!(
                (value - reference).abs() <= 1e-9 * reference.abs().max(1e-12),
                "got {value} expected {reference}"
            );
            assert_eq!(
                perf.source_ops as usize,
                engine.compiled().op_list.num_ops()
            );
        }
    }
}
