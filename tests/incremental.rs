//! Incremental-vs-full parity property tests for evaluation sessions.
//!
//! The incremental evaluator's contract is that a delta is a *latency*
//! optimisation, never an approximation: after any sequence of evidence
//! flips, [`Engine::session_delta`] must return exactly (`to_bits`-equal)
//! the value a full re-evaluation under the session's updated evidence
//! would produce — in every numeric mode and at every emulated precision,
//! on the cone-capable CPU backend and on backends that fall back to full
//! passes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spn_accel::core::incremental::DEFAULT_FULL_PASS_FRACTION;
use spn_accel::core::random::{random_spn, RandomSpnConfig};
use spn_accel::core::{Evidence, NumericMode, Precision};
use spn_accel::platforms::{Backend, CpuModel, Engine, EngineOptions, GpuModel, ProcessorBackend};

/// A random starting evidence: each variable independently observed true,
/// observed false, or marginalised.
fn random_evidence(num_vars: usize, rng: &mut StdRng) -> Evidence {
    let mut evidence = Evidence::marginal(num_vars);
    for var in 0..num_vars {
        match rng.gen_range(0usize..3) {
            0 => evidence.observe(var, true),
            1 => evidence.observe(var, false),
            _ => {}
        }
    }
    evidence
}

/// A random flip set of one to three variables (duplicates allowed — the
/// last flip of a variable wins, which the evaluator must honour too).
fn random_flips(num_vars: usize, rng: &mut StdRng) -> Vec<(usize, Option<bool>)> {
    (0..rng.gen_range(1usize..4))
        .map(|_| {
            let var = rng.gen_range(0usize..num_vars);
            let observation = match rng.gen_range(0usize..3) {
                0 => Some(true),
                1 => Some(false),
                _ => None,
            };
            (var, observation)
        })
        .collect()
}

fn apply_flips(evidence: &mut Evidence, flips: &[(usize, Option<bool>)]) {
    for &(var, observation) in flips {
        match observation {
            Some(value) => evidence.observe(var, value),
            None => evidence.forget(var),
        }
    }
}

/// Runs `seeds × modes × precisions` random flip sequences on `backend`,
/// asserting every session value bit-for-bit against a freshly executed
/// full pass.  Returns how many deltas took the incremental (non-full-pass)
/// path, so callers can assert the cone path was actually exercised.
fn assert_session_parity<B>(make_backend: impl Fn() -> B, seeds: u64, steps: usize) -> u64
where
    B: Backend,
{
    let mut incremental_deltas = 0;
    for seed in 0..seeds {
        for mode in NumericMode::ALL {
            for precision in Precision::SWEEP {
                let mut rng = StdRng::seed_from_u64(seed * 7919 + 17);
                let spn = random_spn(
                    &RandomSpnConfig::with_vars(6 + (seed as usize % 3)),
                    &mut rng,
                );
                let num_vars = spn.num_vars();
                let options = EngineOptions::default().mode(mode).precision(precision);
                let mut engine = Engine::new(make_backend(), &spn, options).unwrap();
                let mut oracle = Engine::new(make_backend(), &spn, options).unwrap();

                let mut evidence = random_evidence(num_vars, &mut rng);
                let mut session = engine.open_session(&evidence).unwrap();
                let (full, _) = oracle.execute(&evidence).unwrap();
                assert_eq!(
                    session.value().to_bits(),
                    full.to_bits(),
                    "open mismatch ({mode}, {precision}, seed {seed})"
                );

                for step in 0..steps {
                    let flips = random_flips(num_vars, &mut rng);
                    let outcome = engine.session_delta(&mut session, &flips).unwrap();
                    apply_flips(&mut evidence, &flips);
                    let (full, _) = oracle.execute(&evidence).unwrap();
                    assert_eq!(
                        outcome.value.to_bits(),
                        full.to_bits(),
                        "delta mismatch at step {step} ({mode}, {precision}, seed {seed}, \
                         flips {flips:?})"
                    );
                    assert_eq!(session.value().to_bits(), outcome.value.to_bits());
                    assert_eq!(session.evidence(), &evidence);
                    if !outcome.full_pass {
                        assert!(session.is_incremental());
                        // The cone path's reason to exist: it never does
                        // more than the fallback fraction of a full pass.
                        let limit = DEFAULT_FULL_PASS_FRACTION * engine.ops().num_ops() as f64;
                        assert!(
                            outcome.recomputed_ops as f64 <= limit,
                            "{} ops recomputed on the cone path, limit {limit}",
                            outcome.recomputed_ops
                        );
                        incremental_deltas += 1;
                    }
                }
            }
        }
    }
    incremental_deltas
}

#[test]
fn cpu_sessions_match_full_evaluation_bit_for_bit_in_every_mode_and_precision() {
    let incremental = assert_session_parity(CpuModel::new, 4, 12);
    // The point of the sweep is the *incremental* path: if every delta fell
    // back to a full pass the parity assertions above proved nothing.
    assert!(
        incremental > 0,
        "no delta ever took the incremental cone path"
    );
}

#[test]
fn cone_less_backends_fall_back_to_full_passes_with_identical_values() {
    // The GPU model and the processor simulator publish no cone analysis:
    // every delta must run a full pass — and still agree bit for bit.
    let incremental = assert_session_parity(GpuModel::new, 2, 6);
    assert_eq!(incremental, 0, "GpuModel unexpectedly served a cone delta");
    let incremental = assert_session_parity(ProcessorBackend::ptree, 1, 4);
    assert_eq!(incremental, 0, "ptree unexpectedly served a cone delta");
}

#[test]
fn dense_flip_sets_fall_back_without_changing_the_value() {
    // Flipping every variable at once dirties (essentially) the whole
    // program, so the evaluator's threshold must route the delta to a full
    // pass — the outcome says so, and the value still matches.
    let mut rng = StdRng::seed_from_u64(404);
    let spn = random_spn(&RandomSpnConfig::with_vars(8), &mut rng);
    let mut engine = Engine::new(CpuModel::new(), &spn, EngineOptions::default()).unwrap();
    let mut oracle = Engine::new(CpuModel::new(), &spn, EngineOptions::default()).unwrap();

    let mut evidence = Evidence::marginal(8);
    let mut session = engine.open_session(&evidence).unwrap();
    assert!(session.is_incremental());

    let flips: Vec<(usize, Option<bool>)> = (0..8).map(|var| (var, Some(var % 2 == 0))).collect();
    let outcome = engine.session_delta(&mut session, &flips).unwrap();
    assert!(outcome.full_pass, "dense flips must trigger the fallback");
    apply_flips(&mut evidence, &flips);
    let (full, _) = oracle.execute(&evidence).unwrap();
    assert_eq!(outcome.value.to_bits(), full.to_bits());

    // A sparse follow-up flip drops back to the incremental path and reuses
    // the state the fallback pass refreshed.
    let outcome = engine.session_delta(&mut session, &[(3, None)]).unwrap();
    assert!(!outcome.full_pass);
    evidence.forget(3);
    let (full, _) = oracle.execute(&evidence).unwrap();
    assert_eq!(outcome.value.to_bits(), full.to_bits());
}

#[test]
fn out_of_range_flips_leave_the_session_untouched() {
    let mut rng = StdRng::seed_from_u64(11);
    let spn = random_spn(&RandomSpnConfig::with_vars(5), &mut rng);
    let mut engine = Engine::new(CpuModel::new(), &spn, EngineOptions::default()).unwrap();
    let evidence = Evidence::marginal(5);
    let mut session = engine.open_session(&evidence).unwrap();
    let before = session.value();

    assert!(engine
        .session_delta(&mut session, &[(0, Some(true)), (5, Some(true))])
        .is_err());
    assert_eq!(session.value().to_bits(), before.to_bits());
    assert_eq!(session.evidence(), &evidence, "failed delta must not apply");

    // The session still works after the rejected delta.
    let outcome = engine
        .session_delta(&mut session, &[(0, Some(true))])
        .unwrap();
    let mut engine2 = Engine::new(CpuModel::new(), &spn, EngineOptions::default()).unwrap();
    let mut expected = Evidence::marginal(5);
    expected.observe(0, true);
    let (full, _) = engine2.execute(&expected).unwrap();
    assert_eq!(outcome.value.to_bits(), full.to_bits());
}

#[test]
fn two_flip_deltas_recompute_exactly_the_union_of_the_two_cones() {
    // Two flips go through the same stamped union as any other count:
    // distinct variables, one variable twice (the last flip wins) and a
    // `None` on either side must each be bit-equal to a from-scratch pass
    // and re-execute exactly the ops of the two cones' union.
    let mut rng = StdRng::seed_from_u64(2323);
    let spn = random_spn(&RandomSpnConfig::with_vars(24), &mut rng);
    let mut cone_path = 0;
    for mode in NumericMode::ALL {
        let options = EngineOptions::default().mode(mode);
        let mut engine = Engine::new(CpuModel::new(), &spn, options).unwrap();
        let mut oracle = Engine::new(CpuModel::new(), &spn, options).unwrap();
        let num_ops = engine.ops().num_ops();
        let mut evidence = random_evidence(24, &mut rng);
        let mut session = engine.open_session(&evidence).unwrap();

        for a in 0..24 {
            let b = (a + 7) % 24;
            for flips in [
                [(a, Some(true)), (b, Some(false))],
                [(a, Some(false)), (a, Some(true))],
                [(a, None), (b, Some(true))],
                [(a, Some(false)), (b, None)],
                [(a, None), (a, None)],
            ] {
                let union = {
                    let cones = session.cone_analysis().expect("CPU sessions have cones");
                    let mut ops: Vec<u32> = flips
                        .iter()
                        .flat_map(|&(var, _)| cones.cone(var).iter().copied())
                        .collect();
                    ops.sort_unstable();
                    ops.dedup();
                    ops.len()
                };
                let outcome = engine.session_delta(&mut session, &flips).unwrap();
                apply_flips(&mut evidence, &flips);
                let (full, _) = oracle.execute(&evidence).unwrap();
                assert_eq!(
                    outcome.value.to_bits(),
                    full.to_bits(),
                    "{mode}, flips {flips:?}"
                );
                assert_eq!(session.evidence(), &evidence);
                if union as f64 > DEFAULT_FULL_PASS_FRACTION * num_ops as f64 {
                    assert!(outcome.full_pass, "{mode}, flips {flips:?}");
                    assert_eq!(outcome.recomputed_ops, num_ops);
                } else {
                    assert!(!outcome.full_pass, "{mode}, flips {flips:?}");
                    assert_eq!(outcome.recomputed_ops, union, "{mode}, flips {flips:?}");
                    cone_path += 1;
                }
            }
        }
    }
    assert!(cone_path > 0, "no two-flip delta took the cone path");
}
