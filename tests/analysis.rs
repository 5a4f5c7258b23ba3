//! Property tests for the static-analysis layer.
//!
//! The contract, end to end:
//!
//! * every *valid* circuit — random SPNs across many seeds and every shipped
//!   benchmark model — lints without error-level findings at every
//!   `NumericMode` × `Precision` combination (and the shallow ones without
//!   any finding at all),
//! * every *seeded-invalid* circuit produces exactly the documented
//!   diagnostic code,
//! * the numeric range analysis *predicts* the PR 4 empirical result: the
//!   deep-chain circuit is statically flagged for guaranteed linear-domain
//!   flush-to-zero at reduced precision, and real execution then indeed
//!   returns exactly `0.0` — while the log-domain lowering of the same
//!   circuit lints clean and executes finitely,
//! * the serving registry, where models enter, rejects broken ones at
//!   load/hot-swap time with a structured [`ServeError::Verification`]
//!   without disturbing the live registration.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spn_accel::core::analysis::{self, Diagnostic, Location, Severity};
use spn_accel::core::flatten::OpList;
use spn_accel::core::random::{deep_chain_spn, random_spn, RandomSpnConfig};
use spn_accel::core::{Evidence, NumericMode, Precision, SpnBuilder, VarId};
use spn_accel::learn::Benchmark;
use spn_accel::platforms::{CpuModel, Engine, EngineOptions};
use spn_accel::serve::registry::ModelRegistry;
use spn_accel::serve::ServeError;

fn codes(diagnostics: &[Diagnostic]) -> Vec<&'static str> {
    diagnostics.iter().map(|d| d.code).collect()
}

fn lowered(spn: &spn_accel::core::Spn, mode: NumericMode, precision: Precision) -> OpList {
    let ops = OpList::from_spn(spn);
    let ops = match mode {
        NumericMode::Linear => ops,
        NumericMode::Log => ops.to_log_domain(),
    };
    ops.with_precision(precision)
}

#[test]
fn random_valid_spns_never_produce_errors() {
    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..25 {
        let vars = rng.gen_range(2usize..14);
        let spn = random_spn(&RandomSpnConfig::with_vars(vars), &mut rng);
        let structural = analysis::lint_spn(&spn);
        assert!(
            !analysis::has_errors(&structural),
            "valid random SPN produced structural errors: {structural:?}"
        );
        for mode in [NumericMode::Linear, NumericMode::Log] {
            for precision in Precision::SWEEP {
                let report = analysis::lint_ranges(&lowered(&spn, mode, precision));
                assert!(
                    !analysis::has_errors(&report),
                    "valid random SPN produced range errors at {mode} {precision}: {report:?}"
                );
            }
        }
    }
}

#[test]
fn shipped_benchmarks_lint_clean_at_every_combination() {
    for benchmark in Benchmark::all() {
        let spn = benchmark.spn();
        let structural = analysis::lint_spn(&spn);
        assert!(
            structural.is_empty(),
            "benchmark {} has structural findings: {structural:?}",
            benchmark.name()
        );
        for mode in [NumericMode::Linear, NumericMode::Log] {
            for precision in Precision::SWEEP {
                let report = analysis::lint_ranges(&lowered(&spn, mode, precision));
                assert!(
                    report.is_empty(),
                    "benchmark {} flagged at {mode} {precision}: {report:?}",
                    benchmark.name()
                );
            }
        }
    }
}

#[test]
fn seeded_invalid_spns_produce_the_documented_codes() {
    // Incomplete sum: children with different scopes → SPN001 (error).
    let mut b = SpnBuilder::new(2);
    let x0 = b.indicator(VarId(0), true);
    let x1 = b.indicator(VarId(1), true);
    let root = b.sum(vec![(x0, 0.5), (x1, 0.5)]).unwrap();
    let incomplete = b.finish(root).unwrap();
    let diags = analysis::lint_spn(&incomplete);
    assert!(codes(&diags).contains(&"SPN001"), "{diags:?}");
    assert_eq!(analysis::max_severity(&diags), Some(Severity::Error));

    // Non-decomposable product: overlapping child scopes → SPN002 (error).
    let mut b = SpnBuilder::new(1);
    let x = b.indicator(VarId(0), true);
    let nx = b.indicator(VarId(0), false);
    let root = b.product(vec![x, nx]).unwrap();
    let overlapping = b.finish(root).unwrap();
    assert!(codes(&analysis::lint_spn(&overlapping)).contains(&"SPN002"));

    // Unnormalized sum with a zero-weight edge → SPN003 + SPN005 (non-fatal).
    let mut b = SpnBuilder::new(1);
    let x = b.indicator(VarId(0), true);
    let nx = b.indicator(VarId(0), false);
    let root = b.sum(vec![(x, 0.4), (nx, 0.0)]).unwrap();
    let unnormalized = b.finish(root).unwrap();
    let diags = analysis::lint_spn(&unnormalized);
    assert!(codes(&diags).contains(&"SPN003"), "{diags:?}");
    assert!(codes(&diags).contains(&"SPN005"), "{diags:?}");
    assert!(!analysis::has_errors(&diags));
}

/// A clean root beside an unreachable incomplete sum and an unreachable
/// product of one indicator twice: the lint checks every node, reachable
/// or not, so both errors are found where they are, and the registry
/// turns the model away.
#[test]
fn unreachable_broken_nodes_are_still_errors() {
    let mut b = SpnBuilder::new(2);
    let x0 = b.indicator(VarId(0), true);
    let nx0 = b.indicator(VarId(0), false);
    let x1 = b.indicator(VarId(1), true);
    let nx1 = b.indicator(VarId(1), false);
    let s0 = b.sum(vec![(x0, 0.5), (nx0, 0.5)]).unwrap();
    let s1 = b.sum(vec![(x1, 0.5), (nx1, 0.5)]).unwrap();
    let incomplete = b.sum(vec![(x0, 0.5), (x1, 0.5)]).unwrap();
    let twice = b.product(vec![x0, x0]).unwrap();
    let root = b.product(vec![s0, s1]).unwrap();
    let spn = b.finish(root).unwrap();

    let diags = analysis::lint_spn(&spn);
    let at = |code: &str| -> Vec<Location> {
        diags
            .iter()
            .filter(|d| d.code == code)
            .map(|d| d.location)
            .collect()
    };
    assert_eq!(at("SPN001"), [Location::Node(incomplete.0)], "{diags:?}");
    assert_eq!(at("SPN002"), [Location::Node(twice.0)], "{diags:?}");
    assert_eq!(
        at("SPN004"),
        [Location::Node(incomplete.0), Location::Node(twice.0)],
        "{diags:?}"
    );
    assert!(analysis::has_errors(&diags));

    let registry: ModelRegistry<CpuModel> = ModelRegistry::new(CpuModel::new(), 4);
    match registry.try_register("model", &spn) {
        Err(ServeError::Verification(found)) => {
            assert_eq!(codes(&found), codes(&diags));
        }
        other => panic!("expected ServeError::Verification, got {other:?}"),
    }
    assert!(registry.version("model").is_err(), "nothing registered");
}

#[test]
fn deep_chain_static_flag_matches_the_empirical_underflow() {
    let spn = deep_chain_spn(1200, 1e-3);

    // Statically: guaranteed flush-to-zero at f32, output guaranteed zero.
    let report = analysis::lint_ranges(&lowered(&spn, NumericMode::Linear, Precision::F32));
    let found = codes(&report);
    assert!(found.contains(&"SPN101"), "{found:?}");
    assert!(found.contains(&"SPN103"), "{found:?}");

    // Empirically: the engine indeed computes exactly 0.0 (the PR 4 result
    // the analysis exists to predict)...
    let options = EngineOptions::default().precision(Precision::F32);
    let mut engine = Engine::new(CpuModel::new(), &spn, options).expect("compiles");
    let (value, _) = engine.execute(&Evidence::marginal(1)).expect("executes");
    assert_eq!(
        value, 0.0,
        "deep linear chain must underflow to exactly 0.0"
    );

    // ...while the log-domain lowering lints clean and executes finitely.
    let log_report = analysis::lint_ranges(&lowered(&spn, NumericMode::Log, Precision::F32));
    assert!(log_report.is_empty(), "{log_report:?}");
    let log_options = EngineOptions::default()
        .mode(NumericMode::Log)
        .precision(Precision::F32);
    let mut engine = Engine::new(CpuModel::new(), &spn, log_options).expect("compiles");
    let (value, _) = engine.execute(&Evidence::marginal(1)).expect("executes");
    assert!(
        value.is_finite(),
        "log-domain output must stay finite, got {value}"
    );
}

#[test]
fn registry_rejects_broken_models_and_keeps_the_live_one() {
    let registry: ModelRegistry<CpuModel> = ModelRegistry::new(CpuModel::new(), 4);
    let mut rng = StdRng::seed_from_u64(23);
    let good = random_spn(&RandomSpnConfig::with_vars(4), &mut rng);
    registry
        .try_register("model", &good)
        .expect("valid model registers");
    let version = registry.version("model").expect("registered");

    // A hot swap with a structurally broken replacement (an incomplete sum,
    // SPN001; a non-decomposable product, SPN002) must fail with the
    // structured error and leave the good registration untouched.
    let mut b = SpnBuilder::new(2);
    let x0 = b.indicator(VarId(0), true);
    let x1 = b.indicator(VarId(1), true);
    let root = b.sum(vec![(x0, 0.5), (x1, 0.5)]).unwrap();
    let incomplete = b.finish(root).unwrap();
    let mut b = SpnBuilder::new(1);
    let x = b.indicator(VarId(0), true);
    let nx = b.indicator(VarId(0), false);
    let root = b.product(vec![x, nx]).unwrap();
    let overlapping = b.finish(root).unwrap();
    for (broken, code) in [(&incomplete, "SPN001"), (&overlapping, "SPN002")] {
        let err = registry
            .try_register("model", broken)
            .expect_err("broken model must be rejected");
        match &err {
            ServeError::Verification(diagnostics) => {
                assert!(codes(diagnostics).contains(&code), "{diagnostics:?}");
            }
            other => panic!("expected ServeError::Verification, got {other}"),
        }
        // The stable code travels in the wire message.
        assert!(err.message().contains(code), "{}", err.message());
        assert_eq!(
            registry.version("model").expect("still registered"),
            version,
            "failed hot swap must not disturb the live model"
        );
    }
}
