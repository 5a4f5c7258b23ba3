//! Validity tests of the structure learners: Chow-Liu and LearnSPN must
//! produce structurally valid, normalised SPNs whose joint distribution sums
//! to one on small datasets.

use rand::rngs::StdRng;
use rand::SeedableRng;

use spn_core::analysis::{lint_spn, max_severity};
use spn_core::query::reference_query;
use spn_core::{Evidence, EvidenceBatch, QueryBatch, Severity, Spn};
use spn_learn::chow_liu::ChowLiuTree;
use spn_learn::dataset::{synthetic, Structure};
use spn_learn::learnspn::{learn_spn, LearnSpnOptions};
use spn_learn::Dataset;

/// Sums the learned joint over all `2^num_vars` assignments via the
/// reference query path — must be 1 for a normalised SPN.
fn joint_mass(spn: &Spn) -> f64 {
    let num_vars = spn.num_vars();
    assert!(
        num_vars <= 12,
        "enumeration only feasible for small circuits"
    );
    let mut batch = EvidenceBatch::with_capacity(num_vars, 1 << num_vars);
    for bits in 0..(1u32 << num_vars) {
        let assignment: Vec<bool> = (0..num_vars).map(|v| bits >> v & 1 == 1).collect();
        batch.push_assignment(&assignment).unwrap();
    }
    let result = reference_query(spn, &QueryBatch::Joint(batch)).unwrap();
    assert!(result
        .values
        .iter()
        .all(|&v| (0.0..=1.0 + 1e-12).contains(&v)));
    result.values.iter().sum()
}

fn check_learned_spn(spn: &Spn, num_vars: usize, context: &str) {
    assert_eq!(spn.num_vars(), num_vars, "{context}: variable count");
    let diags = lint_spn(spn);
    assert!(
        max_severity(&diags) < Some(Severity::Warn),
        "{context}: invalid SPN: {diags:?}"
    );

    // Normalisation, three ways: full marginal pass, joint enumeration, and
    // consistency between a marginal and the sum of its completions.
    let z = spn.evaluate(&Evidence::marginal(num_vars)).unwrap();
    assert!((z - 1.0).abs() < 1e-9, "{context}: partition function {z}");
    let mass = joint_mass(spn);
    assert!((mass - 1.0).abs() < 1e-9, "{context}: joint mass {mass}");

    let mut observed = Evidence::marginal(num_vars);
    observed.observe(0, true);
    let marginal = spn.evaluate(&observed).unwrap();
    let mut complement = Evidence::marginal(num_vars);
    complement.observe(0, false);
    let other = spn.evaluate(&complement).unwrap();
    assert!(
        (marginal + other - 1.0).abs() < 1e-9,
        "{context}: P(X0=1) + P(X0=0) = {}",
        marginal + other
    );
}

fn datasets(num_vars: usize) -> Vec<(&'static str, Dataset)> {
    let mut rng = StdRng::seed_from_u64(2024);
    vec![
        (
            "independent",
            synthetic(num_vars, 400, Structure::Independent, &mut rng),
        ),
        (
            "chain",
            synthetic(num_vars, 400, Structure::Chain, &mut rng),
        ),
        (
            "clustered",
            synthetic(
                num_vars,
                400,
                Structure::Clustered { clusters: 3 },
                &mut rng,
            ),
        ),
    ]
}

#[test]
fn chow_liu_learns_valid_normalised_spns() {
    for num_vars in [2usize, 5, 8] {
        for (name, data) in datasets(num_vars) {
            let tree = ChowLiuTree::learn(&data);
            let spn = tree.to_spn();
            check_learned_spn(&spn, num_vars, &format!("chow-liu/{name}/{num_vars}v"));

            // The tree's own likelihood agrees with the compiled circuit's.
            let row = data.rows()[0].clone();
            let from_tree = tree.log_likelihood_row(&row);
            let from_spn = spn.evaluate(&Evidence::from_assignment(&row)).unwrap().ln();
            assert!(
                (from_tree - from_spn).abs() < 1e-9,
                "chow-liu/{name}/{num_vars}v: tree ll {from_tree} vs spn ll {from_spn}"
            );
        }
    }
}

#[test]
fn chow_liu_likelihood_is_finite_and_negative_on_training_data() {
    let mut rng = StdRng::seed_from_u64(5);
    let data = synthetic(6, 300, Structure::Chain, &mut rng);
    let tree = ChowLiuTree::learn(&data);
    let ll = tree.log_likelihood(&data);
    assert!(ll.is_finite());
    assert!(
        ll < 0.0,
        "log-likelihood of 300 binary rows must be negative"
    );
}

#[test]
fn learnspn_learns_valid_normalised_spns() {
    for num_vars in [3usize, 6, 9] {
        for (name, data) in datasets(num_vars) {
            let spn = learn_spn(&data, &LearnSpnOptions::default());
            check_learned_spn(&spn, num_vars, &format!("learnspn/{name}/{num_vars}v"));
        }
    }
}

#[test]
fn learnspn_assigns_high_mass_to_cluster_prototypes() {
    // On strongly clustered data, rows from the dataset should be far more
    // probable than uniform (1 / 2^n) on average.
    let mut rng = StdRng::seed_from_u64(77);
    let num_vars = 8;
    let data = synthetic(
        num_vars,
        500,
        Structure::Clustered { clusters: 2 },
        &mut rng,
    );
    let spn = learn_spn(&data, &LearnSpnOptions::default());
    let mean_ll: f64 = data
        .rows()
        .iter()
        .take(100)
        .map(|row| {
            spn.evaluate(&Evidence::from_assignment(row))
                .unwrap()
                .max(1e-300)
                .ln()
        })
        .sum::<f64>()
        / 100.0;
    let uniform_ll = -(num_vars as f64) * std::f64::consts::LN_2;
    assert!(
        mean_ll > uniform_ll,
        "mean log-likelihood {mean_ll} not above uniform {uniform_ll}"
    );
}

#[test]
fn learned_spns_flatten_and_serve_queries() {
    // The learners feed the serving/benchmark stack: their output must
    // survive flattening and answer marginal queries consistently.
    let mut rng = StdRng::seed_from_u64(11);
    let data = synthetic(5, 300, Structure::Chain, &mut rng);
    for spn in [
        ChowLiuTree::learn(&data).to_spn(),
        learn_spn(&data, &LearnSpnOptions::default()),
    ] {
        let ops = spn_core::flatten::OpList::from_spn(&spn);
        let mut evidence = Evidence::marginal(5);
        evidence.observe(2, true);
        let flat = ops.evaluate(&evidence).unwrap();
        let reference = spn.evaluate(&evidence).unwrap();
        assert!(
            (flat - reference).abs() < 1e-9 * reference.abs().max(1e-12),
            "flattened {flat} vs graph {reference}"
        );
    }
}
