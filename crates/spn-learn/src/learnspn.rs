//! A LearnSPN-style recursive structure learner.
//!
//! The learner follows the classical LearnSPN recipe:
//!
//! 1. if the current slice has a single variable, emit a smoothed Bernoulli
//!    leaf (a sum over the two indicators);
//! 2. otherwise try to split the *variables* into groups that are (almost)
//!    mutually independent — each group becomes a child of a product node;
//! 3. if no independent split exists, cluster the *rows* into two groups —
//!    each cluster becomes a child of a sum node weighted by its share of the
//!    rows;
//! 4. when too few rows remain, fall back to a fully factorised leaf.
//!
//! The produced circuits are complete and decomposable by construction and
//! their size/shape scales with the amount of structure in the data, which is
//! what the throughput experiments of the paper depend on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spn_core::{NodeId, Spn, SpnBuilder, VarId};

use crate::dataset::{Dataset, RowMask};

/// Tuning knobs of the learner.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnSpnOptions {
    /// Mutual-information threshold below which two variables are considered
    /// independent.
    pub independence_threshold: f64,
    /// Stop clustering and factorise when fewer rows than this remain.
    pub min_rows: usize,
    /// Maximum recursion depth (safety bound; the data usually stops earlier).
    pub max_depth: usize,
    /// Seed for the row-clustering initialisation.
    pub seed: u64,
}

impl Default for LearnSpnOptions {
    fn default() -> Self {
        LearnSpnOptions {
            independence_threshold: 0.02,
            min_rows: 20,
            max_depth: 64,
            seed: 7,
        }
    }
}

/// Learns an SPN from `data`.
///
/// # Panics
///
/// Panics if the dataset has no variables.
pub fn learn_spn(data: &Dataset, options: &LearnSpnOptions) -> Spn {
    assert!(
        data.num_vars() > 0,
        "dataset must have at least one variable"
    );
    let mut builder = SpnBuilder::new(data.num_vars());
    let mut rng = StdRng::seed_from_u64(options.seed);
    let vars: Vec<usize> = (0..data.num_vars()).collect();
    let rows: Vec<usize> = (0..data.num_rows()).collect();
    let root = build(&mut builder, data, &vars, &rows, options, 0, &mut rng);
    builder.finish(root).expect("root was created")
}

fn build(
    builder: &mut SpnBuilder,
    data: &Dataset,
    vars: &[usize],
    rows: &[usize],
    options: &LearnSpnOptions,
    depth: usize,
    rng: &mut StdRng,
) -> NodeId {
    let mask = RowMask::new(data, rows);
    if vars.len() == 1 {
        return bernoulli_leaf(builder, data, vars[0], &mask);
    }
    if rows.len() < options.min_rows || depth >= options.max_depth {
        return factorized_leaf(builder, data, vars, &mask);
    }

    // Try a variable split into independent groups.
    let groups = independent_groups(data, vars, &mask, options.independence_threshold);
    if groups.len() > 1 {
        let mut children = Vec::with_capacity(groups.len());
        for group in groups {
            children.push(build(builder, data, &group, rows, options, depth + 1, rng));
        }
        return builder.product(children).expect("groups are non-empty");
    }

    // Otherwise split the rows into two clusters.
    let (left, right) = cluster_rows(data, vars, rows, rng);
    if left.is_empty() || right.is_empty() {
        return factorized_leaf(builder, data, vars, &mask);
    }
    let w_left = left.len() as f64 / rows.len() as f64;
    let left_child = build(builder, data, vars, &left, options, depth + 1, rng);
    let right_child = build(builder, data, vars, &right, options, depth + 1, rng);
    builder
        .sum(vec![(left_child, w_left), (right_child, 1.0 - w_left)])
        .expect("two children")
}

/// A smoothed Bernoulli over a single variable.
fn bernoulli_leaf(builder: &mut SpnBuilder, data: &Dataset, var: usize, rows: &RowMask) -> NodeId {
    let p = rows.marginal(data, var);
    let t = builder.indicator(VarId(var as u32), true);
    let f = builder.indicator(VarId(var as u32), false);
    builder.sum(vec![(t, p), (f, 1.0 - p)]).expect("two leaves")
}

/// A product of Bernoulli leaves (full independence assumption).
fn factorized_leaf(
    builder: &mut SpnBuilder,
    data: &Dataset,
    vars: &[usize],
    rows: &RowMask,
) -> NodeId {
    let children: Vec<NodeId> = vars
        .iter()
        .map(|&v| bernoulli_leaf(builder, data, v, rows))
        .collect();
    if children.len() == 1 {
        children[0]
    } else {
        builder.product(children).expect("non-empty")
    }
}

/// Partitions `vars` into connected components of the "dependent" graph
/// (edges where mutual information over the node's `rows` exceeds the
/// threshold).
fn independent_groups(
    data: &Dataset,
    vars: &[usize],
    rows: &RowMask,
    threshold: f64,
) -> Vec<Vec<usize>> {
    let n = vars.len();
    let counted: Vec<(usize, usize)> = vars.iter().map(|&v| (v, rows.ones(data, v))).collect();
    let mut component: Vec<usize> = (0..n).collect();
    fn find(component: &mut Vec<usize>, i: usize) -> usize {
        if component[i] != i {
            let root = find(component, component[i]);
            component[i] = root;
        }
        component[i]
    }
    for i in 0..n {
        for j in (i + 1)..n {
            let mi = rows
                .counts(data, counted[i], counted[j])
                .mutual_information();
            if mi > threshold {
                let (a, b) = (find(&mut component, i), find(&mut component, j));
                if a != b {
                    component[a] = b;
                }
            }
        }
    }
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, &var) in vars.iter().enumerate().take(n) {
        let root = find(&mut component, i);
        groups[root].push(var);
    }
    groups.retain(|g| !g.is_empty());
    groups
}

/// Splits `rows` into two clusters with a single k-means-style pass seeded by
/// two random prototype rows (hamming distance on the current variable set).
fn cluster_rows(
    data: &Dataset,
    vars: &[usize],
    rows: &[usize],
    rng: &mut StdRng,
) -> (Vec<usize>, Vec<usize>) {
    let a = rows[rng.gen_range(0..rows.len())];
    let mut b = rows[rng.gen_range(0..rows.len())];
    // Try to pick distinct prototypes.
    for _ in 0..8 {
        if distance(data, vars, a, b) > 0 {
            break;
        }
        b = rows[rng.gen_range(0..rows.len())];
    }
    let mut left = Vec::new();
    let mut right = Vec::new();
    for &r in rows {
        if distance(data, vars, r, a) <= distance(data, vars, r, b) {
            left.push(r);
        } else {
            right.push(r);
        }
    }
    (left, right)
}

fn distance(data: &Dataset, vars: &[usize], r1: usize, r2: usize) -> usize {
    vars.iter()
        .filter(|&&v| data.rows()[r1][v] != data.rows()[r2][v])
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{synthetic, Structure};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spn_core::analysis::{lint_spn, max_severity};
    use spn_core::{Evidence, Severity};

    fn options() -> LearnSpnOptions {
        LearnSpnOptions::default()
    }

    #[test]
    fn learned_spn_is_valid_and_normalized() {
        let mut rng = StdRng::seed_from_u64(8);
        for structure in [
            Structure::Independent,
            Structure::Chain,
            Structure::Clustered { clusters: 3 },
        ] {
            let data = synthetic(10, 400, structure, &mut rng);
            let spn = learn_spn(&data, &options());
            let diags = lint_spn(&spn);
            assert!(
                max_severity(&diags) < Some(Severity::Warn),
                "{structure:?}: {diags:?}"
            );
            let z = spn.evaluate(&Evidence::marginal(10)).unwrap();
            assert!((z - 1.0).abs() < 1e-6, "{structure:?}: z = {z}");
        }
    }

    #[test]
    fn independent_data_yields_shallow_factorized_circuits() {
        let mut rng = StdRng::seed_from_u64(9);
        let data = synthetic(12, 600, Structure::Independent, &mut rng);
        let spn = learn_spn(&data, &options());
        let stats = spn_core::stats::SpnStats::from_spn(&spn);
        // Independence should be detected near the top: circuit stays small.
        assert!(stats.num_nodes() < 200, "{stats}");
    }

    #[test]
    fn clustered_data_yields_mixtures() {
        let mut rng = StdRng::seed_from_u64(10);
        let data = synthetic(12, 600, Structure::Clustered { clusters: 4 }, &mut rng);
        let spn = learn_spn(&data, &options());
        let (sums, _, _) = spn.reachable_counts();
        assert!(sums > 12, "expected mixture structure, got {sums} sums");
    }

    #[test]
    fn learned_model_fits_training_distribution() {
        let mut rng = StdRng::seed_from_u64(11);
        let data = synthetic(8, 800, Structure::Clustered { clusters: 2 }, &mut rng);
        let (train, test) = data.split(0.8);
        let spn = learn_spn(&train, &options());
        // Average test log-likelihood must beat a uniform model by a margin.
        let uniform = -(8.0 * std::f64::consts::LN_2);
        let ll: f64 = test
            .rows()
            .iter()
            .map(|row| {
                spn.evaluate(&Evidence::from_assignment(row))
                    .unwrap()
                    .max(1e-300)
                    .ln()
            })
            .sum::<f64>()
            / test.num_rows() as f64;
        assert!(
            ll > uniform,
            "log-likelihood {ll} not better than uniform {uniform}"
        );
    }

    #[test]
    fn circuit_size_grows_with_structure() {
        let mut rng = StdRng::seed_from_u64(12);
        let independent = synthetic(16, 500, Structure::Independent, &mut rng);
        let clustered = synthetic(16, 500, Structure::Clustered { clusters: 6 }, &mut rng);
        let small = learn_spn(&independent, &options());
        let large = learn_spn(&clustered, &options());
        assert!(large.num_nodes() > small.num_nodes());
    }
}
