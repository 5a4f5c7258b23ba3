//! Random generation of valid sum-product networks.
//!
//! The generators produce SPNs that are complete, decomposable and normalised
//! by construction, with a controllable amount of node sharing (DAG fanout) —
//! the property that makes SPN execution irregular and is the whole point of
//! the paper's architecture.  They follow the recursive region-graph recipe
//! also used by random sum-product networks (RAT-SPNs): a sum node mixes
//! several factorisations of its scope, and each factorisation partitions the
//! scope into disjoint parts that are generated recursively.
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use spn_core::random::{random_spn, RandomSpnConfig};
//! use spn_core::analysis::{lint_spn, max_severity};
//! use spn_core::{Evidence, Severity};
//!
//! # fn main() -> Result<(), spn_core::SpnError> {
//! let mut rng = StdRng::seed_from_u64(42);
//! let spn = random_spn(&RandomSpnConfig { num_vars: 10, ..Default::default() }, &mut rng);
//! assert!(max_severity(&lint_spn(&spn)) < Some(Severity::Warn));
//! let z = spn.evaluate(&Evidence::marginal(10))?;
//! assert!((z - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::graph::{NodeId, Spn, SpnBuilder, VarId};

/// Parameters of the random SPN generator.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomSpnConfig {
    /// Number of binary variables the SPN ranges over.
    pub num_vars: usize,
    /// Minimum number of children of every internal sum node.
    pub min_sum_children: usize,
    /// Maximum number of children of every internal sum node.
    pub max_sum_children: usize,
    /// Maximum number of parts a product node splits its scope into.
    pub max_product_parts: usize,
    /// Probability of reusing an existing sub-circuit over the same scope
    /// instead of generating a fresh one (creates DAG sharing).
    pub reuse_probability: f64,
    /// Number of alternative leaf distributions kept per variable.
    pub leaf_pool_size: usize,
}

impl Default for RandomSpnConfig {
    fn default() -> Self {
        RandomSpnConfig {
            num_vars: 8,
            min_sum_children: 2,
            max_sum_children: 3,
            max_product_parts: 2,
            reuse_probability: 0.35,
            leaf_pool_size: 2,
        }
    }
}

impl RandomSpnConfig {
    /// Convenience constructor fixing only the variable count.
    pub fn with_vars(num_vars: usize) -> Self {
        RandomSpnConfig {
            num_vars,
            ..Default::default()
        }
    }
}

/// Generates a random valid SPN according to `config`.
///
/// # Panics
///
/// Panics if `config.num_vars` is zero or the child/part bounds are
/// inconsistent (e.g. `min_sum_children > max_sum_children`).
pub fn random_spn<R: Rng + ?Sized>(config: &RandomSpnConfig, rng: &mut R) -> Spn {
    assert!(config.num_vars > 0, "an SPN needs at least one variable");
    assert!(
        config.min_sum_children >= 1 && config.min_sum_children <= config.max_sum_children,
        "invalid sum child bounds"
    );
    assert!(
        config.max_product_parts >= 2,
        "products need at least two parts"
    );

    let mut gen = Generator {
        builder: SpnBuilder::new(config.num_vars),
        config,
        scope_pool: HashMap::new(),
        leaf_pool: HashMap::new(),
    };
    let scope: Vec<u32> = (0..config.num_vars as u32).collect();
    let root = gen.distribution_over(&scope, rng);
    gen.builder.finish(root).expect("root was just created")
}

/// Builds a deterministic deep-chain SPN over one variable: a Bernoulli base
/// mixture followed by `levels` stacked one-over-the-other sum nodes, each
/// mixing the previous level with itself under two weights of `weight`.
///
/// With `weight ≤ 1e-3` the circuit value decays by `2 × weight` per level,
/// so a chain of a few hundred levels underflows `f64` in the linear domain
/// (the probability flushes to exactly `0.0`) while the log-domain value
/// stays finite at `ln 0.5 + levels × ln(2 × weight)` under full evidence —
/// the underflow-parity workload of the numeric-mode tests and benchmarks.
///
/// The SPN has `levels + 3` nodes (two indicators, the base mixture, one sum
/// per level); pass `levels ≥ 1000` for a ≥ 1k-node circuit.  The sum
/// weights are deliberately sub-normalised (they sum to `2 × weight`, not
/// one), exactly like the unnormalised arithmetic circuits deep compilation
/// pipelines emit.
///
/// # Panics
///
/// Panics when `weight` is not a positive finite number.
pub fn deep_chain_spn(levels: usize, weight: f64) -> Spn {
    assert!(
        weight.is_finite() && weight > 0.0,
        "chain weight must be positive and finite"
    );
    let mut b = SpnBuilder::new(1);
    let t = b.indicator(VarId(0), true);
    let f = b.indicator(VarId(0), false);
    let mut prev = b
        .sum(vec![(t, 0.5), (f, 0.5)])
        .expect("base mixture is valid");
    for _ in 0..levels {
        prev = b
            .sum(vec![(prev, weight), (prev, weight)])
            .expect("chain link is valid");
    }
    b.finish(prev).expect("chain root exists")
}

struct Generator<'a> {
    builder: SpnBuilder,
    config: &'a RandomSpnConfig,
    /// Previously generated sub-circuits per (sorted) scope, for reuse.
    scope_pool: HashMap<Vec<u32>, Vec<NodeId>>,
    /// Leaf (single-variable) distribution pool per variable.
    leaf_pool: HashMap<u32, Vec<NodeId>>,
}

impl Generator<'_> {
    fn distribution_over<R: Rng + ?Sized>(&mut self, scope: &[u32], rng: &mut R) -> NodeId {
        if scope.len() == 1 {
            return self.leaf_distribution(scope[0], rng);
        }
        // Possibly reuse an existing sub-circuit over exactly this scope.
        if rng.gen_bool(self.config.reuse_probability) {
            if let Some(pool) = self.scope_pool.get(scope) {
                if let Some(&id) = pool.choose(rng) {
                    return id;
                }
            }
        }

        let num_children =
            rng.gen_range(self.config.min_sum_children..=self.config.max_sum_children);
        let mut children = Vec::with_capacity(num_children);
        for _ in 0..num_children {
            children.push(self.factorization_over(scope, rng));
        }
        let weights = random_weights(children.len(), rng);
        let id = self
            .builder
            .sum(children.into_iter().zip(weights).collect())
            .expect("children exist");
        self.scope_pool.entry(scope.to_vec()).or_default().push(id);
        id
    }

    fn factorization_over<R: Rng + ?Sized>(&mut self, scope: &[u32], rng: &mut R) -> NodeId {
        let parts = partition_scope(scope, self.config.max_product_parts, rng);
        let mut children = Vec::with_capacity(parts.len());
        for part in &parts {
            children.push(self.distribution_over(part, rng));
        }
        if children.len() == 1 {
            return children[0];
        }
        self.builder.product(children).expect("children exist")
    }

    fn leaf_distribution<R: Rng + ?Sized>(&mut self, var: u32, rng: &mut R) -> NodeId {
        let pool_size = self.config.leaf_pool_size.max(1);
        let pool = self.leaf_pool.entry(var).or_default();
        if pool.len() >= pool_size {
            return *pool.choose(rng).expect("pool is non-empty");
        }
        let p = rng.gen_range(0.05..0.95);
        let t = self.builder.indicator(VarId(var), true);
        let f = self.builder.indicator(VarId(var), false);
        let id = self
            .builder
            .sum(vec![(t, p), (f, 1.0 - p)])
            .expect("children exist");
        self.leaf_pool.entry(var).or_default().push(id);
        id
    }
}

/// Splits `scope` into 2..=`max_parts` random non-empty disjoint parts,
/// each kept in ascending order.
fn partition_scope<R: Rng + ?Sized>(scope: &[u32], max_parts: usize, rng: &mut R) -> Vec<Vec<u32>> {
    let max_parts = max_parts.min(scope.len()).max(2);
    let num_parts = if scope.len() == 2 {
        2
    } else {
        rng.gen_range(2..=max_parts)
    };
    let mut shuffled: Vec<u32> = scope.to_vec();
    shuffled.shuffle(rng);
    let mut parts: Vec<Vec<u32>> = vec![Vec::new(); num_parts];
    // Guarantee every part is non-empty, then distribute the rest randomly.
    for (i, &v) in shuffled.iter().take(num_parts).enumerate() {
        parts[i].push(v);
    }
    for &v in shuffled.iter().skip(num_parts) {
        parts[rng.gen_range(0..num_parts)].push(v);
    }
    for part in &mut parts {
        part.sort_unstable();
    }
    parts
}

/// Draws `n` random weights summing to one.
fn random_weights<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<f64> {
    let raw: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..1.0)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{lint_spn, max_severity, Severity};
    use crate::Evidence;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_spns_are_valid_and_normalized() {
        let mut rng = StdRng::seed_from_u64(1);
        for num_vars in [1, 2, 5, 12, 24] {
            let cfg = RandomSpnConfig::with_vars(num_vars);
            let spn = random_spn(&cfg, &mut rng);
            let diags = lint_spn(&spn);
            assert!(
                max_severity(&diags) < Some(Severity::Warn),
                "vars={num_vars}: {diags:?}"
            );
            let z = spn.evaluate(&Evidence::marginal(num_vars)).unwrap();
            assert!((z - 1.0).abs() < 1e-9, "vars={num_vars}, z={z}");
        }
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let cfg = RandomSpnConfig::with_vars(10);
        let a = random_spn(&cfg, &mut StdRng::seed_from_u64(99));
        let b = random_spn(&cfg, &mut StdRng::seed_from_u64(99));
        assert_eq!(a, b);
        let c = random_spn(&cfg, &mut StdRng::seed_from_u64(100));
        assert_ne!(a, c);
    }

    #[test]
    fn reuse_creates_shared_nodes() {
        let cfg = RandomSpnConfig {
            num_vars: 16,
            reuse_probability: 0.8,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let spn = random_spn(&cfg, &mut rng);
        let max_fanout = spn.fanout().into_iter().max().unwrap_or(0);
        assert!(max_fanout > 1, "expected at least one shared node");
    }

    #[test]
    fn partition_covers_scope_exactly() {
        let mut rng = StdRng::seed_from_u64(5);
        let scope: Vec<u32> = (0..9).collect();
        for _ in 0..50 {
            let parts = partition_scope(&scope, 4, &mut rng);
            assert!(parts.len() >= 2);
            let mut all: Vec<u32> = parts.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, scope);
            assert!(parts.iter().all(|p| !p.is_empty()));
        }
    }

    #[test]
    fn random_weights_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(6);
        for n in 1..6 {
            let w = random_weights(n, &mut rng);
            assert_eq!(w.len(), n);
            assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn size_grows_with_variable_count() {
        let mut rng = StdRng::seed_from_u64(7);
        let small = random_spn(&RandomSpnConfig::with_vars(4), &mut rng);
        let large = random_spn(&RandomSpnConfig::with_vars(64), &mut rng);
        assert!(large.num_nodes() > small.num_nodes() * 4);
    }

    #[test]
    #[should_panic(expected = "at least one variable")]
    fn zero_variables_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = random_spn(&RandomSpnConfig::with_vars(0), &mut rng);
    }

    #[test]
    fn deep_chain_underflows_linear_but_not_log() {
        let spn = deep_chain_spn(1200, 1e-3);
        assert!(spn.num_nodes() >= 1000);
        let e = crate::Evidence::from_assignment(&[true]);
        // Linear evaluation flushes to exactly zero...
        assert_eq!(spn.evaluate(&e).unwrap(), 0.0);
        // ...while the log-domain value is finite and matches closed form:
        // ln 0.5 + levels · ln(2w).
        let log = spn.evaluate_log(&e).unwrap().ln();
        let expected = 0.5f64.ln() + 1200.0 * (2.0 * 1e-3f64).ln();
        assert!(log.is_finite());
        assert!(
            (log - expected).abs() < 1e-6 * expected.abs(),
            "{log} vs {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn deep_chain_rejects_bad_weight() {
        let _ = deep_chain_spn(3, 0.0);
    }
}
