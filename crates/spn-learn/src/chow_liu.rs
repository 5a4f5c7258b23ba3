//! Chow-Liu tree learning and its compilation to an SPN.
//!
//! A Chow-Liu tree is the maximum-likelihood tree-shaped Bayesian network: it
//! is the maximum spanning tree of the pairwise mutual-information graph.
//! Tree-shaped models compile to compact SPNs, which makes them both a useful
//! leaf distribution for LearnSPN-style learners and a simple end-to-end
//! example of the "model → circuit → processor" flow of the paper.

use spn_core::{NodeId, Spn, SpnBuilder, VarId};

use crate::dataset::Dataset;

/// A tree-shaped Bayesian network over binary variables.
#[derive(Debug, Clone, PartialEq)]
pub struct ChowLiuTree {
    /// Number of variables.
    pub num_vars: usize,
    /// The root variable.
    pub root: usize,
    /// `parent[v]` is the parent variable of `v` (`None` for the root).
    pub parent: Vec<Option<usize>>,
    /// `P(v = true | parent value)`, indexed `[v][parent_value as usize]`;
    /// for the root both entries hold the marginal.
    pub cpt: Vec<[f64; 2]>,
}

impl ChowLiuTree {
    /// Learns a Chow-Liu tree from `data` (rooted at variable 0).
    ///
    /// # Panics
    ///
    /// Panics if `data` has no variables.
    pub fn learn(data: &Dataset) -> ChowLiuTree {
        let n = data.num_vars();
        assert!(n > 0, "cannot learn a tree over zero variables");

        // Maximum spanning tree over mutual information (Prim's algorithm).
        let mut in_tree = vec![false; n];
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut best_gain = vec![f64::NEG_INFINITY; n];
        let mut best_link = vec![0usize; n];
        in_tree[0] = true;
        for v in 1..n {
            best_gain[v] = data.mutual_information(0, v);
            best_link[v] = 0;
        }
        for _ in 1..n {
            let next = (0..n)
                .filter(|&v| !in_tree[v])
                .max_by(|&a, &b| best_gain[a].partial_cmp(&best_gain[b]).unwrap())
                .expect("some variable remains");
            in_tree[next] = true;
            parent[next] = Some(best_link[next]);
            for v in 0..n {
                if !in_tree[v] {
                    let gain = data.mutual_information(next, v);
                    if gain > best_gain[v] {
                        best_gain[v] = gain;
                        best_link[v] = next;
                    }
                }
            }
        }

        // Conditional probability tables with Laplace smoothing.
        let mut cpt = vec![[0.5, 0.5]; n];
        for v in 0..n {
            match parent[v] {
                None => {
                    let p = data.marginal(v);
                    cpt[v] = [p, p];
                }
                Some(u) => {
                    for (pv, slot) in [(false, 0usize), (true, 1usize)] {
                        let joint_true = data.joint(v, true, u, pv);
                        let joint_false = data.joint(v, false, u, pv);
                        cpt[v][slot] = joint_true / (joint_true + joint_false);
                    }
                }
            }
        }
        ChowLiuTree {
            num_vars: n,
            root: 0,
            parent,
            cpt,
        }
    }

    /// Log-likelihood of a fully observed row under the tree.
    pub fn log_likelihood_row(&self, row: &[bool]) -> f64 {
        let mut ll = 0.0;
        for v in 0..self.num_vars {
            let p_true = match self.parent[v] {
                None => self.cpt[v][0],
                Some(u) => self.cpt[v][usize::from(row[u])],
            };
            let p = if row[v] { p_true } else { 1.0 - p_true };
            ll += p.ln();
        }
        ll
    }

    /// Average log-likelihood over a dataset.
    pub fn log_likelihood(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        data.rows()
            .iter()
            .map(|r| self.log_likelihood_row(r))
            .sum::<f64>()
            / data.num_rows() as f64
    }

    /// Compiles the tree into an SPN over the same variables.
    ///
    /// The construction follows the classical BN-to-AC compilation for trees:
    /// for every variable we build, per parent value, a sum over its two
    /// indicator leaves weighted by the CPT, multiplied with the sub-circuits
    /// of its children conditioned on that value.
    pub fn to_spn(&self) -> Spn {
        // children[v] = variables whose parent is v.
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.num_vars];
        for v in 0..self.num_vars {
            if let Some(u) = self.parent[v] {
                children[u].push(v);
            }
        }
        let mut builder = SpnBuilder::new(self.num_vars);
        // Build bottom-up in reverse topological order (children before
        // parents); circuit[v][pv] is the sub-circuit for the subtree rooted
        // at v given that v's parent takes value pv.
        let order = self.topological_order(&children);
        let mut circuit: Vec<[Option<NodeId>; 2]> = vec![[None, None]; self.num_vars];
        for &v in order.iter().rev() {
            let ind_true = builder.indicator(VarId(v as u32), true);
            let ind_false = builder.indicator(VarId(v as u32), false);
            // The root has no parent, so only its pv = 0 slot is ever read;
            // building the pv = 1 twin would leave unreachable nodes in the
            // circuit (flagged as SPN004 by `spn_core::analysis::lint_spn`).
            let parent_values = if v == self.root { 1 } else { 2 };
            for pv in 0..parent_values {
                let p_true = self.cpt[v][pv];
                // Branch for v = true / false, each multiplied with the
                // children conditioned on that value of v.
                let mut branches = Vec::with_capacity(2);
                for (value, indicator, weight) in
                    [(true, ind_true, p_true), (false, ind_false, 1.0 - p_true)]
                {
                    let mut factors = vec![indicator];
                    for &c in &children[v] {
                        factors.push(circuit[c][usize::from(value)].expect("child built first"));
                    }
                    let product = if factors.len() == 1 {
                        factors[0]
                    } else {
                        builder.product(factors).expect("non-empty product")
                    };
                    branches.push((product, weight));
                }
                let sum = builder.sum(branches).expect("two branches");
                circuit[v][pv] = Some(sum);
            }
        }
        let root = circuit[self.root][0].expect("root built");
        builder.finish(root).expect("root exists")
    }

    fn topological_order(&self, children: &[Vec<usize>]) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.num_vars);
        let mut stack = vec![self.root];
        while let Some(v) = stack.pop() {
            order.push(v);
            stack.extend(children[v].iter().copied());
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{synthetic, Structure};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spn_core::analysis::{lint_spn, max_severity};
    use spn_core::{Evidence, Severity};

    #[test]
    fn learns_chain_structure_from_chain_data() {
        let mut rng = StdRng::seed_from_u64(4);
        let data = synthetic(6, 1500, Structure::Chain, &mut rng);
        let tree = ChowLiuTree::learn(&data);
        // In chain data each non-root variable's parent should be a neighbour.
        for v in 1..6 {
            let parent = tree.parent[v].unwrap();
            assert!(
                parent + 1 == v || v + 1 == parent || parent == v - 1,
                "variable {v} got parent {parent}"
            );
        }
    }

    #[test]
    fn compiled_spn_is_valid_and_normalized() {
        let mut rng = StdRng::seed_from_u64(5);
        let data = synthetic(7, 500, Structure::Clustered { clusters: 2 }, &mut rng);
        let tree = ChowLiuTree::learn(&data);
        let spn = tree.to_spn();
        let diags = lint_spn(&spn);
        assert!(max_severity(&diags) < Some(Severity::Warn), "{diags:?}");
        let z = spn.evaluate(&Evidence::marginal(7)).unwrap();
        assert!((z - 1.0).abs() < 1e-9);
    }

    #[test]
    fn spn_matches_tree_likelihood() {
        let mut rng = StdRng::seed_from_u64(6);
        let data = synthetic(5, 400, Structure::Chain, &mut rng);
        let tree = ChowLiuTree::learn(&data);
        let spn = tree.to_spn();
        for row in data.rows().iter().take(20) {
            let p_spn = spn.evaluate(&Evidence::from_assignment(row)).unwrap();
            let ll_tree = tree.log_likelihood_row(row);
            assert!((p_spn.ln() - ll_tree).abs() < 1e-9);
        }
    }

    #[test]
    fn tree_model_beats_independence_on_correlated_data() {
        let mut rng = StdRng::seed_from_u64(7);
        let data = synthetic(8, 1000, Structure::Chain, &mut rng);
        let (train, test) = data.split(0.8);
        let tree = ChowLiuTree::learn(&train);
        // Independence baseline: same learner on shuffled-column data is not
        // available, so compare against the product of marginals directly.
        let independent_ll: f64 = test
            .rows()
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(v, &b)| {
                        let p = train.marginal(v);
                        if b {
                            p.ln()
                        } else {
                            (1.0 - p).ln()
                        }
                    })
                    .sum::<f64>()
            })
            .sum::<f64>()
            / test.num_rows() as f64;
        assert!(tree.log_likelihood(&test) > independent_ll);
    }

    #[test]
    fn single_variable_tree() {
        let data = Dataset::new(1, vec![vec![true], vec![false], vec![true]]);
        let tree = ChowLiuTree::learn(&data);
        let spn = tree.to_spn();
        let diags = lint_spn(&spn);
        assert!(max_severity(&diags) < Some(Severity::Warn), "{diags:?}");
        assert_eq!(tree.parent[0], None);
    }
}
