//! Structural statistics of SPNs and their flattened programs.
//!
//! These numbers drive the performance models: operation count and critical
//! path determine the upper bound on parallel speedup, while fanout and group
//! sizes determine how irregular the memory traffic is.

use serde::{Deserialize, Serialize};

use crate::flatten::OpList;
use crate::graph::{Node, Spn};
use crate::levelize::Levelization;

/// Summary statistics of an SPN graph and its flattened form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpnStats {
    /// Number of binary variables.
    pub num_vars: usize,
    /// Reachable sum nodes.
    pub num_sums: usize,
    /// Reachable product nodes.
    pub num_products: usize,
    /// Reachable leaf nodes (indicators and constants).
    pub num_leaves: usize,
    /// Depth of the DAG in nodes (longest leaf-to-root path).
    pub depth: usize,
    /// Largest number of parents of any node.
    pub max_fanout: usize,
    /// Mean number of parents over nodes with at least one parent.
    pub mean_fanout: f64,
    /// Binary operations after flattening (Algorithm 1 length).
    pub num_ops: usize,
    /// Input slots after flattening (indicators + parameters).
    pub num_inputs: usize,
    /// Number of dependency groups of the flattened program.
    pub num_groups: usize,
    /// Largest dependency group (peak parallelism).
    pub max_group_size: usize,
    /// Mean dependency-group size.
    pub mean_group_size: f64,
}

impl SpnStats {
    /// Computes statistics for `spn`.
    pub fn from_spn(spn: &Spn) -> SpnStats {
        let ops = OpList::from_spn(spn);
        SpnStats::from_spn_and_ops(spn, &ops)
    }

    /// Computes statistics when the flattened program is already available.
    pub(crate) fn from_spn_and_ops(spn: &Spn, ops: &OpList) -> SpnStats {
        let (num_sums, num_products, num_leaves) = spn.reachable_counts();
        let order = spn.topological_order();
        let mut depth_of = vec![0usize; spn.num_nodes()];
        let mut depth = 0;
        for &id in &order {
            let d = match spn.node(id) {
                Node::Indicator { .. } | Node::Constant(_) => 1,
                node => {
                    1 + node
                        .children()
                        .iter()
                        .map(|c| depth_of[c.index()])
                        .max()
                        .unwrap_or(0)
                }
            };
            depth_of[id.index()] = d;
            depth = depth.max(d);
        }
        let fanout = spn.fanout();
        let parents: Vec<usize> = order
            .iter()
            .map(|id| fanout[id.index()])
            .filter(|&f| f > 0)
            .collect();
        let max_fanout = parents.iter().copied().max().unwrap_or(0);
        let mean_fanout = if parents.is_empty() {
            0.0
        } else {
            parents.iter().sum::<usize>() as f64 / parents.len() as f64
        };
        let lev = Levelization::from_op_list(ops);
        SpnStats {
            num_vars: spn.num_vars(),
            num_sums,
            num_products,
            num_leaves,
            depth,
            max_fanout,
            mean_fanout,
            num_ops: ops.num_ops(),
            num_inputs: ops.num_inputs(),
            num_groups: lev.num_groups(),
            max_group_size: lev.max_group_size(),
            mean_group_size: lev.mean_group_size(),
        }
    }

    /// Total reachable nodes in the SPN graph.
    pub fn num_nodes(&self) -> usize {
        self.num_sums + self.num_products + self.num_leaves
    }
}

impl std::fmt::Display for SpnStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "vars={} nodes={} (S={} P={} L={}) depth={} ops={} groups={} max_group={}",
            self.num_vars,
            self.num_nodes(),
            self.num_sums,
            self.num_products,
            self.num_leaves,
            self.depth,
            self.num_ops,
            self.num_groups,
            self.max_group_size,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{random_spn, RandomSpnConfig};
    use crate::{SpnBuilder, VarId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stats_of_small_known_spn() {
        let mut b = SpnBuilder::new(2);
        let x0 = b.indicator(VarId(0), true);
        let nx0 = b.indicator(VarId(0), false);
        let x1 = b.indicator(VarId(1), true);
        let nx1 = b.indicator(VarId(1), false);
        let p0 = b.product(vec![x0, x1]).unwrap();
        let p1 = b.product(vec![nx0, nx1]).unwrap();
        let root = b.sum(vec![(p0, 0.3), (p1, 0.7)]).unwrap();
        let spn = b.finish(root).unwrap();
        let stats = SpnStats::from_spn(&spn);
        assert_eq!(stats.num_vars, 2);
        assert_eq!(stats.num_sums, 1);
        assert_eq!(stats.num_products, 2);
        assert_eq!(stats.num_leaves, 4);
        assert_eq!(stats.num_nodes(), 7);
        assert_eq!(stats.depth, 3);
        assert_eq!(stats.num_ops, 5);
        assert!(stats.max_fanout >= 1);
        assert!(!stats.to_string().is_empty());
    }

    #[test]
    fn stats_scale_with_spn_size() {
        let mut rng = StdRng::seed_from_u64(21);
        let small = SpnStats::from_spn(&random_spn(&RandomSpnConfig::with_vars(4), &mut rng));
        let large = SpnStats::from_spn(&random_spn(&RandomSpnConfig::with_vars(40), &mut rng));
        assert!(large.num_ops > small.num_ops);
        assert!(large.num_groups >= small.num_groups);
        assert!(large.depth >= small.depth);
    }

    #[test]
    fn group_stats_are_internally_consistent() {
        let mut rng = StdRng::seed_from_u64(22);
        let spn = random_spn(&RandomSpnConfig::with_vars(16), &mut rng);
        let stats = SpnStats::from_spn(&spn);
        assert!(stats.max_group_size as f64 >= stats.mean_group_size);
        assert!(stats.num_groups <= stats.num_ops);
        assert!(stats.mean_fanout >= 1.0);
    }
}
