//! Decomposition of flattened SPN programs into dependency groups.
//!
//! The CUDA implementation in the paper (sec. III) cannot let threads consume
//! values produced by other threads in the same launch step, so the SPN is
//! decomposed into *groups* of mutually independent operations; threads
//! synchronise between groups with `__syncthreads()`.  A group is simply an
//! ASAP level of the operation DAG: every operation whose operands are all
//! inputs or results of earlier groups.
//!
//! The same decomposition doubles as a parallelism profile of the circuit:
//! the number of groups is the critical-path length and the group sizes are
//! the available data parallelism per step.

use serde::{Deserialize, Serialize};

use crate::flatten::{OpList, OperandRef};

/// The operations of a flattened program partitioned into dependency levels.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Levelization {
    /// `level[i]` is the dependency level (group index) of operation `i`.
    pub level_of_op: Vec<usize>,
    /// `groups[l]` lists the operation indices belonging to level `l`,
    /// in ascending order.
    pub groups: Vec<Vec<usize>>,
}

impl Levelization {
    /// Computes the ASAP levelisation of `ops`.
    pub fn from_op_list(ops: &OpList) -> Levelization {
        let mut level_of_op = vec![0usize; ops.num_ops()];
        for (i, op) in ops.ops().iter().enumerate() {
            let lvl = |r: OperandRef, level_of_op: &[usize]| -> usize {
                match r {
                    OperandRef::Input(_) => 0,
                    OperandRef::Op(j) => level_of_op[j as usize] + 1,
                }
            };
            level_of_op[i] = lvl(op.lhs, &level_of_op).max(lvl(op.rhs, &level_of_op));
        }
        let num_levels = level_of_op.iter().copied().max().map_or(0, |m| m + 1);
        let mut groups = vec![Vec::new(); num_levels];
        for (i, &l) in level_of_op.iter().enumerate() {
            groups[l].push(i);
        }
        Levelization {
            level_of_op,
            groups,
        }
    }

    /// Number of dependency groups (the critical-path length in operations).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Size of the largest group (peak data parallelism).
    pub(crate) fn max_group_size(&self) -> usize {
        self.groups.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Average group size (mean parallelism); zero for empty programs.
    pub(crate) fn mean_group_size(&self) -> f64 {
        if self.groups.is_empty() {
            return 0.0;
        }
        let total: usize = self.groups.iter().map(Vec::len).sum();
        total as f64 / self.groups.len() as f64
    }

    /// Iterates over groups in dependency order.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.groups.iter().map(Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flatten::OpList;
    use crate::random::{random_spn, RandomSpnConfig};
    use crate::{Evidence, SpnBuilder, VarId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain_spn(depth: usize) -> OpList {
        // Alternating product/sum chain: every op depends on the previous one,
        // so every group has exactly one op.
        let mut b = SpnBuilder::new(1);
        let mut prev = b.indicator(VarId(0), true);
        for i in 0..depth {
            let c = b.constant(1.0);
            prev = if i % 2 == 0 {
                b.product(vec![prev, c]).unwrap()
            } else {
                b.sum(vec![(prev, 1.0), (c, 0.0)]).unwrap()
            };
        }
        OpList::from_spn(&b.finish(prev).unwrap())
    }

    #[test]
    fn chain_produces_deep_levelization() {
        let ops = chain_spn(6);
        let lev = Levelization::from_op_list(&ops);
        assert_eq!(lev.level_of_op.len(), ops.num_ops());
        // A serial chain of 6 node links needs at least 6 dependency groups.
        assert!(lev.num_groups() >= 6);
        assert!(lev.groups.iter().all(|g| !g.is_empty()));
        // The final op (the chain's root) sits in the last group.
        assert_eq!(lev.level_of_op[ops.num_ops() - 1], lev.num_groups() - 1);
    }

    #[test]
    fn group_members_only_depend_on_earlier_groups() {
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = RandomSpnConfig {
            num_vars: 8,
            ..RandomSpnConfig::default()
        };
        let spn = random_spn(&cfg, &mut rng);
        let ops = OpList::from_spn(&spn);
        let lev = Levelization::from_op_list(&ops);
        for (i, op) in ops.ops().iter().enumerate() {
            for operand in [op.lhs, op.rhs] {
                if let crate::flatten::OperandRef::Op(j) = operand {
                    assert!(
                        lev.level_of_op[j as usize] < lev.level_of_op[i],
                        "op {i} depends on op {j} in the same or later group"
                    );
                }
            }
        }
        // Evaluating group by group reproduces the reference value.
        let inputs = ops.input_values(&Evidence::marginal(8)).unwrap();
        let mut results = vec![0.0f64; ops.num_ops()];
        for group in lev.iter() {
            for &i in group {
                let op = ops.ops()[i];
                let val = |r: crate::flatten::OperandRef| match r {
                    crate::flatten::OperandRef::Input(k) => inputs[k as usize],
                    crate::flatten::OperandRef::Op(k) => results[k as usize],
                };
                results[i] = op.kind.apply(val(op.lhs), val(op.rhs));
            }
        }
        let expected = spn.evaluate(&Evidence::marginal(8)).unwrap();
        let got = match ops.output() {
            crate::flatten::OperandRef::Op(k) => results[k as usize],
            crate::flatten::OperandRef::Input(k) => inputs[k as usize],
        };
        assert!((got - expected).abs() < 1e-9);
    }

    #[test]
    fn empty_program_has_no_groups() {
        let mut b = SpnBuilder::new(1);
        let x = b.indicator(VarId(0), true);
        let spn = b.finish(x).unwrap();
        let lev = Levelization::from_op_list(&OpList::from_spn(&spn));
        assert_eq!(lev.num_groups(), 0);
        assert_eq!(lev.max_group_size(), 0);
        assert_eq!(lev.mean_group_size(), 0.0);
    }

    #[test]
    fn group_statistics_are_consistent() {
        let ops = chain_spn(10);
        let lev = Levelization::from_op_list(&ops);
        let total: usize = lev.groups.iter().map(Vec::len).sum();
        assert_eq!(total, ops.num_ops());
        assert!(lev.max_group_size() as f64 >= lev.mean_group_size());
    }
}
