//! Structural validation of sum-product networks.
//!
//! A syntactically well-formed SPN (as produced by [`crate::SpnBuilder`]) is
//! only guaranteed to be an acyclic graph with sane weights.  For the circuit
//! to compute a valid probability distribution it must additionally be
//! *complete* (all children of a sum node have the same scope) and
//! *decomposable* (children of a product node have pairwise disjoint scopes).
//! Normalisation of sum weights makes the root value a proper probability.
//!
//! ```
//! use spn_core::{SpnBuilder, VarId, validate};
//!
//! # fn main() -> Result<(), spn_core::SpnError> {
//! let mut b = SpnBuilder::new(1);
//! let t = b.indicator(VarId(0), true);
//! let f = b.indicator(VarId(0), false);
//! let root = b.sum(vec![(t, 0.4), (f, 0.6)])?;
//! let spn = b.finish(root)?;
//! let report = validate::check(&spn);
//! assert!(report.is_valid());
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeSet;

use crate::graph::{Node, Spn, VarId};

/// Tolerance used when checking that sum weights add up to one.
pub(crate) const NORMALIZATION_TOLERANCE: f64 = 1e-6;

/// Outcome of validating an SPN's structural properties.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValidationReport {
    /// Violations of completeness (sum node ids).
    pub incomplete_sums: Vec<u32>,
    /// Violations of decomposability (product node ids).
    pub non_decomposable_products: Vec<u32>,
    /// Sum nodes whose weights do not add up to one, with the actual sum.
    pub unnormalized_sums: Vec<(u32, f64)>,
}

impl ValidationReport {
    /// Returns `true` when the SPN is complete, decomposable and normalised.
    pub fn is_valid(&self) -> bool {
        self.incomplete_sums.is_empty()
            && self.non_decomposable_products.is_empty()
            && self.unnormalized_sums.is_empty()
    }
}

/// What the three structural tests find at one node, given every node's
/// scope ([`Spn::scopes`]).  The one place the tests are written: [`check`]
/// collects these over the reachable nodes, [`crate::analysis::lint_spn`]
/// maps them to `SPN001`–`SPN003` over the whole arena.
#[derive(Debug, Default)]
pub(crate) struct NodeViolations {
    /// A sum whose children do not all have the same scope.
    pub incomplete: bool,
    /// A product whose children's scopes overlap.
    pub non_decomposable: bool,
    /// The weight total of a sum that is not within
    /// [`NORMALIZATION_TOLERANCE`] of one.
    pub unnormalized: Option<f64>,
}

/// Runs the three tests on `node`.
pub(crate) fn check_node(node: &Node, scopes: &[BTreeSet<VarId>]) -> NodeViolations {
    let mut found = NodeViolations::default();
    match node {
        Node::Sum { children, weights } => {
            let mut child_scopes = children.iter().map(|c| &scopes[c.index()]);
            if let Some(first) = child_scopes.next() {
                found.incomplete = child_scopes.any(|scope| scope != first);
            }
            let total: f64 = weights.iter().sum();
            if (total - 1.0).abs() > NORMALIZATION_TOLERANCE {
                found.unnormalized = Some(total);
            }
        }
        Node::Product { children } => {
            let mut seen: BTreeSet<VarId> = BTreeSet::new();
            for c in children {
                found.non_decomposable |= !scopes[c.index()].is_disjoint(&seen);
                seen.extend(&scopes[c.index()]);
            }
        }
        Node::Indicator { .. } | Node::Constant(_) => {}
    }
    found
}

/// Checks completeness, decomposability and weight normalisation of `spn`.
pub fn check(spn: &Spn) -> ValidationReport {
    let scopes = spn.scopes();
    let mut report = ValidationReport::default();
    for id in spn.topological_order() {
        let found = check_node(spn.node(id), &scopes);
        if found.incomplete {
            report.incomplete_sums.push(id.0);
        }
        if found.non_decomposable {
            report.non_decomposable_products.push(id.0);
        }
        if let Some(total) = found.unnormalized {
            report.unnormalized_sums.push((id.0, total));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpnBuilder, VarId};

    #[test]
    fn valid_spn_passes() {
        let mut b = SpnBuilder::new(2);
        let x0 = b.indicator(VarId(0), true);
        let nx0 = b.indicator(VarId(0), false);
        let x1 = b.indicator(VarId(1), true);
        let nx1 = b.indicator(VarId(1), false);
        let s0 = b.sum(vec![(x0, 0.2), (nx0, 0.8)]).unwrap();
        let s1 = b.sum(vec![(x1, 0.9), (nx1, 0.1)]).unwrap();
        let root = b.product(vec![s0, s1]).unwrap();
        let spn = b.finish(root).unwrap();
        let report = check(&spn);
        assert!(report.is_valid());
    }

    #[test]
    fn incomplete_sum_is_detected() {
        let mut b = SpnBuilder::new(2);
        let x0 = b.indicator(VarId(0), true);
        let x1 = b.indicator(VarId(1), true);
        let root = b.sum(vec![(x0, 0.5), (x1, 0.5)]).unwrap();
        let spn = b.finish(root).unwrap();
        let report = check(&spn);
        assert!(!report.is_valid());
        assert_eq!(report.incomplete_sums, vec![root.0]);
    }

    #[test]
    fn non_decomposable_product_is_detected() {
        let mut b = SpnBuilder::new(1);
        let x = b.indicator(VarId(0), true);
        let nx = b.indicator(VarId(0), false);
        let root = b.product(vec![x, nx]).unwrap();
        let spn = b.finish(root).unwrap();
        let report = check(&spn);
        assert_eq!(report.non_decomposable_products, vec![root.0]);
    }

    #[test]
    fn unnormalized_sum_is_detected() {
        let mut b = SpnBuilder::new(1);
        let x = b.indicator(VarId(0), true);
        let nx = b.indicator(VarId(0), false);
        let root = b.sum(vec![(x, 2.0), (nx, 6.0)]).unwrap();
        let spn = b.finish(root).unwrap();
        let report = check(&spn);
        assert!(report.incomplete_sums.is_empty());
        assert!(report.non_decomposable_products.is_empty());
        assert!(!report.is_valid());
        assert_eq!(report.unnormalized_sums, vec![(root.0, 8.0)]);
    }
}
