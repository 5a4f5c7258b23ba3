use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::error::SpnError;
use crate::Result;

/// Identifier of a binary random variable in an SPN.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct VarId(pub u32);

impl VarId {
    /// Returns the variable index as a `usize`.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a node inside an [`Spn`] arena.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the node index as a `usize`.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A node of a sum-product network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// Weighted sum (mixture) over children with identical scopes.
    Sum {
        /// Child node ids.
        children: Vec<NodeId>,
        /// Non-negative mixture weights, one per child.
        weights: Vec<f64>,
    },
    /// Product (factorisation) over children with disjoint scopes.
    Product {
        /// Child node ids.
        children: Vec<NodeId>,
    },
    /// Indicator leaf `[var = value]`.
    Indicator {
        /// The variable tested by this leaf.
        var: VarId,
        /// The value the indicator fires on.
        value: bool,
    },
    /// Constant numeric leaf (a probabilistic parameter).
    Constant(f64),
}

impl Node {
    /// Returns the children of this node (empty for leaves).
    pub(crate) fn children(&self) -> &[NodeId] {
        match self {
            Node::Sum { children, .. } | Node::Product { children } => children,
            Node::Indicator { .. } | Node::Constant(_) => &[],
        }
    }
}

/// A sum-product network: a rooted DAG of [`Node`]s over binary variables.
///
/// Construct with [`SpnBuilder`]; the builder checks child references and
/// weight sanity, and [`SpnBuilder::finish`] verifies the root exists.  Deeper
/// structural properties (completeness, decomposability, normalisation) are
/// checked by [`crate::analysis::lint_spn`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Spn {
    nodes: Vec<Node>,
    root: NodeId,
    num_vars: usize,
}

impl Spn {
    /// Number of nodes in the arena (reachable or not).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of binary variables the SPN is defined over.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Returns the node stored at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Iterates over `(id, node)` pairs in arena order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Replaces the weights of the sum node `id`.
    ///
    /// # Errors
    ///
    /// Returns an error if `id` is not a sum node or the weight count differs
    /// from the child count, or any weight is negative or non-finite.
    pub fn set_sum_weights(&mut self, id: NodeId, new_weights: Vec<f64>) -> Result<()> {
        for &w in &new_weights {
            if !(w.is_finite() && w >= 0.0) {
                return Err(SpnError::InvalidWeight { weight: w });
            }
        }
        match self.nodes.get_mut(id.index()) {
            Some(Node::Sum { children, weights }) => {
                if children.len() != new_weights.len() {
                    return Err(SpnError::WeightMismatch {
                        children: children.len(),
                        weights: new_weights.len(),
                    });
                }
                *weights = new_weights;
                Ok(())
            }
            Some(_) => Err(SpnError::invalid(format!(
                "node {} is not a sum node",
                id.0
            ))),
            None => Err(SpnError::UnknownNode { id: id.0 }),
        }
    }

    /// Returns the node ids reachable from the root in topological order
    /// (children before parents).
    pub fn topological_order(&self) -> Vec<NodeId> {
        self.post_order(std::iter::once(self.root))
    }

    /// The nodes reachable from `starts`, children before parents, each
    /// once: an iterative post-order DFS from each start not yet visited,
    /// so deep circuits do not recurse.
    fn post_order(&self, starts: impl IntoIterator<Item = NodeId>) -> Vec<NodeId> {
        let mut visited = vec![false; self.nodes.len()];
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack: Vec<(NodeId, usize)> = Vec::new();
        for start in starts {
            if !visited[start.index()] {
                stack.push((start, 0));
            }
            while let Some(top) = stack.last_mut() {
                let id = top.0;
                if visited[id.index()] {
                    stack.pop();
                    continue;
                }
                let children = self.node(id).children();
                if top.1 < children.len() {
                    let child = children[top.1];
                    top.1 += 1;
                    if !visited[child.index()] {
                        stack.push((child, 0));
                    }
                } else {
                    visited[id.index()] = true;
                    order.push(id);
                    stack.pop();
                }
            }
        }
        order
    }

    /// Returns, for every node, the set of variables in its scope —
    /// unreachable nodes included, so a lint sees their scopes too.
    pub(crate) fn scopes(&self) -> Vec<BTreeSet<VarId>> {
        let mut scopes: Vec<BTreeSet<VarId>> = vec![BTreeSet::new(); self.nodes.len()];
        // Arena order is not guaranteed topological: walk every node in a
        // post-order of the whole graph, so each child's scope is ready
        // before its parents read it.
        let all = (0..self.nodes.len() as u32).map(NodeId);
        for id in self.post_order(all) {
            let scope = match self.node(id) {
                Node::Indicator { var, .. } => std::iter::once(*var).collect(),
                Node::Constant(_) => BTreeSet::new(),
                Node::Sum { children, .. } | Node::Product { children } => {
                    let mut s = BTreeSet::new();
                    for c in children {
                        s.extend(scopes[c.index()].iter().copied());
                    }
                    s
                }
            };
            scopes[id.index()] = scope;
        }
        scopes
    }

    /// Returns how many parents reference each node (fanout), counting only
    /// nodes reachable from the root.
    pub(crate) fn fanout(&self) -> Vec<usize> {
        let mut fanout = vec![0usize; self.nodes.len()];
        for id in self.topological_order() {
            for c in self.node(id).children() {
                fanout[c.index()] += 1;
            }
        }
        fanout
    }

    /// Counts nodes reachable from the root, split into (sums, products, leaves).
    pub fn reachable_counts(&self) -> (usize, usize, usize) {
        let mut sums = 0;
        let mut products = 0;
        let mut leaves = 0;
        for id in self.topological_order() {
            match self.node(id) {
                Node::Sum { .. } => sums += 1,
                Node::Product { .. } => products += 1,
                _ => leaves += 1,
            }
        }
        (sums, products, leaves)
    }
}

/// Incremental builder for [`Spn`] graphs.
///
/// ```
/// use spn_core::{SpnBuilder, VarId};
///
/// # fn main() -> Result<(), spn_core::SpnError> {
/// let mut b = SpnBuilder::new(1);
/// let t = b.indicator(VarId(0), true);
/// let f = b.indicator(VarId(0), false);
/// let root = b.sum(vec![(t, 0.6), (f, 0.4)])?;
/// let spn = b.finish(root)?;
/// assert_eq!(spn.num_nodes(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpnBuilder {
    nodes: Vec<Node>,
    num_vars: usize,
}

impl SpnBuilder {
    /// Creates a builder for an SPN over `num_vars` binary variables.
    pub fn new(num_vars: usize) -> Self {
        SpnBuilder {
            nodes: Vec::new(),
            num_vars,
        }
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    fn check_child(&self, id: NodeId) -> Result<()> {
        if id.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(SpnError::UnknownNode { id: id.0 })
        }
    }

    /// Adds an indicator leaf `[var = value]`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is outside the declared variable range; use
    /// `SpnBuilder::try_indicator` for a fallible version.
    pub fn indicator(&mut self, var: VarId, value: bool) -> NodeId {
        self.try_indicator(var, value)
            .expect("indicator variable out of range")
    }

    /// Adds an indicator leaf, returning an error when `var` is out of range.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::UnknownVariable`] when `var` is out of range.
    pub(crate) fn try_indicator(&mut self, var: VarId, value: bool) -> Result<NodeId> {
        if var.index() >= self.num_vars {
            return Err(SpnError::UnknownVariable {
                var: var.0,
                num_vars: self.num_vars,
            });
        }
        Ok(self.push(Node::Indicator { var, value }))
    }

    /// Adds a constant leaf holding `value`.
    pub fn constant(&mut self, value: f64) -> NodeId {
        self.push(Node::Constant(value))
    }

    /// Adds a weighted sum node over `(child, weight)` pairs.
    ///
    /// # Errors
    ///
    /// Returns an error when the child list is empty, a child id is unknown, or
    /// a weight is negative or non-finite.
    pub fn sum(&mut self, children_weights: Vec<(NodeId, f64)>) -> Result<NodeId> {
        if children_weights.is_empty() {
            return Err(SpnError::EmptyNode);
        }
        let mut children = Vec::with_capacity(children_weights.len());
        let mut weights = Vec::with_capacity(children_weights.len());
        for (c, w) in children_weights {
            self.check_child(c)?;
            if !(w.is_finite() && w >= 0.0) {
                return Err(SpnError::InvalidWeight { weight: w });
            }
            children.push(c);
            weights.push(w);
        }
        Ok(self.push(Node::Sum { children, weights }))
    }

    /// Adds a product node over `children`.
    ///
    /// # Errors
    ///
    /// Returns an error when the child list is empty or a child id is unknown.
    pub fn product(&mut self, children: Vec<NodeId>) -> Result<NodeId> {
        if children.is_empty() {
            return Err(SpnError::EmptyNode);
        }
        for &c in &children {
            self.check_child(c)?;
        }
        Ok(self.push(Node::Product { children }))
    }

    /// Finalises the SPN with `root` as the output node.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::UnknownNode`] when `root` was never added.
    pub fn finish(self, root: NodeId) -> Result<Spn> {
        if root.index() >= self.nodes.len() {
            return Err(SpnError::UnknownNode { id: root.0 });
        }
        Ok(Spn {
            nodes: self.nodes,
            root,
            num_vars: self.num_vars,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Spn {
        let mut b = SpnBuilder::new(2);
        let x0 = b.indicator(VarId(0), true);
        let nx0 = b.indicator(VarId(0), false);
        let x1 = b.indicator(VarId(1), true);
        let nx1 = b.indicator(VarId(1), false);
        let p0 = b.product(vec![x0, x1]).unwrap();
        let p1 = b.product(vec![nx0, nx1]).unwrap();
        let root = b.sum(vec![(p0, 0.3), (p1, 0.7)]).unwrap();
        b.finish(root).unwrap()
    }

    #[test]
    fn builder_produces_expected_counts() {
        let spn = tiny();
        assert_eq!(spn.num_nodes(), 7);
        assert_eq!(spn.num_vars(), 2);
        let (sums, products, leaves) = spn.reachable_counts();
        assert_eq!((sums, products, leaves), (1, 2, 4));
    }

    #[test]
    fn topological_order_puts_children_first() {
        let spn = tiny();
        let order = spn.topological_order();
        let pos: Vec<usize> = {
            let mut pos = vec![usize::MAX; spn.num_nodes()];
            for (i, id) in order.iter().enumerate() {
                pos[id.index()] = i;
            }
            pos
        };
        for (id, node) in spn.iter() {
            if pos[id.index()] == usize::MAX {
                continue; // unreachable
            }
            for c in node.children() {
                assert!(pos[c.index()] < pos[id.index()]);
            }
        }
        assert_eq!(*order.last().unwrap(), spn.root());
    }

    #[test]
    fn scopes_are_correct() {
        let spn = tiny();
        let scopes = spn.scopes();
        let root_scope = &scopes[spn.root().index()];
        assert_eq!(root_scope.len(), 2);
        assert!(root_scope.contains(&VarId(0)));
        assert!(root_scope.contains(&VarId(1)));
    }

    #[test]
    fn fanout_counts_shared_children() {
        let mut b = SpnBuilder::new(1);
        let x = b.indicator(VarId(0), true);
        let c = b.constant(0.5);
        let p0 = b.product(vec![x, c]).unwrap();
        let p1 = b.product(vec![x, c]).unwrap();
        let root = b.sum(vec![(p0, 0.5), (p1, 0.5)]).unwrap();
        let spn = b.finish(root).unwrap();
        let fanout = spn.fanout();
        assert_eq!(fanout[x.index()], 2);
        assert_eq!(fanout[c.index()], 2);
        assert_eq!(fanout[root.index()], 0);
    }

    #[test]
    fn unknown_child_is_rejected() {
        let mut b = SpnBuilder::new(1);
        let err = b.product(vec![NodeId(42)]).unwrap_err();
        assert_eq!(err, SpnError::UnknownNode { id: 42 });
    }

    #[test]
    fn empty_nodes_are_rejected() {
        let mut b = SpnBuilder::new(1);
        assert_eq!(b.sum(vec![]).unwrap_err(), SpnError::EmptyNode);
        assert_eq!(b.product(vec![]).unwrap_err(), SpnError::EmptyNode);
    }

    #[test]
    fn invalid_weight_is_rejected() {
        let mut b = SpnBuilder::new(1);
        let x = b.indicator(VarId(0), true);
        assert!(matches!(
            b.sum(vec![(x, -0.5)]),
            Err(SpnError::InvalidWeight { .. })
        ));
        assert!(matches!(
            b.sum(vec![(x, f64::NAN)]),
            Err(SpnError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn out_of_range_indicator_is_rejected() {
        let mut b = SpnBuilder::new(1);
        assert!(matches!(
            b.try_indicator(VarId(3), true),
            Err(SpnError::UnknownVariable { .. })
        ));
    }

    #[test]
    fn unknown_root_is_rejected() {
        let b = SpnBuilder::new(1);
        assert!(matches!(
            b.finish(NodeId(0)),
            Err(SpnError::UnknownNode { .. })
        ));
    }

    #[test]
    fn set_sum_weights_replaces_weights() {
        let mut spn = tiny();
        let root = spn.root();
        spn.set_sum_weights(root, vec![0.5, 0.5]).unwrap();
        match spn.node(root) {
            Node::Sum { weights, .. } => assert_eq!(weights, &vec![0.5, 0.5]),
            _ => panic!("root should be a sum"),
        }
        assert!(spn.set_sum_weights(root, vec![1.0]).is_err());
        assert!(spn.set_sum_weights(NodeId(0), vec![1.0]).is_err());
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // 200k-deep alternating chain exercises the iterative DFS.
        let mut b = SpnBuilder::new(1);
        let mut prev = b.indicator(VarId(0), true);
        for i in 0..200_000 {
            let c = b.constant(1.0);
            prev = if i % 2 == 0 {
                b.product(vec![prev, c]).unwrap()
            } else {
                b.sum(vec![(prev, 1.0), (c, 0.0)]).unwrap()
            };
        }
        let spn = b.finish(prev).unwrap();
        let order = spn.topological_order();
        assert_eq!(*order.last().unwrap(), spn.root());
    }
}
