//! Exact inference on sum-product networks: the graph-walking reference.
//!
//! Every value this crate computes *from the graph* comes from one function,
//! `sweep`: a bottom-up pass in topological order where leaves take their
//! value from the evidence, products fold their children with the algebra's
//! `mul` and sums fold their weighted children with its `add`.  The
//! `Algebra` picks the meaning: `Linear` is plain sum-product, `Log` is
//! addition and log-sum-exp (no underflow on deep circuits), and `Max` of
//! either turns sums into maximisations (MPE).  Sum weights enter already
//! lifted into the algebra's domain, from a `LiftedWeights` table built once
//! per graph and domain, so a pass runs no `ln`.  `argmax_assignment` is the
//! top-down half of MPE: it re-derives each sum's winning child from the
//! swept values.
//!
//! The reusable [`Evaluator`] keeps the topological order, the lifted
//! weights and the per-node value buffer across queries, so streaming
//! workloads allocate nothing per query; [`Spn::evaluate`], [`Spn::mpe`] and
//! friends build a throwaway one, and the sampling engine
//! ([`crate::sample`]) runs the same sweep in `Log` over its own buffers,
//! passing a sub-list of the order when only part of the graph can change.
//! The flattened-program executors (`vectorized::LaneProgram`,
//! `vectorized::run_lanes`, [`crate::flatten::OpList::run_into`]) share no code with this module: it
//! is the oracle they are checked against.

use std::marker::PhantomData;

use crate::batch::EvidenceBatch;
use crate::evidence::Evidence;
use crate::graph::{Node, NodeId, Spn};
use crate::numeric::log_sum_exp;
use crate::value::LogProb;
use crate::{Result, SpnError};

/// The arithmetic a bottom-up pass evaluates in: how a linear-domain
/// parameter enters (`lift`: indicator values, constants, sum weights), how
/// a product combines its children (`mul`, identity `ONE`) and how a sum
/// combines its weighted children (`add`, identity `ZERO`).
pub(crate) trait Algebra {
    /// The domain [`Algebra::lift`] maps into: algebras sharing it share a
    /// [`LiftedWeights`] table.
    const DOMAIN: Domain;
    /// Identity of [`Algebra::add`]: the value of an empty sum.
    const ZERO: f64;
    /// Identity of [`Algebra::mul`]: the value of an empty product.
    const ONE: f64;
    /// Maps a linear-domain parameter into the algebra's domain.
    fn lift(p: f64) -> f64;
    /// Combines two factors of a product (or a weight and its child).
    fn mul(a: f64, b: f64) -> f64;
    /// Combines two terms of a sum.
    fn add(a: f64, b: f64) -> f64;
}

/// Where an algebra's values live: plain probabilities or their logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Domain {
    Linear,
    Log,
}

/// Sum-product over plain probabilities.
pub(crate) struct Linear;

/// Sum-product over natural logs: products add, sums are log-sum-exp and
/// probability zero is `-inf`.  Degenerate negative parameters clamp to
/// zero, mirroring the flattener.
pub(crate) struct Log;

/// `D` with sums replaced by maximisation — max-product in `D`'s domain.
/// Earlier terms win ties and NaN terms never win.
pub(crate) struct Max<D>(PhantomData<D>);

impl Algebra for Linear {
    const DOMAIN: Domain = Domain::Linear;
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    fn lift(p: f64) -> f64 {
        p
    }
    fn mul(a: f64, b: f64) -> f64 {
        a * b
    }
    fn add(a: f64, b: f64) -> f64 {
        a + b
    }
}

impl Algebra for Log {
    const DOMAIN: Domain = Domain::Log;
    const ZERO: f64 = f64::NEG_INFINITY;
    const ONE: f64 = 0.0;
    fn lift(p: f64) -> f64 {
        // A branch, not `p.max(0.0).ln()` (equal for every `p`, NaN
        // included), so the sweep's lifts of the indicator values 0 and 1
        // fold to constants.  Weights are lifted once per `LiftedWeights`
        // table, not per pass.
        if p > 0.0 {
            p.ln()
        } else {
            f64::NEG_INFINITY
        }
    }
    fn mul(a: f64, b: f64) -> f64 {
        a + b
    }
    fn add(a: f64, b: f64) -> f64 {
        log_sum_exp(a, b)
    }
}

impl<D: Algebra> Algebra for Max<D> {
    const DOMAIN: Domain = D::DOMAIN;
    const ZERO: f64 = f64::NEG_INFINITY;
    const ONE: f64 = D::ONE;
    fn lift(p: f64) -> f64 {
        D::lift(p)
    }
    fn mul(a: f64, b: f64) -> f64 {
        D::mul(a, b)
    }
    fn add(a: f64, b: f64) -> f64 {
        if b > a {
            b
        } else {
            a
        }
    }
}

/// Every sum edge's weight of one graph lifted into one [`Domain`], in one
/// flat edge-indexed table: node `id`'s weights are
/// `weights[start[id]..start[id + 1]]`, an empty range for every other kind.
#[derive(Debug, Clone)]
pub(crate) struct LiftedWeights {
    domain: Domain,
    start: Vec<u32>,
    weights: Vec<f64>,
}

impl LiftedWeights {
    /// Lifts every sum weight of `spn` with `A::lift`, in arena order.
    pub(crate) fn new<A: Algebra>(spn: &Spn) -> LiftedWeights {
        let mut start = Vec::with_capacity(spn.num_nodes() + 1);
        let mut weights = Vec::new();
        start.push(0);
        for (_, node) in spn.iter() {
            if let Node::Sum { weights: w, .. } = node {
                weights.extend(w.iter().map(|&w| A::lift(w)));
            }
            start.push(u32::try_from(weights.len()).expect("fewer than 2^32 sum edges"));
        }
        LiftedWeights {
            domain: A::DOMAIN,
            start,
            weights,
        }
    }

    /// The lifted weights of node `id`, parallel to its children.
    pub(crate) fn of(&self, id: NodeId) -> &[f64] {
        let i = id.index();
        &self.weights[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

/// One bottom-up pass of `spn` in algebra `A`: writes the value of every
/// node of `order` (a topological order of `spn`, or a sub-list of one whose
/// every other node's value is already in place) into the arena-indexed
/// `values` and returns the root's.  `lifted` holds `spn`'s sum weights in
/// `A`'s domain; `indicator(var, value)` supplies the linear-domain value of
/// the leaf `[var = value]`; nodes outside `order` keep whatever `values`
/// held.
pub(crate) fn sweep<A: Algebra>(
    spn: &Spn,
    order: &[NodeId],
    lifted: &LiftedWeights,
    indicator: impl Fn(usize, bool) -> f64,
    values: &mut [f64],
) -> f64 {
    debug_assert_eq!(lifted.domain, A::DOMAIN);
    for &id in order {
        values[id.index()] = match spn.node(id) {
            // An indicator is exactly 0 or 1: lifting the two constants
            // rather than the value lets `Log::lift` fold, so a leaf costs a
            // select and not an `ln` call.
            Node::Indicator { var, value } => {
                if indicator(var.index(), *value) == 0.0 {
                    A::lift(0.0)
                } else {
                    A::lift(1.0)
                }
            }
            Node::Constant(c) => A::lift(*c),
            Node::Product { children } => children
                .iter()
                .fold(A::ONE, |acc, c| A::mul(acc, values[c.index()])),
            Node::Sum { children, .. } => children
                .iter()
                .zip(lifted.of(id))
                .fold(A::ZERO, |acc, (c, &w)| {
                    A::add(acc, A::mul(w, values[c.index()]))
                }),
        };
    }
    values[spn.root().index()]
}

/// The top-down half of an MPE query: given the `values` a
/// [`sweep`]`::<Max<D>>` over `lifted` left behind, follows from the root
/// every child of a product and, at a sum, the first child whose weighted
/// value attains the maximum; each indicator reached sets its variable.
/// Hard evidence wins over an indicator's preference, and variables the
/// selected sub-circuit never mentions keep their observed value or `false`.
pub(crate) fn argmax_assignment<D: Algebra>(
    spn: &Spn,
    lifted: &LiftedWeights,
    values: &[f64],
    evidence: &Evidence,
) -> Vec<bool> {
    debug_assert_eq!(lifted.domain, D::DOMAIN);
    let mut assignment: Vec<bool> = (0..spn.num_vars())
        .map(|var| evidence.value(var).unwrap_or(false))
        .collect();
    let mut stack = vec![spn.root()];
    while let Some(id) = stack.pop() {
        match spn.node(id) {
            Node::Indicator { var, value } => {
                if evidence.value(var.index()).is_none() {
                    assignment[var.index()] = *value;
                }
            }
            Node::Constant(_) => {}
            Node::Product { children } => stack.extend(children.iter().copied()),
            Node::Sum { children, .. } => {
                let mut best = Max::<D>::ZERO;
                let mut choice = 0;
                for (i, (c, &w)) in children.iter().zip(lifted.of(id)).enumerate() {
                    let term = D::mul(w, values[c.index()]);
                    if term > best {
                        best = term;
                        choice = i;
                    }
                }
                stack.push(children[choice]);
            }
        }
    }
    assignment
}

/// Reusable exact-inference engine over one SPN.
///
/// Construction does the one-time work (topological order, buffer
/// allocation); every evaluation after that is a pure bottom-up sweep over
/// preallocated memory.  The sum weights are lifted on the first pass and
/// again only when a pass switches domain.  This is the compile-once /
/// execute-many split of the execution backends, applied to the reference
/// evaluator itself.
///
/// ```
/// use spn_core::{eval::Evaluator, Evidence, EvidenceBatch, SpnBuilder, VarId};
///
/// # fn main() -> Result<(), spn_core::SpnError> {
/// let mut b = SpnBuilder::new(1);
/// let t = b.indicator(VarId(0), true);
/// let f = b.indicator(VarId(0), false);
/// let root = b.sum(vec![(t, 0.6), (f, 0.4)])?;
/// let spn = b.finish(root)?;
///
/// let mut evaluator = Evaluator::new(&spn);
/// let mut batch = EvidenceBatch::new(1);
/// batch.push_assignment(&[true])?;
/// batch.push_assignment(&[false])?;
/// let mut roots = Vec::new();
/// evaluator.evaluate_batch(&batch, &mut roots)?;
/// assert!((roots[0] - 0.6).abs() < 1e-12 && (roots[1] - 0.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator<'a> {
    spn: &'a Spn,
    order: Vec<NodeId>,
    /// The sum weights in the domain of the most recent pass.
    lifted: Option<LiftedWeights>,
    /// Arena-indexed node values of the most recent pass, in its algebra.
    values: Vec<f64>,
}

impl<'a> Evaluator<'a> {
    /// Builds an evaluator for `spn`, computing the topological order once.
    pub fn new(spn: &'a Spn) -> Self {
        Evaluator {
            spn,
            order: spn.topological_order(),
            lifted: None,
            values: vec![0.0; spn.num_nodes()],
        }
    }

    /// One [`sweep`] in algebra `A` over the retained order and buffer,
    /// lifting the weights first on a change of domain.
    fn sweep<A: Algebra>(&mut self, indicator: impl Fn(usize, bool) -> f64) -> f64 {
        let lifted = match &mut self.lifted {
            Some(lifted) if lifted.domain == A::DOMAIN => lifted,
            slot => slot.insert(LiftedWeights::new::<A>(self.spn)),
        };
        sweep::<A>(self.spn, &self.order, lifted, indicator, &mut self.values)
    }

    /// One pass in algebra `A` under `evidence`, after checking its arity.
    fn pass<A: Algebra>(&mut self, evidence: &Evidence) -> Result<f64> {
        self.spn.check_vars(evidence.num_vars())?;
        Ok(self.sweep::<A>(|var, value| evidence.indicator(var, value)))
    }

    /// One pass in algebra `A` per query of `batch`, pushing `wrap` of each
    /// root value into `out` (cleared first, allocation reused).
    fn pass_batch<A: Algebra, T>(
        &mut self,
        batch: &EvidenceBatch,
        wrap: impl Fn(f64) -> T,
        out: &mut Vec<T>,
    ) -> Result<()> {
        self.spn.check_vars(batch.num_vars())?;
        out.clear();
        out.reserve(batch.len());
        for q in 0..batch.len() {
            let root = self.sweep::<A>(|var, value| batch.indicator(q, var, value));
            out.push(wrap(root));
        }
        Ok(())
    }

    /// One max-product pass in `D`'s domain plus the argmax descent.
    fn mpe_in<D: Algebra>(&mut self, evidence: &Evidence) -> Result<MpeResult> {
        let value = self.pass::<Max<D>>(evidence)?;
        Ok(MpeResult {
            value,
            assignment: argmax_assignment::<D>(
                self.spn,
                self.lifted.as_ref().expect("lifted by the pass"),
                &self.values,
                evidence,
            ),
        })
    }

    /// Evaluates one query in the linear domain.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::EvidenceMismatch`] when the evidence covers a
    /// different number of variables than the SPN.
    pub(crate) fn evaluate(&mut self, evidence: &Evidence) -> Result<f64> {
        self.pass::<Linear>(evidence)
    }

    /// Evaluates one query in the log domain.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::EvidenceMismatch`] when the evidence covers a
    /// different number of variables than the SPN.
    pub(crate) fn evaluate_log(&mut self, evidence: &Evidence) -> Result<LogProb> {
        self.pass::<Log>(evidence).map(LogProb::from_ln)
    }

    /// Evaluates every query of `batch` in the linear domain, writing the
    /// root values into `out` (cleared first, allocation reused).
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::EvidenceMismatch`] when the batch covers a
    /// different number of variables than the SPN.
    pub fn evaluate_batch(&mut self, batch: &EvidenceBatch, out: &mut Vec<f64>) -> Result<()> {
        self.pass_batch::<Linear, _>(batch, |root| root, out)
    }

    /// Evaluates every query of `batch` in the log domain, writing the root
    /// values into `out` (cleared first, allocation reused).
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::EvidenceMismatch`] when the batch covers a
    /// different number of variables than the SPN.
    pub fn evaluate_log_batch(
        &mut self,
        batch: &EvidenceBatch,
        out: &mut Vec<LogProb>,
    ) -> Result<()> {
        self.pass_batch::<Log, _>(batch, LogProb::from_ln, out)
    }

    /// Most probable explanation under `evidence`; see [`Spn::mpe`].
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::EvidenceMismatch`] when the evidence covers a
    /// different number of variables than the SPN.
    pub(crate) fn mpe(&mut self, evidence: &Evidence) -> Result<MpeResult> {
        self.mpe_in::<Linear>(evidence)
    }

    /// Log-domain most probable explanation; see [`Spn::mpe_log`].
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::EvidenceMismatch`] when the evidence covers a
    /// different number of variables than the SPN.
    pub(crate) fn mpe_log(&mut self, evidence: &Evidence) -> Result<MpeResult> {
        self.mpe_in::<Log>(evidence)
    }
}

impl Spn {
    /// Evaluates the SPN in the linear domain under `evidence`.
    ///
    /// For a normalised, complete and decomposable SPN this is the probability
    /// of the observed values with unobserved variables marginalised out.
    ///
    /// Convenience wrapper building a throwaway [`Evaluator`]; hot loops
    /// should hold an [`Evaluator`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::EvidenceMismatch`] when the evidence covers a
    /// different number of variables than the SPN.
    pub fn evaluate(&self, evidence: &Evidence) -> Result<f64> {
        Evaluator::new(self).evaluate(evidence)
    }

    /// Evaluates the SPN in the log domain under `evidence`.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::EvidenceMismatch`] when the evidence covers a
    /// different number of variables than the SPN.
    pub fn evaluate_log(&self, evidence: &Evidence) -> Result<LogProb> {
        Evaluator::new(self).evaluate_log(evidence)
    }

    /// Most probable explanation: the maximising complete assignment under
    /// `evidence`, together with its (max-product) circuit value.
    ///
    /// Sums are replaced by weighted maximisation, products stay products; the
    /// assignment is recovered by backtracking the argmax branches.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::EvidenceMismatch`] when the evidence covers a
    /// different number of variables than the SPN.
    pub fn mpe(&self, evidence: &Evidence) -> Result<MpeResult> {
        Evaluator::new(self).mpe(evidence)
    }

    /// Log-domain most probable explanation: identical argmax semantics to
    /// [`Spn::mpe`], but the circuit value is computed (and returned) as a
    /// natural log — max-sum instead of max-product — so deep circuits whose
    /// max-product value underflows `f64` still yield a finite score and a
    /// meaningful argmax.
    ///
    /// This is the reference oracle for MAP queries executed in
    /// [`crate::NumericMode::Log`]; [`MpeResult::value`] holds the *log* of
    /// the max-product value.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::EvidenceMismatch`] when the evidence covers a
    /// different number of variables than the SPN.
    pub fn mpe_log(&self, evidence: &Evidence) -> Result<MpeResult> {
        Evaluator::new(self).mpe_log(evidence)
    }

    /// Rejects evidence (a row or a batch) over `evidence_vars` variables
    /// when the SPN has a different number.
    fn check_vars(&self, evidence_vars: usize) -> Result<()> {
        if evidence_vars != self.num_vars() {
            return Err(SpnError::EvidenceMismatch {
                evidence_vars,
                spn_vars: self.num_vars(),
            });
        }
        Ok(())
    }
}

/// Result of a most-probable-explanation query.
#[derive(Debug, Clone, PartialEq)]
pub struct MpeResult {
    /// The max-product value of the root for the returned assignment.
    pub value: f64,
    /// The maximising complete assignment (one boolean per variable).
    pub assignment: Vec<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpnBuilder, VarId};

    /// P(X0, X1) as a product of independent Bernoullis:
    /// P(X0=1) = 0.2, P(X1=1) = 0.9.
    fn independent_pair() -> Spn {
        let mut b = SpnBuilder::new(2);
        let x0 = b.indicator(VarId(0), true);
        let nx0 = b.indicator(VarId(0), false);
        let x1 = b.indicator(VarId(1), true);
        let nx1 = b.indicator(VarId(1), false);
        let s0 = b.sum(vec![(x0, 0.2), (nx0, 0.8)]).unwrap();
        let s1 = b.sum(vec![(x1, 0.9), (nx1, 0.1)]).unwrap();
        let root = b.product(vec![s0, s1]).unwrap();
        b.finish(root).unwrap()
    }

    #[test]
    fn joint_probabilities_match_factorization() {
        let spn = independent_pair();
        let cases = [
            ([true, true], 0.2 * 0.9),
            ([true, false], 0.2 * 0.1),
            ([false, true], 0.8 * 0.9),
            ([false, false], 0.8 * 0.1),
        ];
        for (assignment, expected) in cases {
            let p = spn
                .evaluate(&Evidence::from_assignment(&assignment))
                .unwrap();
            assert!((p - expected).abs() < 1e-12, "{assignment:?}");
        }
    }

    #[test]
    fn marginal_is_one_for_normalized_spn() {
        let spn = independent_pair();
        let z = spn.evaluate(&Evidence::marginal(2)).unwrap();
        assert!((z - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_evidence_marginalizes() {
        let spn = independent_pair();
        let mut e = Evidence::marginal(2);
        e.observe(0, true);
        let p = spn.evaluate(&e).unwrap();
        assert!((p - 0.2).abs() < 1e-12);
    }

    #[test]
    fn log_domain_matches_linear() {
        let spn = independent_pair();
        for assignment in [[true, true], [false, true], [true, false]] {
            let e = Evidence::from_assignment(&assignment);
            let lin = spn.evaluate(&e).unwrap();
            let log = spn.evaluate_log(&e).unwrap();
            assert!((log.to_linear() - lin).abs() < 1e-12);
        }
    }

    #[test]
    fn mpe_selects_most_probable_assignment() {
        let spn = independent_pair();
        let result = spn.mpe(&Evidence::marginal(2)).unwrap();
        assert_eq!(result.assignment, vec![false, true]);
        assert!((result.value - 0.8 * 0.9).abs() < 1e-12);
    }

    #[test]
    fn mpe_respects_evidence() {
        let spn = independent_pair();
        let mut e = Evidence::marginal(2);
        e.observe(0, true);
        let result = spn.mpe(&e).unwrap();
        assert_eq!(result.assignment, vec![true, true]);
        assert!((result.value - 0.2 * 0.9).abs() < 1e-12);
    }

    #[test]
    fn mpe_log_matches_linear_mpe() {
        let spn = independent_pair();
        for evidence in [
            Evidence::marginal(2),
            Evidence::from_assignment(&[true, false]),
        ] {
            let linear = spn.mpe(&evidence).unwrap();
            let log = spn.mpe_log(&evidence).unwrap();
            assert_eq!(log.assignment, linear.assignment);
            assert!((log.value.exp() - linear.value).abs() < 1e-12);
        }
    }

    #[test]
    fn evidence_size_mismatch_is_rejected() {
        let spn = independent_pair();
        let err = spn.evaluate(&Evidence::marginal(3)).unwrap_err();
        assert!(matches!(err, SpnError::EvidenceMismatch { .. }));
        assert!(spn.evaluate_log(&Evidence::marginal(1)).is_err());
        assert!(spn.mpe(&Evidence::marginal(1)).is_err());
    }
}
