//! Query modes over a compiled SPN: joint, marginal, MAP and conditional.
//!
//! The execution backends all answer one primitive question — *the value of
//! the circuit under a row of observations* — but a serving system fields
//! richer queries.  This module layers the paper's four standard inference
//! workloads on top of that primitive without touching the per-platform hot
//! loops:
//!
//! * **Joint** — `P(x)` of a *fully observed* assignment.  One circuit pass;
//!   rows with unobserved variables are rejected up front.
//! * **Marginal** — `P(e)` of a partial observation, with every unobserved
//!   variable summed out.  Summing out is free in an SPN: the indicator
//!   inputs of an unobserved variable are both set to `1.0`
//!   ([`Obs::Marginal`]), and the ordinary sum-product pass performs the
//!   marginalisation.  One circuit pass.
//! * **Map** — the most probable completion of a partial observation
//!   (MPE/MAP).  The program is rewritten into its max-product variant
//!   ([`OpList::to_max_product`]: sums become maximisations), one pass
//!   computes the maximal value, and [`MaxProductProgram::trace_assignment`]
//!   backtracks the argmax branches to recover the maximising assignment.
//!   Exact for selective/deterministic SPNs; the circuit MPE in general.
//! * **Conditional** — `P(target | given)` as the ratio of two joint/marginal
//!   passes: `P(target, given) / P(given)`.  Two circuit passes per query.
//! * **Sample** — `n_samples` draws from `P(x | e)` per row via the
//!   [`crate::sample`] engine (ancestral / likelihood-weighted / Gibbs),
//!   each answer carrying its per-sample weights and standard error.
//! * **Expectation** — a Monte-Carlo estimate of `P(e)` per row with its
//!   standard error; the exact backends answer the same query exactly, which
//!   is what the statistical cross-checks exploit.
//!
//! Every exact mode lowers to [`EvidenceBatch`]es executed through the
//! existing [`InputRecipe`] machinery, so the platform backends (and their
//! parallel sharded execution path) serve all four exact modes unchanged;
//! the approximate modes run the model's [`crate::SamplerProgram`] over the
//! same evidence rows.
//! `spn_platforms::Engine::execute_query` is the high-level entry point;
//! [`reference_query`] is the evaluator-backed oracle used by tests and the
//! benchmark checksums.

use crate::batch::{EvidenceBatch, InputRecipe, Obs};
use crate::eval::Evaluator;
use crate::evidence::Evidence;
use crate::flatten::{LeafSource, OpKind, OpList, OperandRef};
use crate::graph::Spn;
use crate::numeric::NumericMode;
use crate::sample::SampleBatch;
use crate::vectorized::run_lanes;
use crate::{Result, SpnError};

/// The inference workload a batch of queries asks for.
///
/// The derived `Ord` follows declaration order and gives per-mode tables
/// and metrics keys a stable sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueryMode {
    /// Probability of a fully observed assignment (one pass).
    Joint,
    /// Probability of a partial observation, unobserved variables summed out
    /// (one pass).
    Marginal,
    /// Most probable completion of a partial observation via max-product
    /// evaluation with argmax traceback (one pass over the max-product
    /// program).
    Map,
    /// `P(target | given)` as a ratio of two passes.
    Conditional,
    /// `n_samples` conditional draws per row from the sampling engine, with
    /// per-sample weights and a standard error per row (approximate).
    Sample,
    /// Monte-Carlo estimate of `P(e)` per row with its standard error
    /// (approximate; the exact counterpart of one marginal query).
    Expectation,
}

impl QueryMode {
    /// Every mode, in presentation order.
    pub const ALL: [QueryMode; 6] = [
        QueryMode::Joint,
        QueryMode::Marginal,
        QueryMode::Map,
        QueryMode::Conditional,
        QueryMode::Sample,
        QueryMode::Expectation,
    ];

    /// Lower-case display name (used in benchmark records and tables).
    pub fn name(self) -> &'static str {
        match self {
            QueryMode::Joint => "joint",
            QueryMode::Marginal => "marginal",
            QueryMode::Map => "map",
            QueryMode::Conditional => "conditional",
            QueryMode::Sample => "sample",
            QueryMode::Expectation => "expectation",
        }
    }

    /// Parses a lower-case mode name (the inverse of [`QueryMode::name`]).
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::Invalid`] naming the unknown mode.
    pub fn from_name(name: &str) -> Result<QueryMode> {
        QueryMode::ALL
            .into_iter()
            .find(|mode| mode.name() == name)
            .ok_or_else(|| {
                SpnError::invalid(format!(
                    "unknown query mode {name:?} (expected joint, marginal, map, conditional, \
                     sample or expectation)"
                ))
            })
    }

    /// Returns `true` for the sampling-backed modes whose answers are
    /// estimates with a standard error rather than exact values.
    pub fn is_approximate(self) -> bool {
        matches!(self, QueryMode::Sample | QueryMode::Expectation)
    }
}

impl std::fmt::Display for QueryMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A dense batch of conditional queries `P(target | given)`.
///
/// Stored as two parallel [`EvidenceBatch`]es of equal length: the
/// *numerator* rows merge target and conditioning observations (target wins
/// on overlap) and the *denominator* rows
/// hold the conditioning observations alone.  Execution is two ordinary
/// batched passes plus one division per query.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConditionalBatch {
    numerator: EvidenceBatch,
    denominator: EvidenceBatch,
}

impl ConditionalBatch {
    /// Creates an empty conditional batch over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        ConditionalBatch {
            numerator: EvidenceBatch::new(num_vars),
            denominator: EvidenceBatch::new(num_vars),
        }
    }

    /// Appends one query `P(target | given)`.
    ///
    /// Target observations take precedence over conflicting conditioning
    /// observations.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::EvidenceMismatch`] when either evidence covers a
    /// different number of variables than the batch.
    pub fn push(&mut self, target: &Evidence, given: &Evidence) -> Result<()> {
        let mut joint = given.clone();
        if joint.num_vars() != target.num_vars() {
            return Err(SpnError::EvidenceMismatch {
                evidence_vars: target.num_vars(),
                spn_vars: joint.num_vars(),
            });
        }
        for (var, value) in target.iter_observed() {
            joint.observe(var, value);
        }
        self.numerator.push(&joint)?;
        self.denominator.push(given)
    }

    /// Number of conditional queries in the batch.
    pub(crate) fn len(&self) -> usize {
        self.numerator.len()
    }

    /// Number of variables every query covers.
    pub(crate) fn num_vars(&self) -> usize {
        self.numerator.num_vars()
    }

    /// Appends every query of `other`, keeping batch order (the conditional
    /// half of micro-batch coalescing).
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::EvidenceMismatch`] when the variable counts differ.
    pub(crate) fn extend_from(&mut self, other: &ConditionalBatch) -> Result<()> {
        self.numerator.extend_from(&other.numerator)?;
        self.denominator.extend_from(&other.denominator)
    }

    /// The merged `(target, given)` rows — the `P(target, given)` pass.
    pub fn numerator(&self) -> &EvidenceBatch {
        &self.numerator
    }

    /// The `given`-only rows — the `P(given)` pass.
    pub fn denominator(&self) -> &EvidenceBatch {
        &self.denominator
    }
}

/// A batch of same-mode queries, ready to hand to an engine.
///
/// ```
/// use spn_core::{EvidenceBatch, QueryBatch, QueryMode};
///
/// let mut batch = EvidenceBatch::new(3);
/// batch.push_marginal();
/// let query = QueryBatch::Marginal(batch);
/// assert_eq!(query.mode(), QueryMode::Marginal);
/// assert_eq!(query.len(), 1);
/// assert!(query.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum QueryBatch {
    /// Fully observed rows; [`QueryBatch::validate`] rejects partial ones.
    Joint(EvidenceBatch),
    /// Partial rows, unobserved variables summed out.
    Marginal(EvidenceBatch),
    /// Partial rows, unobserved variables maximised over (MPE completion).
    Map(EvidenceBatch),
    /// `(target, given)` pairs evaluated as a ratio of two passes.
    Conditional(ConditionalBatch),
    /// Partial rows answered with conditional draws from the sampler.
    Sample(SampleBatch),
    /// Partial rows answered with a Monte-Carlo estimate of `P(e)`.
    Expectation(SampleBatch),
}

impl QueryBatch {
    /// The mode of every query in the batch.
    pub fn mode(&self) -> QueryMode {
        match self {
            QueryBatch::Joint(_) => QueryMode::Joint,
            QueryBatch::Marginal(_) => QueryMode::Marginal,
            QueryBatch::Map(_) => QueryMode::Map,
            QueryBatch::Conditional(_) => QueryMode::Conditional,
            QueryBatch::Sample(_) => QueryMode::Sample,
            QueryBatch::Expectation(_) => QueryMode::Expectation,
        }
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        match self {
            QueryBatch::Joint(b) | QueryBatch::Marginal(b) | QueryBatch::Map(b) => b.len(),
            QueryBatch::Conditional(c) => c.len(),
            QueryBatch::Sample(s) | QueryBatch::Expectation(s) => s.len(),
        }
    }

    /// Returns `true` when the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of variables every query covers.
    pub fn num_vars(&self) -> usize {
        match self {
            QueryBatch::Joint(b) | QueryBatch::Marginal(b) | QueryBatch::Map(b) => b.num_vars(),
            QueryBatch::Conditional(c) => c.num_vars(),
            QueryBatch::Sample(s) | QueryBatch::Expectation(s) => s.num_vars(),
        }
    }

    /// Appends every query of `other`, which must be of the same mode, in
    /// batch order.
    ///
    /// This is how a serving micro-batcher coalesces many small same-mode
    /// request batches into one dense batch; because every execution backend
    /// applies an identical per-query kernel, the coalesced results equal the
    /// per-request results bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::Invalid`] on a mode or [`crate::SampleSpec`]
    /// mismatch and [`SpnError::EvidenceMismatch`] when the variable counts
    /// differ.
    pub fn try_extend(&mut self, other: &QueryBatch) -> Result<()> {
        match (self, other) {
            (QueryBatch::Joint(a), QueryBatch::Joint(b))
            | (QueryBatch::Marginal(a), QueryBatch::Marginal(b))
            | (QueryBatch::Map(a), QueryBatch::Map(b)) => a.extend_from(b),
            (QueryBatch::Conditional(a), QueryBatch::Conditional(b)) => a.extend_from(b),
            (QueryBatch::Sample(a), QueryBatch::Sample(b))
            | (QueryBatch::Expectation(a), QueryBatch::Expectation(b)) => a.try_extend(b),
            (a, b) => Err(SpnError::invalid(format!(
                "cannot coalesce a {} batch into a {} batch",
                b.mode(),
                a.mode()
            ))),
        }
    }

    /// Checks mode-specific well-formedness: joint rows must observe every
    /// variable; sampling batches need at least one sample per row.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::Invalid`] naming the offending query when a joint
    /// row leaves a variable unobserved, or when a sampling batch asks for
    /// zero samples.
    pub fn validate(&self) -> Result<()> {
        match self {
            QueryBatch::Joint(batch) => {
                for q in 0..batch.len() {
                    if !batch.is_row_complete(q) {
                        return Err(SpnError::invalid(format!(
                            "joint query {q} leaves variables unobserved; \
                             use QueryBatch::Marginal to sum them out"
                        )));
                    }
                }
                Ok(())
            }
            QueryBatch::Sample(s) | QueryBatch::Expectation(s) => s.validate(),
            _ => Ok(()),
        }
    }
}

/// Values (and, for MAP queries, maximising assignments) of one query batch.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// One value per query, in batch order: a probability for
    /// joint/marginal/conditional queries, the max-product circuit value for
    /// MAP queries.
    pub values: Vec<f64>,
    /// The maximising complete assignment per query; `Some` for MAP batches
    /// only.
    pub assignments: Option<Vec<Vec<bool>>>,
}

/// The max-product form of a flattened program, with argmax traceback.
///
/// Built once per compiled circuit (the MAP half of a query plan): holds the
/// rewritten [`OpList`] (sums → maximisations) and the [`InputRecipe`] that
/// fills its inputs from evidence batches.  The program can be executed by
/// any backend — it is an ordinary op list — and
/// [`MaxProductProgram::trace_assignment`] turns one executed query's
/// intermediate results into the maximising assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxProductProgram {
    ops: OpList,
    recipe: InputRecipe,
}

impl MaxProductProgram {
    /// Builds the max-product variant of `ops` plus its input recipe.
    pub fn from_op_list(ops: &OpList) -> MaxProductProgram {
        let max_ops = ops.to_max_product();
        let recipe = max_ops.input_recipe();
        MaxProductProgram {
            ops: max_ops,
            recipe,
        }
    }

    /// The max-product operation list (execute this on any backend).
    pub fn ops(&self) -> &OpList {
        &self.ops
    }

    /// The recipe filling the program's inputs from evidence batches.
    pub fn recipe(&self) -> &InputRecipe {
        &self.recipe
    }

    /// Runs the max-product program for query `q` of `batch`, reusing the
    /// caller's buffers, and returns the maximal circuit value (intermediate
    /// results stay readable in `results` for
    /// [`MaxProductProgram::trace_assignment`]).
    ///
    /// `inputs` and `results` are resized as needed and may be reused across
    /// queries; the caller must have validated `batch` via
    /// [`InputRecipe::check`] first.
    pub fn run_query(
        &self,
        batch: &EvidenceBatch,
        q: usize,
        inputs: &mut Vec<f64>,
        results: &mut Vec<f64>,
    ) -> f64 {
        inputs.resize(self.recipe.num_inputs(), 0.0);
        results.resize(self.ops.num_ops(), 0.0);
        self.recipe.fill_query(batch, q, inputs);
        let mut out = [0.0];
        run_lanes::<1>(&self.ops, inputs, results, &mut out);
        out[0]
    }

    /// Backtracks the argmax branches of one executed query and returns the
    /// maximising complete assignment.
    ///
    /// `inputs` and `results` must come from executing this program on `row`
    /// (e.g. via [`MaxProductProgram::run_query`]): at every [`OpKind::Max`]
    /// the larger operand is followed (the left one on ties, matching
    /// [`Spn::mpe`]'s first-wins rule), at every product both operands are.
    /// Indicator leaves record their variable's value; hard evidence in `row`
    /// overrides an indicator's preference, and variables the selected
    /// sub-circuit never mentions fall back to their observed value or
    /// `false` — the same completion rule as [`Spn::mpe`].
    ///
    /// # Panics
    ///
    /// Panics when `inputs`/`results` are shorter than the program or `row`
    /// covers fewer variables than the program.
    pub fn trace_assignment(&self, inputs: &[f64], results: &[f64], row: &[Obs]) -> Vec<bool> {
        assert!(inputs.len() >= self.ops.num_inputs(), "inputs too short");
        assert!(results.len() >= self.ops.num_ops(), "results too short");
        assert!(row.len() >= self.ops.num_vars(), "evidence row too short");
        let value = |r: OperandRef| match r {
            OperandRef::Input(k) => inputs[k as usize],
            OperandRef::Op(k) => results[k as usize],
        };
        let mut assignment: Vec<Option<bool>> = vec![None; self.ops.num_vars()];
        let mut stack: Vec<OperandRef> = vec![self.ops.output()];
        while let Some(r) = stack.pop() {
            match r {
                OperandRef::Input(k) => {
                    if let LeafSource::Indicator { var, value } = self.ops.inputs()[k as usize] {
                        // Hard evidence overrides the indicator's preference.
                        let v = row[var.index()].to_option().unwrap_or(value);
                        assignment[var.index()] = Some(v);
                    }
                }
                OperandRef::Op(k) => {
                    let op = self.ops.ops()[k as usize];
                    match op.kind {
                        OpKind::Max => {
                            // Ties keep the left operand: with the balanced
                            // reduction tree that is the earliest child,
                            // matching Spn::mpe's first-wins argmax.
                            if value(op.lhs) >= value(op.rhs) {
                                stack.push(op.lhs);
                            } else {
                                stack.push(op.rhs);
                            }
                        }
                        OpKind::Mul | OpKind::Add | OpKind::LogAdd | OpKind::Sam => {
                            stack.push(op.lhs);
                            stack.push(op.rhs);
                        }
                    }
                }
            }
        }
        assignment
            .iter()
            .enumerate()
            .map(|(var, v)| v.or(row[var].to_option()).unwrap_or(false))
            .collect()
    }
}

/// Answers a query batch with the reference [`Evaluator`] (its max-product
/// pass for MAP queries), in the linear domain.
///
/// This is the oracle every execution backend is checked against: tests and
/// the benchmark harness compare engine outputs to it.  See
/// [`reference_query_with`] for the mode-aware form.
///
/// # Errors
///
/// Returns [`SpnError::EvidenceMismatch`] on a variable-count mismatch,
/// [`SpnError::Invalid`] for malformed joint rows, and
/// [`SpnError::UndefinedConditional`] for a conditional query whose
/// conditioning evidence has probability zero.
pub fn reference_query(spn: &Spn, query: &QueryBatch) -> Result<QueryResult> {
    reference_query_with(spn, query, NumericMode::Linear)
}

/// Answers a query batch with the reference [`Evaluator`] in the requested
/// numeric domain.
///
/// In [`NumericMode::Log`] the oracle runs `Evaluator::evaluate_log` (and
/// `Evaluator::mpe_log` for MAP queries) and every returned value is a natural
/// log — finite where the linear value would underflow to `0.0`; conditional
/// queries become a log-space subtraction.
///
/// # Errors
///
/// As for [`reference_query`].
pub fn reference_query_with(
    spn: &Spn,
    query: &QueryBatch,
    mode: NumericMode,
) -> Result<QueryResult> {
    query.validate()?;
    let mut evaluator = Evaluator::new(spn);
    let mut run_batch = |batch: &EvidenceBatch| -> Result<Vec<f64>> {
        match mode {
            NumericMode::Linear => {
                let mut values = Vec::new();
                evaluator.evaluate_batch(batch, &mut values)?;
                Ok(values)
            }
            NumericMode::Log => {
                let mut values = Vec::new();
                evaluator.evaluate_log_batch(batch, &mut values)?;
                Ok(values.into_iter().map(crate::LogProb::ln).collect())
            }
        }
    };
    match query {
        QueryBatch::Joint(batch) | QueryBatch::Marginal(batch) => Ok(QueryResult {
            values: run_batch(batch)?,
            assignments: None,
        }),
        QueryBatch::Map(batch) => {
            let mut values = Vec::with_capacity(batch.len());
            let mut assignments = Vec::with_capacity(batch.len());
            for q in 0..batch.len() {
                let result = match mode {
                    NumericMode::Linear => evaluator.mpe(&batch.to_evidence(q))?,
                    NumericMode::Log => evaluator.mpe_log(&batch.to_evidence(q))?,
                };
                values.push(result.value);
                assignments.push(result.assignment);
            }
            Ok(QueryResult {
                values,
                assignments: Some(assignments),
            })
        }
        QueryBatch::Conditional(cond) => {
            let joint = run_batch(cond.numerator())?;
            let given = run_batch(cond.denominator())?;
            Ok(QueryResult {
                values: conditional_values(mode, joint, &given)?,
                assignments: None,
            })
        }
        // The oracle answers the approximate modes *exactly*: one evidence
        // probability per row — the quantity an expectation query estimates
        // and the normaliser a sample query's weights integrate to.  The
        // statistical cross-checks compare estimator output against this.
        QueryBatch::Sample(s) | QueryBatch::Expectation(s) => Ok(QueryResult {
            values: run_batch(s.rows())?,
            assignments: None,
        }),
    }
}

/// Combines a conditional batch's two passes into `P(target | given)` —
/// the final step of every conditional query path (the reference oracle and
/// the engines share this policy).
///
/// In the linear domain this divides; in the log domain it *subtracts*
/// (`ln P(target, given) - ln P(given)`), which is exactly why log-mode
/// conditionals cannot fail by underflow: the denominator is `-inf` only
/// when the conditioning evidence has a true structural probability of zero.
///
/// # Errors
///
/// Returns [`SpnError::UndefinedConditional`] — carrying the raw
/// numerator/denominator so callers can distinguish structural zeros from
/// linear-domain underflow — for the first query whose conditioning
/// evidence has probability zero.
pub fn conditional_values(
    mode: NumericMode,
    numerator: Vec<f64>,
    denominator: &[f64],
) -> Result<Vec<f64>> {
    numerator
        .into_iter()
        .zip(denominator)
        .enumerate()
        .map(|(q, (num, den))| {
            let zero = match mode {
                NumericMode::Linear => *den == 0.0,
                NumericMode::Log => *den == f64::NEG_INFINITY,
            };
            if zero {
                Err(SpnError::UndefinedConditional {
                    query: q,
                    numerator: num,
                    denominator: *den,
                    mode,
                })
            } else {
                Ok(match mode {
                    NumericMode::Linear => num / den,
                    NumericMode::Log => num - den,
                })
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{random_spn, RandomSpnConfig};
    use crate::{SpnBuilder, VarId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// P(X0, X1) = P(X0) P(X1) with P(X0=1) = 0.2, P(X1=1) = 0.9.
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
    fn mode_names() {
        assert_eq!(QueryMode::Joint.to_string(), "joint");
        assert_eq!(QueryMode::ALL.len(), 6);
        assert_eq!(QueryMode::from_name("sample").unwrap(), QueryMode::Sample);
        assert_eq!(
            QueryMode::from_name("expectation").unwrap(),
            QueryMode::Expectation
        );
        assert!(QueryMode::Sample.is_approximate());
        assert!(QueryMode::Expectation.is_approximate());
        assert!(!QueryMode::Marginal.is_approximate());
        for mode in QueryMode::ALL {
            assert_eq!(QueryMode::from_name(mode.name()).unwrap(), mode);
        }
    }

    #[test]
    fn joint_validation_rejects_partial_rows() {
        let mut batch = EvidenceBatch::new(2);
        batch.push_assignment(&[true, false]).unwrap();
        assert!(QueryBatch::Joint(batch.clone()).validate().is_ok());
        batch.push_marginal();
        let query = QueryBatch::Joint(batch.clone());
        assert!(query.validate().is_err());
        // The same rows are fine as a marginal batch.
        assert!(QueryBatch::Marginal(batch).validate().is_ok());
    }

    #[test]
    fn conditional_batch_merges_target_over_given() {
        let mut cond = ConditionalBatch::new(2);
        let mut target = Evidence::marginal(2);
        target.observe(0, true);
        let mut given = Evidence::marginal(2);
        given.observe(0, false); // conflicting: target wins
        given.observe(1, true);
        cond.push(&target, &given).unwrap();
        assert_eq!(cond.len(), 1);
        assert_eq!(cond.numerator().to_evidence(0).value(0), Some(true));
        assert_eq!(cond.numerator().to_evidence(0).value(1), Some(true));
        assert_eq!(cond.denominator().to_evidence(0).value(0), Some(false));
        // Arity mismatches are rejected.
        assert!(cond.push(&Evidence::marginal(3), &given).is_err());
        assert!(cond
            .push(&Evidence::marginal(2), &Evidence::marginal(5))
            .is_err());
    }

    #[test]
    fn reference_marginal_and_conditional_match_closed_form() {
        let spn = independent_pair();
        let mut batch = EvidenceBatch::new(2);
        let mut e = Evidence::marginal(2);
        e.observe(0, true);
        batch.push(&e).unwrap();
        let result = reference_query(&spn, &QueryBatch::Marginal(batch)).unwrap();
        assert!((result.values[0] - 0.2).abs() < 1e-12);

        let mut cond = ConditionalBatch::new(2);
        let mut target = Evidence::marginal(2);
        target.observe(0, true);
        let mut given = Evidence::marginal(2);
        given.observe(1, true);
        cond.push(&target, &given).unwrap();
        let result = reference_query(&spn, &QueryBatch::Conditional(cond)).unwrap();
        // Independent variables: P(X0 | X1) = P(X0) = 0.2.
        assert!((result.values[0] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn reference_conditional_rejects_zero_probability_evidence() {
        let mut b = SpnBuilder::new(1);
        let x = b.indicator(VarId(0), true);
        let nx = b.indicator(VarId(0), false);
        let root = b.sum(vec![(x, 1.0), (nx, 0.0)]).unwrap();
        let spn = b.finish(root).unwrap();
        let mut cond = ConditionalBatch::new(1);
        let mut given = Evidence::marginal(1);
        given.observe(0, false);
        cond.push(&Evidence::marginal(1), &given).unwrap();
        let err = reference_query(&spn, &QueryBatch::Conditional(cond.clone())).unwrap_err();
        assert!(matches!(
            err,
            SpnError::UndefinedConditional {
                query: 0,
                denominator,
                mode: NumericMode::Linear,
                ..
            } if denominator == 0.0
        ));
        // A structural zero stays an error in the log domain too, with the
        // denominator reported as -inf.
        let err = reference_query_with(&spn, &QueryBatch::Conditional(cond), NumericMode::Log)
            .unwrap_err();
        assert!(matches!(
            err,
            SpnError::UndefinedConditional {
                denominator,
                mode: NumericMode::Log,
                ..
            } if denominator == f64::NEG_INFINITY
        ));
    }

    #[test]
    fn log_reference_matches_linear_reference() {
        let spn = independent_pair();
        let mut batch = EvidenceBatch::new(2);
        batch.push_marginal();
        batch.push_assignment(&[true, false]).unwrap();
        let mut e = Evidence::marginal(2);
        e.observe(1, true);
        batch.push(&e).unwrap();

        for query in [
            QueryBatch::Marginal(batch.clone()),
            QueryBatch::Map(batch.clone()),
        ] {
            let linear = reference_query(&spn, &query).unwrap();
            let log = reference_query_with(&spn, &query, NumericMode::Log).unwrap();
            assert_eq!(log.assignments, linear.assignments);
            for (a, b) in log.values.iter().zip(&linear.values) {
                assert!((a.exp() - b).abs() < 1e-12, "exp({a}) vs {b}");
            }
        }

        let mut cond = ConditionalBatch::new(2);
        let mut target = Evidence::marginal(2);
        target.observe(0, true);
        cond.push(&target, &e).unwrap();
        let linear = reference_query(&spn, &QueryBatch::Conditional(cond.clone())).unwrap();
        let log =
            reference_query_with(&spn, &QueryBatch::Conditional(cond), NumericMode::Log).unwrap();
        assert!((log.values[0].exp() - linear.values[0]).abs() < 1e-12);
    }

    #[test]
    fn max_product_trace_matches_spn_mpe() {
        let mut rng = StdRng::seed_from_u64(77);
        for vars in [4usize, 9, 14] {
            let spn = random_spn(&RandomSpnConfig::with_vars(vars), &mut rng);
            let ops = OpList::from_spn(&spn);
            let program = MaxProductProgram::from_op_list(&ops);

            let mut batch = EvidenceBatch::new(vars);
            batch.push_marginal();
            let mut e = Evidence::marginal(vars);
            e.observe(0, true);
            e.observe(vars / 2, false);
            batch.push(&e).unwrap();

            let mut inputs = Vec::new();
            let mut results = Vec::new();
            for q in 0..batch.len() {
                let value = program.run_query(&batch, q, &mut inputs, &mut results);
                let traced = program.trace_assignment(&inputs, &results, batch.query(q));
                let mpe = spn.mpe(&batch.to_evidence(q)).unwrap();
                let tolerance = 1e-9 * mpe.value.abs().max(1e-12);
                assert!(
                    (value - mpe.value).abs() <= tolerance,
                    "vars {vars} query {q}: {value} vs {}",
                    mpe.value
                );
                // The traced assignment achieves the maximal value (it may
                // differ from mpe's pick only on exact ties).
                let achieved = spn.evaluate(&Evidence::from_assignment(&traced)).unwrap();
                let mpe_achieved = spn
                    .evaluate(&Evidence::from_assignment(&mpe.assignment))
                    .unwrap();
                assert!(
                    (achieved - mpe_achieved).abs() <= 1e-9 * mpe_achieved.abs().max(1e-12),
                    "vars {vars} query {q}: traced {achieved} vs mpe {mpe_achieved}"
                );
                // Hard evidence is respected.
                for (var, value) in batch.to_evidence(q).iter_observed() {
                    assert_eq!(traced[var], value, "vars {vars} query {q} var {var}");
                }
            }
        }
    }

    #[test]
    fn max_product_program_shares_input_layout() {
        let spn = independent_pair();
        let ops = OpList::from_spn(&spn);
        let program = MaxProductProgram::from_op_list(&ops);
        assert_eq!(program.ops().num_inputs(), ops.num_inputs());
        assert_eq!(program.ops().num_ops(), ops.num_ops());
        assert_eq!(program.recipe().num_inputs(), ops.num_inputs());
        assert!(program.ops().ops().iter().all(|op| op.kind != OpKind::Add));
    }

    #[test]
    fn reference_map_completes_the_evidence() {
        let spn = independent_pair();
        let mut batch = EvidenceBatch::new(2);
        batch.push_marginal();
        let mut e = Evidence::marginal(2);
        e.observe(0, true);
        batch.push(&e).unwrap();
        let result = reference_query(&spn, &QueryBatch::Map(batch)).unwrap();
        let assignments = result.assignments.as_ref().unwrap();
        assert_eq!(assignments[0], vec![false, true]);
        assert!((result.values[0] - 0.8 * 0.9).abs() < 1e-12);
        assert_eq!(assignments[1], vec![true, true]);
        assert!((result.values[1] - 0.2 * 0.9).abs() < 1e-12);
    }
}
