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
//!   computes the maximal value, and [`MaxProductProgram::trace_batch`]
//!   backtracks the argmax branches, from one bit per maximisation and
//!   query, to recover the maximising assignment.
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
//! existing [`crate::batch::InputRecipe`] machinery, so the platform
//! backends (and their parallel sharded execution path) serve all four
//! exact modes unchanged; the approximate modes run the model's
//! [`crate::SamplerProgram`] over the same evidence rows.
//! `spn_platforms::Engine::execute_query` is the high-level entry point;
//! [`reference_query`] is the evaluator-backed oracle used by tests and the
//! benchmark checksums.

use crate::batch::{EvidenceBatch, Obs};
use crate::eval::Evaluator;
use crate::evidence::Evidence;
use crate::flatten::{LeafSource, OpKind, OpList, OperandRef};
use crate::graph::Spn;
use crate::numeric::NumericMode;
use crate::sample::SampleBatch;
use crate::vectorized::{normalize_lanes, LaneProgram, MAX_LANES};
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
/// rewritten [`OpList`] (sums → maximisations) and its register-allocated
/// [`LaneProgram`].  The op list can be executed by any backend — it is an
/// ordinary op list — for the values; the assignments come from one
/// traceback walk down the argmax branches, which needs to know at every
/// [`OpKind::Max`] whether its left operand won:
///
/// * [`MaxProductProgram::trace_batch`] runs the lane program over a whole
///   batch once, recording one bit per `Max` step and query, and walks each
///   block of queries from those bits;
/// * [`MaxProductProgram::trace_assignment`] compares one executed query's
///   intermediate values instead, so an interpreter's pass can be traced
///   independently of the lane program.
///
/// Both apply the same test (`lhs >= rhs`: ties keep the left operand, a
/// NaN goes right) to the same bits, so they return the same assignments.
///
/// ```
/// use spn_core::flatten::OpList;
/// use spn_core::query::{MaxProductProgram, TraceScratch};
/// use spn_core::random::{random_spn, RandomSpnConfig};
/// use spn_core::{Evidence, EvidenceBatch};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let spn = random_spn(&RandomSpnConfig::with_vars(6), &mut StdRng::seed_from_u64(5));
/// let program = MaxProductProgram::from_op_list(&OpList::from_spn(&spn));
/// let mut e = Evidence::marginal(6);
/// e.observe(2, true);
/// let batch = EvidenceBatch::from_evidences(6, &[Evidence::marginal(6), e.clone()]).unwrap();
/// let assignments = program.trace_batch(&batch, &mut TraceScratch::default()).unwrap();
/// assert_eq!(assignments[1], spn.mpe(&e).unwrap().assignment);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MaxProductProgram {
    ops: OpList,
    lanes: LaneProgram,
    /// One entry per op, what the traceback walk reads of it.
    links: Vec<TraceOp>,
    /// Where the walk starts.
    root: Link,
}

/// Where the traceback goes from an operand: on to an op, to the indicator
/// `[var = value]` (as its index `2·var + value`), or nowhere (a
/// parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Link {
    Op(u32),
    Indicator(u32),
    Param,
}

impl Link {
    /// The link of `operand` in `ops`.
    fn of(ops: &OpList, operand: OperandRef) -> Link {
        match operand {
            OperandRef::Op(k) => Link::Op(k),
            OperandRef::Input(k) => match ops.inputs()[k as usize] {
                LeafSource::Indicator { var, value } => {
                    Link::Indicator(2 * var.0 + u32::from(value))
                }
                LeafSource::Param(_) => Link::Param,
            },
        }
    }
}

/// An op as the traceback walk sees it: its two operands' links and, for a
/// `Max` op, which of a block's winner masks is its (the `Max` ops before
/// it); every other op's operands are both followed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TraceOp {
    lhs: Link,
    rhs: Link,
    winner_word: Option<u32>,
}

/// Reusable storage of [`MaxProductProgram::trace_batch`]: the lane
/// program's register file, one block's winner masks, and the traceback's
/// lane masks of the ops and indicators each query reaches.  Grown on first
/// use, then reused by every later batch of any program.
#[derive(Debug, Clone, Default)]
pub struct TraceScratch {
    registers: Vec<f64>,
    winners: Vec<u32>,
    reached: Vec<u32>,
    indicators: Vec<u32>,
}

impl MaxProductProgram {
    /// Builds the max-product variant of `ops` plus its lane program.
    pub fn from_op_list(ops: &OpList) -> MaxProductProgram {
        let max_ops = ops.to_max_product();
        let lanes = LaneProgram::from_op_list(&max_ops);
        let mut maxes = 0;
        let links = max_ops
            .ops()
            .iter()
            .map(|op| TraceOp {
                lhs: Link::of(&max_ops, op.lhs),
                rhs: Link::of(&max_ops, op.rhs),
                winner_word: (op.kind == OpKind::Max).then(|| {
                    maxes += 1;
                    maxes - 1
                }),
            })
            .collect();
        MaxProductProgram {
            root: Link::of(&max_ops, max_ops.output()),
            ops: max_ops,
            lanes,
            links,
        }
    }

    /// The max-product operation list (execute this on any backend).
    pub fn ops(&self) -> &OpList {
        &self.ops
    }

    /// The maximising complete assignment of every query of `batch`, in
    /// batch order.
    ///
    /// The batch runs through the lane program in blocks of up to
    /// [`MAX_LANES`] queries, and each block's pass records which operand
    /// won each `Max` step per query (one `u32` per step); the block's
    /// queries are then traced together from those bits.  The storage is
    /// `scratch`'s, so a call allocates only the assignments it returns.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::EvidenceMismatch`] on a variable-count mismatch.
    pub fn trace_batch(
        &self,
        batch: &EvidenceBatch,
        scratch: &mut TraceScratch,
    ) -> Result<Vec<Vec<bool>>> {
        self.lanes.check(batch)?;
        let TraceScratch {
            registers,
            winners,
            reached,
            indicators,
        } = scratch;
        // The first block is the widest: the register file grows there and
        // is only re-sliced after.
        registers.resize(self.lanes.slots() * normalize_lanes(batch.len()), 0.0);
        winners.resize(self.lanes.max_steps(), 0);
        let mut roots = [0.0; MAX_LANES];
        let mut assignments = Vec::with_capacity(batch.len());
        let mut start = 0;
        while start < batch.len() {
            let lanes = normalize_lanes(batch.len() - start);
            self.lanes
                .run_block_recording(batch, start, lanes, registers, winners, &mut roots);
            let lhs_wins = |_: usize, word: u32| winners[word as usize];
            self.walk(lanes, lhs_wins, reached, indicators);
            for lane in 0..lanes {
                assignments.push(complete(batch.query(start + lane), indicators, lane));
            }
            start += lanes;
        }
        Ok(assignments)
    }

    /// Backtracks the argmax branches of one executed query and returns the
    /// maximising complete assignment.
    ///
    /// `inputs` and `results` must come from executing this program's
    /// [`MaxProductProgram::ops`] on `row` (e.g. through
    /// [`OpList::run_into`]): at every [`OpKind::Max`] the operand with the
    /// larger value is followed, where [`MaxProductProgram::trace_batch`]
    /// follows its recorded bits.
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
        let lhs_wins = |k: usize, _: u32| {
            let op = self.ops.ops()[k];
            u32::from(value(op.lhs) >= value(op.rhs))
        };
        let mut indicators = Vec::new();
        self.walk(1, lhs_wins, &mut Vec::new(), &mut indicators);
        complete(row, &indicators, 0)
    }

    /// The one traceback walk, over `lanes` queries at once: from the root,
    /// every product's operands are followed and, at a `Max` op `k`, the
    /// left operand by the lanes `lhs_wins(k, m)` sets for its `m`-th winner
    /// mask (ties keep the left one: with the balanced reduction tree that
    /// is the earliest child, matching [`Spn::mpe`]'s first-wins argmax),
    /// the right operand by the others.  Operands come before their op, so
    /// one pass over the ops from the last down carries each op's mask of
    /// reaching lanes to its operands, and `indicators[2·var + value]` ends
    /// up holding the lanes that reach the indicator `[var = value]`.
    fn walk(
        &self,
        lanes: usize,
        lhs_wins: impl Fn(usize, u32) -> u32,
        reached: &mut Vec<u32>,
        indicators: &mut Vec<u32>,
    ) {
        reached.clear();
        reached.resize(self.links.len(), 0);
        indicators.clear();
        indicators.resize(2 * self.ops.num_vars(), 0);
        let reach = |reached: &mut [u32], indicators: &mut [u32], link, mask| match link {
            Link::Op(k) => reached[k as usize] |= mask,
            Link::Indicator(i) => indicators[i as usize] |= mask,
            Link::Param => {}
        };
        let all = u32::MAX >> (u32::BITS as usize - lanes);
        reach(reached, indicators, self.root, all);
        for (k, op) in self.links.iter().enumerate().rev() {
            let mask = reached[k];
            if mask == 0 {
                continue;
            }
            let lhs = op.winner_word.map_or(mask, |word| mask & lhs_wins(k, word));
            let rhs = op.winner_word.map_or(mask, |_| mask & !lhs);
            reach(reached, indicators, op.lhs, lhs);
            reach(reached, indicators, op.rhs, rhs);
        }
    }
}

/// Lane `lane`'s answer after a [`MaxProductProgram::walk`]: the row's
/// observations, and for an unobserved variable `true` exactly when its
/// selected sub-circuit reaches the indicator `[var = true]`.  Hard evidence
/// overrides an indicator's preference, and a variable the sub-circuit never
/// mentions is `false` — the same completion rule as [`Spn::mpe`].  (Only a
/// non-decomposable circuit reaches both indicators of a variable; `true`
/// wins there.)
fn complete(row: &[Obs], indicators: &[u32], lane: usize) -> Vec<bool> {
    row.iter()
        .zip(indicators.chunks_exact(2))
        .map(|(&obs, pair)| match obs {
            Obs::True => true,
            Obs::False => false,
            Obs::Marginal => pair[1] >> lane & 1 != 0,
        })
        .collect()
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
        let mut scratch = TraceScratch::default();
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

            let traced = program.trace_batch(&batch, &mut scratch).unwrap();
            assert_eq!(traced.len(), batch.len());
            for (q, traced) in traced.iter().enumerate() {
                let evidence = batch.to_evidence(q);
                let value = program.ops().evaluate(&evidence).unwrap();
                let mpe = spn.mpe(&evidence).unwrap();
                let tolerance = 1e-9 * mpe.value.abs().max(1e-12);
                assert!(
                    (value - mpe.value).abs() <= tolerance,
                    "vars {vars} query {q}: {value} vs {}",
                    mpe.value
                );
                // The traced assignment achieves the maximal value (it may
                // differ from mpe's pick only on exact ties).
                let achieved = spn.evaluate(&Evidence::from_assignment(traced)).unwrap();
                let mpe_achieved = spn
                    .evaluate(&Evidence::from_assignment(&mpe.assignment))
                    .unwrap();
                assert!(
                    (achieved - mpe_achieved).abs() <= 1e-9 * mpe_achieved.abs().max(1e-12),
                    "vars {vars} query {q}: traced {achieved} vs mpe {mpe_achieved}"
                );
                // Hard evidence is respected.
                for (var, value) in evidence.iter_observed() {
                    assert_eq!(traced[var], value, "vars {vars} query {q} var {var}");
                }
            }
        }
    }

    /// Rows cycling every variable through marginal, `true` and `false`,
    /// enough of them for a full block and every narrower width after it.
    fn mixed_rows(num_vars: usize) -> EvidenceBatch {
        let mut batch = EvidenceBatch::new(num_vars);
        for q in 0..MAX_LANES + 31 {
            let row = (0..num_vars)
                .map(|v| [None, Some(true), Some(false)][(q * 7 + v) % 3])
                .collect();
            batch.push(&Evidence::from_options(row)).unwrap();
        }
        batch
    }

    #[test]
    fn winner_bits_trace_the_interpreters_assignments_in_every_mode_and_precision() {
        let mut rng = StdRng::seed_from_u64(78);
        let spn = random_spn(&RandomSpnConfig::with_vars(9), &mut rng);
        let batch = mixed_rows(9);
        let mut scratch = TraceScratch::default();
        for mode in NumericMode::ALL {
            for precision in crate::Precision::SWEEP {
                let ops = OpList::from_spn(&spn)
                    .with_mode(mode)
                    .with_precision(precision);
                let program = MaxProductProgram::from_op_list(&ops);
                let traced = program.trace_batch(&batch, &mut scratch).unwrap();
                let recipe = program.ops().input_recipe();
                let mut inputs = vec![0.0; recipe.num_inputs()];
                let mut results = vec![0.0; program.ops().num_ops()];
                for (q, traced) in traced.iter().enumerate() {
                    recipe.fill_query(&batch, q, &mut inputs);
                    program.ops().run_into(&inputs, &mut results);
                    let want = program.trace_assignment(&inputs, &results, batch.query(q));
                    assert_eq!(traced, &want, "{mode}/{precision} query {q}");
                }
            }
        }
    }

    #[test]
    fn a_nan_goes_right_and_a_tie_goes_left() {
        use crate::flatten::Op;
        use OperandRef::{Input, Op as R};
        let indicator = |var, value| LeafSource::Indicator {
            var: VarId(var),
            value,
        };
        // max(x0 · NaN, ¬x0 · 1) then max(x1 · ½, ¬x1 · ½): the first Max
        // sees a NaN on its left, the second a tie.
        let inputs = vec![
            indicator(0, true),
            indicator(0, false),
            indicator(1, true),
            indicator(1, false),
            LeafSource::Param(f64::NAN),
            LeafSource::Param(1.0),
            LeafSource::Param(0.5),
        ];
        let op = |kind, lhs, rhs| Op { kind, lhs, rhs };
        let ops = vec![
            op(OpKind::Mul, Input(0), Input(4)),
            op(OpKind::Mul, Input(1), Input(5)),
            op(OpKind::Add, R(0), R(1)),
            op(OpKind::Mul, Input(2), Input(6)),
            op(OpKind::Mul, Input(3), Input(6)),
            op(OpKind::Add, R(3), R(4)),
            op(OpKind::Mul, R(2), R(5)),
        ];
        let ops = OpList::from_parts(inputs, ops, R(6), 2, NumericMode::Linear);
        let program = MaxProductProgram::from_op_list(&ops);
        let batch = EvidenceBatch::marginals(2, 3);
        let traced = program
            .trace_batch(&batch, &mut TraceScratch::default())
            .unwrap();
        for assignment in traced {
            assert_eq!(assignment, [false, true]);
        }
    }

    #[test]
    fn max_product_program_shares_input_layout() {
        let spn = independent_pair();
        let ops = OpList::from_spn(&spn);
        let program = MaxProductProgram::from_op_list(&ops);
        assert_eq!(program.ops().num_inputs(), ops.num_inputs());
        assert_eq!(program.ops().num_ops(), ops.num_ops());
        assert!(program.ops().ops().iter().all(|op| op.kind != OpKind::Add));
        let maxes = program
            .ops()
            .ops()
            .iter()
            .filter(|op| op.kind == OpKind::Max);
        assert_eq!(program.lanes.max_steps(), maxes.count());
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
