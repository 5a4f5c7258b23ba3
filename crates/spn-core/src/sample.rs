//! Approximate inference by sampling: the stochastic engine beside the
//! exact one.
//!
//! The source paper's follow-up accelerators replace exact evaluation with
//! *discrete sampling* hardware (Knuth-Yao samplers in the 16nm SoC,
//! multi-core RISC-V discrete-sampling pipelines).  This module is the
//! software model of that direction:
//!
//! * `AliasTable` — O(1) discrete sampling of sum-node child
//!   distributions (the software stand-in for a Knuth-Yao sampler block),
//! * [`SamplerProgram`] — a compiled sampler for one SPN: prior *ancestral*
//!   sampling top-down through sum/product nodes, exact *conditional*
//!   sampling under evidence (one bottom-up pass of the reference sweep,
//!   [`crate::eval`] in its `Log` algebra, then a top-down descent
//!   re-weighted by child values), *likelihood-weighted* importance
//!   sampling, and *Gibbs* conditional resampling,
//! * [`SampleSpec`] / [`SampleBatch`] — the batched query forms behind the
//!   `sample` and `expectation` query modes of
//!   [`QueryBatch`](crate::QueryBatch).
//!
//! Every pass reads one table of sum-edge log weights lifted when the
//! sampler is built, which also feeds the alias tables and the conditional
//! descent.  Likelihood weighting scores a draw with two passes, the joint
//! `P(x_u, e)` and the prior `P(x_u)`, but only a row's *live order* — the
//! nodes whose scope meets its unobserved variables — can change between
//! its draws: the rest keep the values of one sweep under the row's
//! evidence (numerator) and of the prior sweep kept from construction
//! (denominator), the very values a full sweep would recompute.  So each
//! draw re-sweeps the live order only, and the weights are bit for bit
//! those of two full sweeps.
//!
//! Every estimate is paired with its standard error so callers can report
//! a confidence interval next to the answer, and every draw comes from a
//! per-row [`Pcg64`] stream (`stream = row index` within the originating
//! request), which makes results bit-for-bit reproducible no matter how
//! rows are sharded across workers or coalesced across requests.

use crate::batch::{EvidenceBatch, Obs};
use crate::eval::{sweep, LiftedWeights, Log};
use crate::graph::{Node, NodeId, Spn};
use crate::{Result, SpnError};
use rand::rngs::Pcg64;
use rand::{Rng, RngCore, StreamableRng};

/// Number of warm-up sweeps a Gibbs chain runs before recording samples.
pub(crate) const GIBBS_BURN_IN: usize = 50;

/// The sampling algorithm answering an approximate query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SampleMethod {
    /// Ancestral (forward) sampling: exact draws from the prior, or — under
    /// evidence — exact conditional draws via a bottom-up value pass
    /// followed by a re-weighted top-down descent.
    #[default]
    Ancestral,
    /// Likelihood weighting: prior draws of the unobserved variables,
    /// importance-weighted by `P(x_u, e) / P(x_u)`; the mean weight is an
    /// unbiased estimate of `P(e)`.  A draw re-sweeps only the nodes whose
    /// scope meets the row's unobserved variables; every other node keeps
    /// the value it has under the row's evidence (numerator) or the prior
    /// (denominator).
    LikelihoodWeighted,
    /// Gibbs conditional resampling: a Markov chain over the unobserved
    /// variables, initialised with an exact conditional draw and updated
    /// one variable at a time.  Produces conditional samples only — it
    /// cannot estimate `P(e)` (the chain never sees the normaliser).
    Gibbs,
}

impl SampleMethod {
    /// Canonical lowercase name (wire format).
    pub fn name(self) -> &'static str {
        match self {
            SampleMethod::Ancestral => "ancestral",
            SampleMethod::LikelihoodWeighted => "likelihood",
            SampleMethod::Gibbs => "gibbs",
        }
    }

    /// Parses a [`SampleMethod::name`] back into the method.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::Invalid`] for unknown names.
    pub fn from_name(name: &str) -> Result<SampleMethod> {
        match name {
            "ancestral" => Ok(SampleMethod::Ancestral),
            "likelihood" => Ok(SampleMethod::LikelihoodWeighted),
            "gibbs" => Ok(SampleMethod::Gibbs),
            _ => Err(SpnError::invalid(format!(
                "unknown sample method {name:?} (expected ancestral, likelihood or gibbs)"
            ))),
        }
    }
}

/// How an approximate query is to be answered: seed, sample count and
/// algorithm.  Part of the micro-batcher's coalescing key — only requests
/// with identical specs share a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleSpec {
    /// Base seed of the [`Pcg64`] stream family; row `r` of a request draws
    /// from stream `r` of this seed.
    pub seed: u64,
    /// Number of samples drawn per row.
    pub n_samples: u32,
    /// The sampling algorithm.
    pub method: SampleMethod,
}

impl Default for SampleSpec {
    fn default() -> SampleSpec {
        SampleSpec {
            seed: 0,
            n_samples: 1000,
            method: SampleMethod::Ancestral,
        }
    }
}

/// A batch of approximate queries: evidence rows plus the [`SampleSpec`]
/// answering them and one explicit PRNG stream id per row.
///
/// Streams are assigned `0..rows` when the batch is built and *travel with
/// the rows* from then on: coalescing two requests concatenates their
/// stream lists unchanged, and sharding slices them — so every row draws
/// from the same stream it would have used executed alone, serially.  That
/// is the whole reproducibility story: per-row results are a pure function
/// of `(model, row, spec, stream)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleBatch {
    rows: EvidenceBatch,
    spec: SampleSpec,
    streams: Vec<u64>,
}

impl SampleBatch {
    /// Builds a batch from evidence rows, assigning streams `0..rows`.
    pub fn new(rows: EvidenceBatch, spec: SampleSpec) -> SampleBatch {
        let streams = (0..rows.len() as u64).collect();
        SampleBatch {
            rows,
            spec,
            streams,
        }
    }

    /// The evidence rows.
    pub fn rows(&self) -> &EvidenceBatch {
        &self.rows
    }

    /// The spec shared by every row.
    pub fn spec(&self) -> SampleSpec {
        self.spec
    }

    /// The PRNG stream id of each row, parallel to the rows.
    pub(crate) fn streams(&self) -> &[u64] {
        &self.streams
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of variables every row covers.
    pub(crate) fn num_vars(&self) -> usize {
        self.rows.num_vars()
    }

    /// Checks the spec is executable.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::Invalid`] when `n_samples` is zero.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.spec.n_samples == 0 {
            return Err(SpnError::invalid(
                "sample queries need n_samples >= 1".to_string(),
            ));
        }
        Ok(())
    }

    /// Appends every row of `other`, keeping its stream ids — the
    /// micro-batcher's coalescing primitive.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::Invalid`] when the specs differ and
    /// [`SpnError::EvidenceMismatch`] when the variable counts do.
    pub fn try_extend(&mut self, other: &SampleBatch) -> Result<()> {
        if other.spec != self.spec {
            return Err(SpnError::invalid(
                "cannot coalesce sample batches with differing specs".to_string(),
            ));
        }
        self.rows.extend_from(&other.rows)?;
        self.streams.extend_from_slice(&other.streams);
        Ok(())
    }

    /// Copies the contiguous row range `[start, start + count)` into a new
    /// batch, stream ids included — the parallel sharding primitive.
    ///
    /// # Panics
    ///
    /// Panics when the range reaches past the end of the batch.
    pub fn sub_batch(&self, start: usize, count: usize) -> SampleBatch {
        SampleBatch {
            rows: self.rows.sub_batch(start, count),
            spec: self.spec,
            streams: self.streams[start..start + count].to_vec(),
        }
    }
}

/// An alias table (Vose's method) over a discrete distribution: O(n) build,
/// O(1) draws — the software model of a Knuth-Yao discrete sampler block.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds the table for (unnormalised, non-negative) `weights`.
    ///
    /// Returns `None` when the distribution is degenerate: no outcomes, a
    /// negative or non-finite weight, or zero total mass.
    pub(crate) fn new(weights: &[f64]) -> Option<AliasTable> {
        let n = weights.len();
        if n == 0 || weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return None;
        }
        let total: f64 = weights.iter().sum();
        if !total.is_finite() || total <= 0.0 {
            return None;
        }
        let mut prob: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s] = l as u32;
            // Carve the donor's excess mass into the small bucket.
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers on either stack are full buckets up to rounding.
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
        }
        Some(AliasTable { prob, alias })
    }

    /// Draws one outcome index (two uniform draws: bucket, then coin).
    pub(crate) fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.next_f64() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

/// One row's estimate of its evidence probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RowEstimate {
    /// The (linear-domain) estimate of `P(evidence)`.
    pub value: f64,
    /// Standard error of the estimator (linear domain).
    pub std_err: f64,
}

/// One row's drawn samples.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RowSamples {
    /// The sampled complete assignments, one per draw.
    pub assignments: Vec<Vec<bool>>,
    /// Per-sample weights: `1.0` for the exact-draw methods (ancestral,
    /// Gibbs); the importance weight for likelihood weighting, whose mean
    /// estimates `P(evidence)`.
    pub weights: Vec<f64>,
    /// Standard error of the mean weight (zero for exact-draw methods).
    pub std_err: f64,
}

/// Batch-level result of an approximate query (the concatenation of its
/// per-row results, row-major).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SampleRun {
    /// `expectation`: one estimate per row.  `sample`: the per-sample
    /// weights, `n_samples` values per row.
    pub values: Vec<f64>,
    /// Standard error per row (linear domain, always present).
    pub std_err: Vec<f64>,
    /// `sample` mode only: the drawn assignments, `n_samples` per row.
    pub assignments: Option<Vec<Vec<bool>>>,
    /// Total samples drawn (rows × n_samples).
    pub samples_drawn: u64,
}

/// A compiled sampler for one SPN: the topological order, every sum edge's
/// log weight, the prior log value of every node, per-sum-node alias tables
/// over the children's *prior* mass (`weight × child partition value`), and
/// the graph itself for per-row value passes.
///
/// Built once per model (compile-once / sample-many, exactly like the
/// exact engine's programs) and shared read-only across workers.
#[derive(Debug, Clone)]
pub struct SamplerProgram {
    spn: Spn,
    order: Vec<NodeId>,
    /// Every sum edge's weight in the log domain (`-inf` for a zero).
    log_weights: LiftedWeights,
    /// Prior (all-marginal) log value of every node: where a row's
    /// likelihood-weighting denominator starts.
    prior: Vec<f64>,
    alias: Vec<Option<AliasTable>>,
}

impl SamplerProgram {
    /// Compiles the sampler for `spn`.
    pub fn new(spn: &Spn) -> SamplerProgram {
        let order = spn.topological_order();
        let log_weights = LiftedWeights::new::<Log>(spn);
        // Prior (all-marginal) node values, log domain so deep circuits
        // don't underflow.
        let mut prior = vec![f64::NEG_INFINITY; spn.num_nodes()];
        sweep::<Log>(spn, &order, &log_weights, |_, _| 1.0, &mut prior);
        let mut alias: Vec<Option<AliasTable>> = vec![None; spn.num_nodes()];
        for &id in &order {
            if let Node::Sum { children, .. } = spn.node(id) {
                // Child selection probability under the prior is
                // proportional to weight × child mass; normalise through
                // the max term so underflowed products still divide out.
                let terms: Vec<f64> = children
                    .iter()
                    .zip(log_weights.of(id))
                    .map(|(c, &lw)| lw + prior[c.index()])
                    .collect();
                let m = terms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                if m > f64::NEG_INFINITY {
                    let scaled: Vec<f64> = terms.iter().map(|t| (t - m).exp()).collect();
                    alias[id.index()] = AliasTable::new(&scaled);
                }
            }
        }
        SamplerProgram {
            spn: spn.clone(),
            order,
            log_weights,
            prior,
            alias,
        }
    }

    /// Bottom-up log-domain value of every node under `row` into the
    /// arena-indexed `out` (the reference sweep of [`crate::eval`] in its
    /// [`Log`] algebra); returns the root's.
    fn log_values(&self, row: &[Obs], out: &mut Vec<f64>) -> f64 {
        out.resize(self.spn.num_nodes(), f64::NEG_INFINITY);
        let indicator = |var: usize, value| row[var].indicator(value);
        sweep::<Log>(&self.spn, &self.order, &self.log_weights, indicator, out)
    }

    /// Fills `out[var]` with the observed value, or a fair coin for
    /// unobserved variables (kept only where no indicator on the sampled
    /// path overrides it — i.e. variables outside the root scope).
    fn prefill<R: RngCore + ?Sized>(&self, row: &[Obs], rng: &mut R, out: &mut [bool]) {
        for (var, o) in row.iter().enumerate() {
            out[var] = match o.to_option() {
                Some(v) => v,
                None => rng.gen_bool(0.5),
            };
        }
    }

    /// Draws one assignment from the prior (alias-table fast path) over a
    /// caller-owned depth-first stack, so a run of draws allocates nothing
    /// per draw.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::Invalid`] when a sum node on the path has zero
    /// total mass (no alias table).
    fn draw_prior_with<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut [bool],
        stack: &mut Vec<NodeId>,
    ) -> Result<()> {
        // `prefill` of an all-marginal row: a fair coin per variable, in
        // variable order.
        for cell in &mut out[..self.spn.num_vars()] {
            *cell = rng.gen_bool(0.5);
        }
        stack.clear();
        stack.push(self.spn.root());
        while let Some(id) = stack.pop() {
            match self.spn.node(id) {
                Node::Indicator { var, value } => out[var.index()] = *value,
                Node::Constant(_) => {}
                Node::Product { children } => stack.extend(children.iter().copied()),
                Node::Sum { children, .. } => {
                    let table = self.alias[id.index()].as_ref().ok_or_else(|| {
                        SpnError::invalid(format!(
                            "sum node {} has zero prior mass; cannot sample it",
                            id.0
                        ))
                    })?;
                    stack.push(children[table.sample(rng)]);
                }
            }
        }
        Ok(())
    }

    /// Draws one assignment from `P(x | row)` given the bottom-up values
    /// `lv` of `row` (from [`SamplerProgram::log_values`]).
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::Invalid`] when the evidence has probability
    /// zero (the conditional distribution is undefined).
    fn draw_conditional<R: RngCore + ?Sized>(
        &self,
        row: &[Obs],
        lv: &[f64],
        rng: &mut R,
        out: &mut [bool],
        stack: &mut Vec<NodeId>,
    ) -> Result<()> {
        if lv[self.spn.root().index()] == f64::NEG_INFINITY {
            return Err(SpnError::invalid(
                "evidence has probability zero; the conditional distribution is undefined"
                    .to_string(),
            ));
        }
        self.prefill(row, rng, out);
        stack.clear();
        stack.push(self.spn.root());
        while let Some(id) = stack.pop() {
            match self.spn.node(id) {
                Node::Indicator { var, value } => {
                    // Never inconsistent with an observation: indicators
                    // contradicting the evidence have value -inf and are
                    // never descended into.
                    out[var.index()] = *value;
                }
                Node::Constant(_) => {}
                Node::Product { children } => stack.extend(children.iter().copied()),
                Node::Sum { children, .. } => {
                    // Child c with probability w_c e^{lv_c} / e^{lv_node}.
                    let node_lv = lv[id.index()];
                    let u = rng.next_f64();
                    let mut acc = 0.0;
                    let mut chosen = None;
                    let mut last_positive = None;
                    for (c, &lw) in children.iter().zip(self.log_weights.of(id)) {
                        let p = (lw + lv[c.index()] - node_lv).exp();
                        if p > 0.0 {
                            last_positive = Some(*c);
                        }
                        acc += p;
                        if u < acc {
                            chosen = Some(*c);
                            break;
                        }
                    }
                    // Rounding can leave acc slightly below 1; fall back to
                    // the last child with positive mass.
                    let next = chosen.or(last_positive).ok_or_else(|| {
                        SpnError::invalid(format!(
                            "sum node {} has zero conditional mass; cannot sample it",
                            id.0
                        ))
                    })?;
                    stack.push(next);
                }
            }
        }
        Ok(())
    }

    /// Estimates `P(row)` with `spec.n_samples` draws from stream `stream`,
    /// over caller-owned `scratch` buffers.
    ///
    /// * Ancestral: prior draws scored by evidence agreement
    ///   (`p̂ = hits / n`, binomial standard error).
    /// * Likelihood weighting: mean importance weight (`E[w] = P(row)`),
    ///   with the sample standard error of the mean.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::Invalid`] for [`SampleMethod::Gibbs`] (a Gibbs
    /// chain cannot estimate the normaliser) and for degenerate samplers.
    fn expectation_row_with(
        &self,
        row: &[Obs],
        spec: SampleSpec,
        stream: u64,
        scratch: &mut Scratch,
    ) -> Result<RowEstimate> {
        let mut rng = Pcg64::with_stream(spec.seed, stream);
        let n = spec.n_samples as usize;
        let mut x = vec![false; self.spn.num_vars()];
        match spec.method {
            SampleMethod::Ancestral => {
                let mut hits = 0usize;
                for _ in 0..n {
                    self.draw_prior_with(&mut rng, &mut x, &mut scratch.stack)?;
                    if row_matches(row, &x) {
                        hits += 1;
                    }
                }
                let p = hits as f64 / n as f64;
                Ok(RowEstimate {
                    value: p,
                    std_err: (p * (1.0 - p) / n as f64).sqrt(),
                })
            }
            SampleMethod::LikelihoodWeighted => {
                let mut weights = Vec::with_capacity(n);
                self.prime_likelihood(row, scratch);
                for _ in 0..n {
                    self.draw_prior_with(&mut rng, &mut x, &mut scratch.stack)?;
                    weights.push(self.likelihood_weight(&x, scratch));
                }
                Ok(mean_and_std_err(&weights))
            }
            SampleMethod::Gibbs => Err(SpnError::invalid(
                "gibbs sampling cannot estimate an expectation (the chain never sees the \
                 normaliser); use ancestral or likelihood"
                    .to_string(),
            )),
        }
    }

    /// Draws `spec.n_samples` assignments conditioned on `row` from stream
    /// `stream`, over caller-owned `scratch` buffers.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::Invalid`] when the evidence has probability
    /// zero or a sum node on the path is degenerate.
    fn sample_row_with(
        &self,
        row: &[Obs],
        spec: SampleSpec,
        stream: u64,
        scratch: &mut Scratch,
    ) -> Result<RowSamples> {
        let mut rng = Pcg64::with_stream(spec.seed, stream);
        let n = spec.n_samples as usize;
        let observed = row.iter().any(|&o| o != Obs::Marginal);
        let mut assignments = Vec::with_capacity(n);
        let mut x = vec![false; self.spn.num_vars()];
        match spec.method {
            SampleMethod::Ancestral => {
                if observed {
                    let mut lv = Vec::new();
                    self.log_values(row, &mut lv);
                    for _ in 0..n {
                        self.draw_conditional(row, &lv, &mut rng, &mut x, &mut scratch.stack)?;
                        assignments.push(x.clone());
                    }
                } else {
                    for _ in 0..n {
                        self.draw_prior_with(&mut rng, &mut x, &mut scratch.stack)?;
                        assignments.push(x.clone());
                    }
                }
                Ok(RowSamples {
                    assignments,
                    weights: vec![1.0; n],
                    std_err: 0.0,
                })
            }
            SampleMethod::LikelihoodWeighted => {
                let mut weights = Vec::with_capacity(n);
                self.prime_likelihood(row, scratch);
                for _ in 0..n {
                    self.draw_prior_with(&mut rng, &mut x, &mut scratch.stack)?;
                    weights.push(self.likelihood_weight(&x, scratch));
                    // The recorded sample keeps the evidence values and the
                    // prior draw's unobserved coordinates.
                    let mut sample = x.clone();
                    for (var, o) in row.iter().enumerate() {
                        if let Some(v) = o.to_option() {
                            sample[var] = v;
                        }
                    }
                    assignments.push(sample);
                }
                let est = mean_and_std_err(&weights);
                Ok(RowSamples {
                    assignments,
                    weights,
                    std_err: est.std_err,
                })
            }
            SampleMethod::Gibbs => {
                let mut lv = Vec::new();
                self.log_values(row, &mut lv);
                // Exact conditional initialisation keeps the chain inside
                // the support from the first step.
                self.draw_conditional(row, &lv, &mut rng, &mut x, &mut scratch.stack)?;
                let mut scratch_row = vec![Obs::Marginal; self.spn.num_vars()];
                for sweep in 0..GIBBS_BURN_IN + n {
                    self.gibbs_sweep(row, &mut x, &mut rng, &mut lv, &mut scratch_row);
                    if sweep >= GIBBS_BURN_IN {
                        assignments.push(x.clone());
                    }
                }
                Ok(RowSamples {
                    assignments,
                    weights: vec![1.0; n],
                    std_err: 0.0,
                })
            }
        }
    }

    /// One Gibbs sweep: resample every unobserved variable in index order
    /// from its full conditional given the rest of the current state.
    fn gibbs_sweep<R: RngCore + ?Sized>(
        &self,
        row: &[Obs],
        x: &mut [bool],
        rng: &mut R,
        lv: &mut Vec<f64>,
        scratch_row: &mut [Obs],
    ) {
        for (var, cell) in scratch_row.iter_mut().enumerate() {
            *cell = if x[var] { Obs::True } else { Obs::False };
        }
        for var in 0..self.spn.num_vars() {
            if row[var] != Obs::Marginal {
                continue;
            }
            scratch_row[var] = Obs::True;
            let lp1 = self.log_values(scratch_row, lv);
            scratch_row[var] = Obs::False;
            let lp0 = self.log_values(scratch_row, lv);
            // The current state has positive probability, so at least one
            // of the two is finite.
            let p1 = if lp1 == f64::NEG_INFINITY {
                0.0
            } else if lp0 == f64::NEG_INFINITY {
                1.0
            } else {
                1.0 / (1.0 + (lp0 - lp1).exp())
            };
            x[var] = rng.gen_bool(p1);
            scratch_row[var] = if x[var] { Obs::True } else { Obs::False };
        }
    }

    /// Readies `scratch` for likelihood weighting on `row`: builds the
    /// row's live order (the sub-list of the topological order whose
    /// scopes meet its unobserved variables: an indicator of an unobserved
    /// variable, or any node with a live child), primes the numerator
    /// values with one full sweep under the row's evidence and starts the
    /// denominator values from the prior.
    ///
    /// A node outside the live order reads observed variables only, so
    /// these are the values every full pass of the row would give it: the
    /// numerator fixes the evidence, and the denominator marginalises every
    /// variable the node reads, which is the prior sweep's arithmetic.
    fn prime_likelihood(&self, row: &[Obs], scratch: &mut Scratch) {
        let Scratch {
            num,
            den,
            live,
            is_live,
            ..
        } = scratch;
        // Every node of the order is written before a parent reads it.
        is_live.resize(self.spn.num_nodes(), false);
        live.clear();
        for &id in &self.order {
            let node_live = match self.spn.node(id) {
                Node::Indicator { var, .. } => row[var.index()] == Obs::Marginal,
                Node::Constant(_) => false,
                Node::Sum { children, .. } | Node::Product { children } => {
                    children.iter().any(|c| is_live[c.index()])
                }
            };
            is_live[id.index()] = node_live;
            if node_live {
                live.push(id);
            }
        }
        self.log_values(row, num);
        den.clear();
        den.extend_from_slice(&self.prior);
    }

    /// Importance weight of prior draw `x` for the row `scratch` was primed
    /// with ([`SamplerProgram::prime_likelihood`]): `P(x_u, e) / P(x_u)`
    /// with `x_u` the unobserved coordinates of `x`, from one sweep of the
    /// live order per pass.
    fn likelihood_weight(&self, x: &[bool], scratch: &mut Scratch) -> f64 {
        // Every live leaf is an indicator of an unobserved variable, which
        // both passes set to the draw.
        let drawn = |var: usize, value: bool| if x[var] == value { 1.0 } else { 0.0 };
        let (spn, weights) = (&self.spn, &self.log_weights);
        let num = sweep::<Log>(spn, &scratch.live, weights, drawn, &mut scratch.num);
        let den = sweep::<Log>(spn, &scratch.live, weights, drawn, &mut scratch.den);
        // A prior draw always has positive marginal mass, so `den` is
        // finite; a numerator of -inf is a genuine zero weight.
        (num - den).exp()
    }

    /// Runs an `expectation` query over a whole batch (row range
    /// `[start, start + count)`), concatenating per-row results.
    ///
    /// # Errors
    ///
    /// Propagates the first per-row failure: [`SpnError::Invalid`] for
    /// [`SampleMethod::Gibbs`] and for degenerate samplers.
    pub fn run_expectation_range(
        &self,
        batch: &SampleBatch,
        start: usize,
        count: usize,
    ) -> Result<SampleRun> {
        batch.validate()?;
        let spec = batch.spec();
        let mut run = SampleRun {
            values: Vec::with_capacity(count),
            std_err: Vec::with_capacity(count),
            assignments: None,
            samples_drawn: 0,
        };
        let mut scratch = Scratch::default();
        for q in start..start + count {
            let row = batch.rows().query(q);
            let est = self.expectation_row_with(row, spec, batch.streams()[q], &mut scratch)?;
            run.values.push(est.value);
            run.std_err.push(est.std_err);
            run.samples_drawn += u64::from(spec.n_samples);
        }
        Ok(run)
    }

    /// Runs a `sample` query over a whole batch (row range
    /// `[start, start + count)`), concatenating per-row results: weights
    /// into `values` (`n_samples` per row) and assignments row-major.
    ///
    /// # Errors
    ///
    /// Propagates the first per-row failure: [`SpnError::Invalid`] when a
    /// row's evidence has probability zero or a sum node on the path is
    /// degenerate.
    pub fn run_sample_range(
        &self,
        batch: &SampleBatch,
        start: usize,
        count: usize,
    ) -> Result<SampleRun> {
        batch.validate()?;
        let spec = batch.spec();
        let n = spec.n_samples as usize;
        let mut run = SampleRun {
            values: Vec::with_capacity(count * n),
            std_err: Vec::with_capacity(count),
            assignments: Some(Vec::with_capacity(count * n)),
            samples_drawn: 0,
        };
        let mut scratch = Scratch::default();
        for q in start..start + count {
            let row = batch.rows().query(q);
            let samples = self.sample_row_with(row, spec, batch.streams()[q], &mut scratch)?;
            run.values.extend_from_slice(&samples.weights);
            run.std_err.push(samples.std_err);
            run.assignments
                .as_mut()
                .expect("assignments allocated above")
                .extend(samples.assignments);
            run.samples_drawn += u64::from(spec.n_samples);
        }
        Ok(run)
    }
}

/// Buffers a run of rows reuses across its rows and draws.
#[derive(Debug, Default)]
struct Scratch {
    /// The depth-first stack of a top-down draw.
    stack: Vec<NodeId>,
    /// Likelihood weighting's numerator node values (`P(x_u, e)`).
    num: Vec<f64>,
    /// Likelihood weighting's denominator node values (`P(x_u)`).
    den: Vec<f64>,
    /// The row's live order (see [`SamplerProgram::prime_likelihood`]).
    live: Vec<NodeId>,
    /// Per node, whether it is in `live`.
    is_live: Vec<bool>,
}

/// Returns `true` when the prior draw `x` agrees with every observation of
/// `row`.
fn row_matches(row: &[Obs], x: &[bool]) -> bool {
    row.iter()
        .enumerate()
        .all(|(var, o)| o.to_option().is_none_or(|v| v == x[var]))
}

/// Sample mean and standard error of the mean (zero for fewer than two
/// values).
fn mean_and_std_err(values: &[f64]) -> RowEstimate {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let std_err = if values.len() > 1 {
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n * (n - 1.0));
        var.sqrt()
    } else {
        0.0
    };
    RowEstimate {
        value: mean,
        std_err,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::VarId;
    use crate::random::{random_spn, RandomSpnConfig};
    use crate::{reference_query, Evidence, QueryBatch, SpnBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mixture() -> Spn {
        let mut b = SpnBuilder::new(2);
        let x0 = b.indicator(VarId(0), true);
        let nx0 = b.indicator(VarId(0), false);
        let x1 = b.indicator(VarId(1), true);
        let nx1 = b.indicator(VarId(1), false);
        let p0 = b.product(vec![x0, x1]).unwrap();
        let p1 = b.product(vec![nx0, nx1]).unwrap();
        let p2 = b.product(vec![x0, nx1]).unwrap();
        let root = b.sum(vec![(p0, 0.3), (p1, 0.5), (p2, 0.2)]).unwrap();
        b.finish(root).unwrap()
    }

    /// The likelihood weight of draw `x` on `row` from two full sweeps,
    /// the joint `P(x_u, e)` and the prior `P(x_u)`: the oracle of
    /// [`SamplerProgram::likelihood_weight`].
    fn importance_weight(sampler: &SamplerProgram, row: &[Obs], x: &[bool]) -> f64 {
        let drawn = |var: usize| Obs::from_option(Some(x[var]));
        // Numerator fixes the evidence, denominator marginalises it.
        let (joint, prior): (Vec<Obs>, Vec<Obs>) = row
            .iter()
            .enumerate()
            .map(|(var, &o)| match o {
                Obs::Marginal => (drawn(var), drawn(var)),
                _ => (o, Obs::Marginal),
            })
            .unzip();
        let mut lv = Vec::new();
        let num = sampler.log_values(&joint, &mut lv);
        let den = sampler.log_values(&prior, &mut lv);
        (num - den).exp()
    }

    /// `spn` over one more variable, which no node reads.
    fn widened(spn: &Spn) -> Spn {
        let mut b = SpnBuilder::new(spn.num_vars() + 1);
        for (_, node) in spn.iter() {
            match node {
                Node::Sum { children, weights } => {
                    b.sum(
                        children
                            .iter()
                            .copied()
                            .zip(weights.iter().copied())
                            .collect(),
                    )
                    .unwrap();
                }
                Node::Product { children } => {
                    b.product(children.clone()).unwrap();
                }
                Node::Indicator { var, value } => {
                    b.indicator(*var, *value);
                }
                Node::Constant(c) => {
                    b.constant(*c);
                }
            }
        }
        b.finish(spn.root()).unwrap()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn live_order_weights_are_those_of_two_full_sweeps() {
        let random = |seed| {
            random_spn(
                &RandomSpnConfig::with_vars(6),
                &mut StdRng::seed_from_u64(seed),
            )
        };
        let mut circuits: Vec<Spn> = [5, 9, 12].into_iter().map(random).collect();
        // The last variable lies outside the root's scope.
        circuits.push(widened(&circuits[0]));
        circuits.push(mixture());
        let spec = SampleSpec {
            seed: 31,
            n_samples: 48,
            method: SampleMethod::LikelihoodWeighted,
        };
        for (c, spn) in circuits.iter().enumerate() {
            let sampler = SamplerProgram::new(spn);
            let n = spn.num_vars();
            let pick = |keep: &dyn Fn(usize) -> bool| -> Vec<Option<bool>> {
                (0..n).map(|v| keep(v).then_some(v % 2 == 0)).collect()
            };
            let mut rows = vec![
                pick(&|_| true),
                pick(&|_| false),
                pick(&|v| v % 3 != 1),
                pick(&|v| v + 1 == n),
            ];
            if c + 1 == circuits.len() {
                // The mixture never puts mass on x0 = 0, x1 = 1.
                rows.push(vec![Some(false), Some(true)]);
                rows.push(vec![Some(false), None]);
            }
            let evidences: Vec<Evidence> = rows.into_iter().map(Evidence::from_options).collect();
            let batch =
                SampleBatch::new(EvidenceBatch::from_evidences(n, &evidences).unwrap(), spec);
            let expectations = sampler
                .run_expectation_range(&batch, 0, batch.len())
                .unwrap();
            let samples = sampler.run_sample_range(&batch, 0, batch.len()).unwrap();
            let draws = spec.n_samples as usize;
            for r in 0..batch.len() {
                let row = batch.rows().query(r);
                let mut rng = Pcg64::with_stream(spec.seed, r as u64);
                let mut x = vec![false; n];
                let oracle: Vec<f64> = (0..draws)
                    .map(|_| {
                        sampler
                            .draw_prior_with(&mut rng, &mut x, &mut Vec::new())
                            .unwrap();
                        importance_weight(&sampler, row, &x)
                    })
                    .collect();
                let est = mean_and_std_err(&oracle);
                let what = format!("circuit {c} row {r}");
                // Row by row and over a whole run, whose buffers carry over.
                let alone = sampler
                    .sample_row_with(row, spec, r as u64, &mut Scratch::default())
                    .unwrap();
                assert_eq!(bits(&alone.weights), bits(&oracle), "{what}");
                assert_eq!(alone.std_err.to_bits(), est.std_err.to_bits(), "{what}");
                let in_run = &samples.values[r * draws..(r + 1) * draws];
                assert_eq!(bits(in_run), bits(&oracle), "{what}");
                let alone = sampler
                    .expectation_row_with(row, spec, r as u64, &mut Scratch::default())
                    .unwrap();
                assert_eq!(alone.value.to_bits(), est.value.to_bits(), "{what}");
                assert_eq!(alone.std_err.to_bits(), est.std_err.to_bits(), "{what}");
                assert_eq!(
                    expectations.values[r].to_bits(),
                    est.value.to_bits(),
                    "{what}"
                );
                assert_eq!(
                    expectations.std_err[r].to_bits(),
                    est.std_err.to_bits(),
                    "{what}"
                );

                let mut scratch = Scratch::default();
                sampler.prime_likelihood(row, &mut scratch);
                let unobserved = row.iter().filter(|&&o| o == Obs::Marginal).count();
                if unobserved == 0 {
                    assert!(scratch.live.is_empty(), "{what}");
                }
                if unobserved == n {
                    assert_eq!(scratch.live, sampler.order, "{what}");
                    assert!(oracle.iter().all(|&w| w == 1.0), "{what}: {oracle:?}");
                }
            }
            if c + 1 == circuits.len() {
                let zero = &samples.values[4 * draws..5 * draws];
                assert!(zero.iter().all(|&w| w == 0.0), "{zero:?}");
                let some_zero = &samples.values[5 * draws..];
                assert!(some_zero.contains(&0.0) && some_zero.iter().any(|&w| w > 0.0));
            }
        }
    }

    #[test]
    fn alias_table_matches_distribution() {
        let weights = [0.2, 0.5, 0.0, 0.3];
        let table = AliasTable::new(&weights).unwrap();
        assert_eq!(table.prob.len(), 4);
        let mut rng = Pcg64::seed_from_u64(7);
        let mut counts = [0usize; 4];
        let n = 200_000;
        for _ in 0..n {
            counts[table.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[2], 0, "zero-weight outcome must never be drawn");
        for (i, &w) in weights.iter().enumerate() {
            let freq = counts[i] as f64 / n as f64;
            assert!((freq - w).abs() < 0.01, "outcome {i}: {freq} vs {w}");
        }
    }

    #[test]
    fn alias_table_rejects_degenerate_inputs() {
        assert!(AliasTable::new(&[]).is_none());
        assert!(AliasTable::new(&[0.0, 0.0]).is_none());
        assert!(AliasTable::new(&[1.0, -0.5]).is_none());
        assert!(AliasTable::new(&[f64::NAN]).is_none());
        assert!(AliasTable::new(&[f64::INFINITY, 1.0]).is_none());
    }

    #[test]
    fn prior_samples_track_exact_marginals() {
        let mut rng = StdRng::seed_from_u64(3);
        let spn = random_spn(&RandomSpnConfig::with_vars(5), &mut rng);
        let sampler = SamplerProgram::new(&spn);
        let spec = SampleSpec {
            seed: 11,
            n_samples: 40_000,
            method: SampleMethod::Ancestral,
        };
        let mut prng = Pcg64::with_stream(spec.seed, 0);
        let mut x = vec![false; 5];
        let mut ones = [0usize; 5];
        for _ in 0..spec.n_samples {
            sampler
                .draw_prior_with(&mut prng, &mut x, &mut Vec::new())
                .unwrap();
            for (v, &b) in x.iter().enumerate() {
                ones[v] += usize::from(b);
            }
        }
        // Exact single-variable marginals P(v = 1) / Z from the oracle.
        let z = spn.evaluate(&Evidence::marginal(5)).unwrap();
        for (v, &count) in ones.iter().enumerate() {
            let mut e = Evidence::marginal(5);
            e.observe(v, true);
            let exact = spn.evaluate(&e).unwrap() / z;
            let freq = count as f64 / spec.n_samples as f64;
            assert!(
                (freq - exact).abs() < 0.02,
                "var {v}: sampled {freq} vs exact {exact}"
            );
        }
    }

    #[test]
    fn conditional_samples_respect_evidence_and_track_conditionals() {
        let spn = mixture();
        let sampler = SamplerProgram::new(&spn);
        let mut row = vec![Obs::Marginal; 2];
        row[0] = Obs::True;
        let spec = SampleSpec {
            seed: 5,
            n_samples: 30_000,
            method: SampleMethod::Ancestral,
        };
        let samples = sampler
            .sample_row_with(&row, spec, 0, &mut Scratch::default())
            .unwrap();
        assert_eq!(samples.assignments.len(), 30_000);
        assert!(samples.assignments.iter().all(|a| a[0]));
        // P(x1 | x0) = 0.3 / 0.5.
        let ones = samples.assignments.iter().filter(|a| a[1]).count();
        let freq = ones as f64 / 30_000.0;
        assert!((freq - 0.6).abs() < 0.02, "{freq}");
    }

    #[test]
    fn zero_probability_evidence_is_rejected() {
        let mut b = SpnBuilder::new(1);
        let x = b.indicator(VarId(0), true);
        let spn = b.finish(x).unwrap();
        let sampler = SamplerProgram::new(&spn);
        let row = vec![Obs::False];
        let err = sampler
            .sample_row_with(&row, SampleSpec::default(), 0, &mut Scratch::default())
            .unwrap_err();
        assert!(err.to_string().contains("probability zero"), "{err}");
    }

    #[test]
    fn likelihood_weights_estimate_evidence_probability() {
        let mut rng = StdRng::seed_from_u64(8);
        let spn = random_spn(&RandomSpnConfig::with_vars(6), &mut rng);
        let sampler = SamplerProgram::new(&spn);
        let mut row = vec![Obs::Marginal; 6];
        row[1] = Obs::True;
        row[4] = Obs::False;
        let spec = SampleSpec {
            seed: 21,
            n_samples: 20_000,
            method: SampleMethod::LikelihoodWeighted,
        };
        let est = sampler
            .expectation_row_with(&row, spec, 0, &mut Scratch::default())
            .unwrap();
        let mut e = Evidence::marginal(6);
        e.observe(1, true);
        e.observe(4, false);
        let z = spn.evaluate(&Evidence::marginal(6)).unwrap();
        let exact = spn.evaluate(&e).unwrap() / z;
        // Note: the random generator is normalised, so Z ≈ 1 and the
        // unnormalised estimate is comparable; allow 7 standard errors.
        let _ = z;
        let exact_unnorm = spn.evaluate(&e).unwrap();
        assert!(
            (est.value - exact_unnorm).abs() <= 7.0 * est.std_err.max(1e-6),
            "estimate {} vs exact {} (se {})",
            est.value,
            exact_unnorm,
            est.std_err
        );
        assert!((exact - exact_unnorm).abs() < 0.05);
    }

    #[test]
    fn expectation_rejects_gibbs() {
        let spn = mixture();
        let sampler = SamplerProgram::new(&spn);
        let spec = SampleSpec {
            method: SampleMethod::Gibbs,
            ..SampleSpec::default()
        };
        assert!(sampler
            .expectation_row_with(
                &[Obs::Marginal, Obs::Marginal],
                spec,
                0,
                &mut Scratch::default()
            )
            .is_err());
    }

    #[test]
    fn gibbs_samples_track_conditionals() {
        let spn = mixture();
        let sampler = SamplerProgram::new(&spn);
        let row = vec![Obs::True, Obs::Marginal];
        let spec = SampleSpec {
            seed: 17,
            n_samples: 20_000,
            method: SampleMethod::Gibbs,
        };
        let samples = sampler
            .sample_row_with(&row, spec, 0, &mut Scratch::default())
            .unwrap();
        assert!(samples.assignments.iter().all(|a| a[0]));
        let ones = samples.assignments.iter().filter(|a| a[1]).count();
        let freq = ones as f64 / 20_000.0;
        assert!((freq - 0.6).abs() < 0.03, "{freq}");
    }

    #[test]
    fn sampling_is_deterministic_per_stream_and_shard_invariant() {
        let mut rng = StdRng::seed_from_u64(4);
        let spn = random_spn(&RandomSpnConfig::with_vars(4), &mut rng);
        let sampler = SamplerProgram::new(&spn);
        let mut rows = EvidenceBatch::new(4);
        rows.push_marginal();
        let mut e = Evidence::marginal(4);
        e.observe(2, true);
        rows.push(&e).unwrap();
        rows.push_assignment(&[false, true, false, true]).unwrap();
        let spec = SampleSpec {
            seed: 99,
            n_samples: 64,
            method: SampleMethod::Ancestral,
        };
        let batch = SampleBatch::new(rows, spec);
        let full = sampler.run_sample_range(&batch, 0, batch.len()).unwrap();
        let rerun = sampler.run_sample_range(&batch, 0, batch.len()).unwrap();
        assert_eq!(full, rerun, "same batch, same seed, same samples");
        // Sharded execution concatenates to the identical result.
        let mut sharded = SampleRun::default();
        for (start, count) in [(0usize, 1usize), (1, 2)] {
            let part = sampler.run_sample_range(&batch, start, count).unwrap();
            sharded.values.extend(part.values);
            sharded.std_err.extend(part.std_err);
            sharded
                .assignments
                .get_or_insert_with(Vec::new)
                .extend(part.assignments.unwrap());
            sharded.samples_drawn += part.samples_drawn;
        }
        assert_eq!(full, sharded);
        // Coalescing two batches preserves each half's streams.
        let mut left = SampleBatch::new(EvidenceBatch::marginals(4, 1), spec);
        let right = SampleBatch::new(EvidenceBatch::marginals(4, 2), spec);
        left.try_extend(&right).unwrap();
        assert_eq!(left.streams(), &[0, 0, 1]);
        let coalesced = sampler.run_sample_range(&left, 1, 2).unwrap();
        let solo = sampler.run_sample_range(&right, 0, 2).unwrap();
        assert_eq!(coalesced, solo);
    }

    #[test]
    fn sample_batch_guards() {
        let spec = SampleSpec::default();
        let mut batch = SampleBatch::new(EvidenceBatch::marginals(3, 2), spec);
        assert_eq!(batch.streams(), &[0, 1]);
        assert!(batch.validate().is_ok());
        let other_spec = SampleSpec {
            seed: 1,
            ..SampleSpec::default()
        };
        let other = SampleBatch::new(EvidenceBatch::marginals(3, 1), other_spec);
        assert!(batch.try_extend(&other).is_err());
        let wrong_vars = SampleBatch::new(EvidenceBatch::marginals(4, 1), spec);
        assert!(batch.try_extend(&wrong_vars).is_err());
        let zero = SampleBatch::new(
            EvidenceBatch::marginals(3, 1),
            SampleSpec {
                n_samples: 0,
                ..SampleSpec::default()
            },
        );
        assert!(zero.validate().is_err());
    }

    #[test]
    fn expectation_matches_reference_query_loosely() {
        let mut rng = StdRng::seed_from_u64(14);
        let spn = random_spn(&RandomSpnConfig::with_vars(5), &mut rng);
        let sampler = SamplerProgram::new(&spn);
        let mut rows = EvidenceBatch::new(5);
        let mut e = Evidence::marginal(5);
        e.observe(0, true);
        rows.push(&e).unwrap();
        let spec = SampleSpec {
            seed: 2,
            n_samples: 50_000,
            method: SampleMethod::Ancestral,
        };
        let batch = SampleBatch::new(rows.clone(), spec);
        let run = sampler.run_expectation_range(&batch, 0, 1).unwrap();
        let exact = reference_query(&spn, &QueryBatch::Marginal(rows)).unwrap();
        assert!(
            (run.values[0] - exact.values[0]).abs() <= 7.0 * run.std_err[0].max(1e-6),
            "estimate {} vs exact {} (se {})",
            run.values[0],
            exact.values[0],
            run.std_err[0]
        );
        assert_eq!(run.samples_drawn, 50_000);
    }
}
