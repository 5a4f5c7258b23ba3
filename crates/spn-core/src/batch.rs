//! Batched evidence for compile-once / execute-many inference.
//!
//! The paper's speedup story rests on separating *compilation* of an SPN into
//! a platform program from *repeated inference* over streams of evidence.
//! [`EvidenceBatch`] is the repeated-inference half of that split: a dense
//! struct-of-arrays container holding many queries over the same variable
//! set, laid out query-major so the per-query inner loops of every execution
//! backend walk contiguous memory.
//!
//! [`InputRecipe`] is the bridge between a flattened program and a batch: it
//! pre-resolves which input slots are constant parameters and which are
//! evidence-dependent indicators, so the hot path never re-matches on
//! [`LeafSource`] per slot.  A one-query input vector is the template copied
//! plus one store per indicator slot; a lane-blocked tile gets its
//! parameters once per batch and lane width ([`InputRecipe::fill_params`])
//! and its indicators once per block ([`InputRecipe::fill_indicators`]).
//! A recipe restricted to the slots a program reads
//! ([`InputRecipe::restricted_to`]) writes only those slots' lane groups.

use std::sync::Arc;

use crate::evidence::Evidence;
use crate::flatten::{LeafSource, OpList};
use crate::numeric::NumericMode;
use crate::precision::Precision;
use crate::vectorized::LANE_WIDTHS;
use crate::{Result, SpnError};

/// Observation state of one variable in one query.
///
/// Stored as one byte so a batch of `Q` queries over `V` variables occupies
/// exactly `Q × V` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Obs {
    /// Observed `false`.
    False = 0,
    /// Observed `true`.
    True = 1,
    /// Unobserved (marginalised out).
    Marginal = 2,
}

impl Obs {
    /// Converts from the `Option<bool>` representation used by [`Evidence`].
    pub(crate) fn from_option(value: Option<bool>) -> Obs {
        match value {
            Some(false) => Obs::False,
            Some(true) => Obs::True,
            None => Obs::Marginal,
        }
    }

    /// Converts to the `Option<bool>` representation used by [`Evidence`].
    pub(crate) fn to_option(self) -> Option<bool> {
        match self {
            Obs::False => Some(false),
            Obs::True => Some(true),
            Obs::Marginal => None,
        }
    }

    /// Value an indicator leaf `[var = value]` takes under this observation:
    /// `1.0` when compatible or marginalised, `0.0` otherwise.
    #[inline]
    pub(crate) fn indicator(self, value: bool) -> f64 {
        match self {
            Obs::Marginal => 1.0,
            Obs::True => {
                if value {
                    1.0
                } else {
                    0.0
                }
            }
            Obs::False => {
                if value {
                    0.0
                } else {
                    1.0
                }
            }
        }
    }
}

/// A dense batch of evidence queries over a shared variable set.
///
/// Layout is query-major struct-of-arrays: query `q`'s observations occupy
/// the contiguous byte range `[q * num_vars, (q + 1) * num_vars)`.
///
/// ```
/// use spn_core::{Evidence, EvidenceBatch};
///
/// let mut batch = EvidenceBatch::new(3);
/// batch.push_marginal();
/// batch.push_assignment(&[true, false, true]).unwrap();
/// let mut e = Evidence::marginal(3);
/// e.observe(1, true);
/// batch.push(&e).unwrap();
/// assert_eq!(batch.len(), 3);
/// assert_eq!(batch.indicator(1, 1, false), 1.0);
/// assert_eq!(batch.indicator(2, 1, false), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EvidenceBatch {
    num_vars: usize,
    obs: Vec<Obs>,
    /// Tracked explicitly rather than derived from `obs.len()` so batches
    /// over zero-variable (constant-only) SPNs still count their queries.
    queries: usize,
}

impl EvidenceBatch {
    /// Creates an empty batch over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        EvidenceBatch {
            num_vars,
            obs: Vec::new(),
            queries: 0,
        }
    }

    /// Creates an empty batch with room for `queries` queries.
    pub fn with_capacity(num_vars: usize, queries: usize) -> Self {
        EvidenceBatch {
            num_vars,
            obs: Vec::with_capacity(num_vars * queries),
            queries: 0,
        }
    }

    /// Builds a batch from a slice of [`Evidence`] values.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::EvidenceMismatch`] when any evidence covers a
    /// different number of variables than `num_vars`.
    pub fn from_evidences(num_vars: usize, evidences: &[Evidence]) -> Result<Self> {
        let mut batch = EvidenceBatch::with_capacity(num_vars, evidences.len());
        for e in evidences {
            batch.push(e)?;
        }
        Ok(batch)
    }

    /// Builds a batch of `queries` fully marginalised queries (each computes
    /// the partition function).
    pub fn marginals(num_vars: usize, queries: usize) -> Self {
        EvidenceBatch {
            num_vars,
            obs: vec![Obs::Marginal; num_vars * queries],
            queries,
        }
    }

    /// Number of variables every query in the batch covers.
    pub(crate) fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries
    }

    /// Returns `true` when the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.queries == 0
    }

    /// Removes all queries, keeping the allocation.
    pub fn clear(&mut self) {
        self.obs.clear();
        self.queries = 0;
    }

    /// Appends one query from an [`Evidence`].
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::EvidenceMismatch`] when the variable counts differ.
    pub fn push(&mut self, evidence: &Evidence) -> Result<()> {
        if evidence.num_vars() != self.num_vars {
            return Err(SpnError::EvidenceMismatch {
                evidence_vars: evidence.num_vars(),
                spn_vars: self.num_vars,
            });
        }
        self.obs
            .extend((0..self.num_vars).map(|var| Obs::from_option(evidence.value(var))));
        self.queries += 1;
        Ok(())
    }

    /// Appends one fully observed query.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::EvidenceMismatch`] when the assignment length
    /// differs from the batch's variable count.
    pub fn push_assignment(&mut self, assignment: &[bool]) -> Result<()> {
        if assignment.len() != self.num_vars {
            return Err(SpnError::EvidenceMismatch {
                evidence_vars: assignment.len(),
                spn_vars: self.num_vars,
            });
        }
        self.obs.extend(
            assignment
                .iter()
                .map(|&b| if b { Obs::True } else { Obs::False }),
        );
        self.queries += 1;
        Ok(())
    }

    /// Appends one fully marginalised query.
    pub fn push_marginal(&mut self) {
        self.obs
            .extend(std::iter::repeat_n(Obs::Marginal, self.num_vars));
        self.queries += 1;
    }

    /// The observation row of query `q`.
    ///
    /// # Panics
    ///
    /// Panics when `q` is out of range.
    #[inline]
    pub fn query(&self, q: usize) -> &[Obs] {
        &self.obs[q * self.num_vars..(q + 1) * self.num_vars]
    }

    /// Indicator value of `[var = value]` under query `q`.
    ///
    /// # Panics
    ///
    /// Panics when `q` or `var` is out of range.
    #[inline]
    pub fn indicator(&self, q: usize, var: usize, value: bool) -> f64 {
        debug_assert!(var < self.num_vars);
        self.obs[q * self.num_vars + var].indicator(value)
    }

    /// Returns `true` when query `q` observes every variable (no
    /// [`Obs::Marginal`] slot) — the well-formedness condition of
    /// joint-probability queries.
    ///
    /// # Panics
    ///
    /// Panics when `q` is out of range.
    pub(crate) fn is_row_complete(&self, q: usize) -> bool {
        self.query(q).iter().all(|&o| o != Obs::Marginal)
    }

    /// Copies the contiguous query range `[start, start + queries)` into a
    /// new batch over the same variable set.
    ///
    /// This is the sharding primitive of the parallel execution path: shards
    /// are dense sub-batches, so every worker runs the same per-query hot
    /// loop as the serial path.
    ///
    /// # Panics
    ///
    /// Panics when the range reaches past the end of the batch.
    pub fn sub_batch(&self, start: usize, queries: usize) -> EvidenceBatch {
        assert!(
            start + queries <= self.queries,
            "sub-batch [{start}, {}) out of range for a {}-query batch",
            start + queries,
            self.queries
        );
        EvidenceBatch {
            num_vars: self.num_vars,
            obs: self.obs[start * self.num_vars..(start + queries) * self.num_vars].to_vec(),
            queries,
        }
    }

    /// Appends every query of `other` to this batch, keeping batch order.
    ///
    /// This is the coalescing primitive of the serving micro-batcher: many
    /// small per-request batches are merged into one dense batch, executed in
    /// a single pass, and the results sliced back per request.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::EvidenceMismatch`] when the variable counts differ.
    pub(crate) fn extend_from(&mut self, other: &EvidenceBatch) -> Result<()> {
        if other.num_vars != self.num_vars {
            return Err(SpnError::EvidenceMismatch {
                evidence_vars: other.num_vars,
                spn_vars: self.num_vars,
            });
        }
        self.obs.extend_from_slice(&other.obs);
        self.queries += other.queries;
        Ok(())
    }

    /// Materialises query `q` back into an owned [`Evidence`].
    ///
    /// # Panics
    ///
    /// Panics when `q` is out of range.
    pub fn to_evidence(&self, q: usize) -> Evidence {
        Evidence::from_options(self.query(q).iter().map(|o| o.to_option()).collect())
    }
}

// The indicator table is indexed by `Obs as usize`.
const _: () =
    assert!(Obs::False as usize == 0 && Obs::True as usize == 1 && Obs::Marginal as usize == 2);

/// Which input slots of a flattened program depend on evidence.
///
/// Built once per compiled program by [`OpList::input_recipe`]; the hot path
/// then fills a one-query input vector with a `memcpy` of the parameter
/// template plus one store per indicator slot, and a lane-blocked tile with
/// the template broadcast once per batch and lane width plus one lane group
/// per indicator slot per block — no matching, no allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct InputRecipe {
    /// Parameter values with indicator slots left at an arbitrary value;
    /// shared by a recipe and its restrictions.
    template: Arc<[f64]>,
    /// `(slot, var, value)` for every evidence-dependent input slot (of a
    /// restricted recipe, every kept one).
    indicators: Vec<(u32, u32, bool)>,
    /// The kept slots that are not indicators, ascending, when the recipe
    /// is restricted ([`InputRecipe::restricted_to`]); `None` keeps every
    /// slot.
    params: Option<Vec<u32>>,
    num_vars: usize,
    /// The numeric domain of the program: log-domain recipes fill indicator
    /// slots with `ln(indicator)` (`0.0` / `-inf`); parameter slots are
    /// already stored as logs in the template.
    mode: NumericMode,
    /// The emulated arithmetic format of the program the recipe feeds.  The
    /// template's parameter slots are already quantized (by
    /// [`OpList::with_precision`]) and the indicator values `0.0` / `1.0` /
    /// `-inf` are exact in every format, so filled input vectors are always
    /// valid reduced-precision data-memory images.
    precision: Precision,
}

impl InputRecipe {
    /// Builds the recipe for `ops` (inheriting its [`NumericMode`]).
    pub(crate) fn from_op_list(ops: &OpList) -> InputRecipe {
        let mut template = Vec::with_capacity(ops.num_inputs());
        let mut indicators = Vec::new();
        for (slot, leaf) in ops.inputs().iter().enumerate() {
            match *leaf {
                LeafSource::Param(p) => template.push(p),
                LeafSource::Indicator { var, value } => {
                    indicators.push((slot as u32, var.0, value));
                    template.push(1.0); // overwritten per query
                }
            }
        }
        InputRecipe {
            template: template.into(),
            indicators,
            params: None,
            num_vars: ops.num_vars(),
            mode: ops.mode(),
            precision: ops.precision(),
        }
    }

    /// This recipe restricted to `slots` (any order; repeats allowed), for
    /// a program that reads no other input slot: the lane-block fills
    /// ([`InputRecipe::fill_params`] and [`InputRecipe::fill_indicators`])
    /// then write only those slots' lane groups and leave every other
    /// group of the tile as it was.  The tile keeps its shape, and the
    /// one-query fills still copy the whole template, so there an indicator
    /// slot left out holds the template's placeholder.
    ///
    /// # Panics
    ///
    /// Panics when a slot is out of range.
    pub fn restricted_to(&self, slots: &[u32]) -> InputRecipe {
        let mut kept = vec![false; self.num_inputs()];
        for &slot in slots {
            kept[slot as usize] = true;
        }
        let mut indicators = self.indicators.clone();
        indicators.retain(|&(slot, _, _)| kept[slot as usize]);
        for &(slot, _, _) in &indicators {
            kept[slot as usize] = false;
        }
        InputRecipe {
            template: Arc::clone(&self.template),
            indicators,
            params: Some(
                (0..)
                    .zip(&kept)
                    .filter_map(|(slot, &k)| k.then_some(slot))
                    .collect(),
            ),
            num_vars: self.num_vars,
            mode: self.mode,
            precision: self.precision,
        }
    }

    /// Indicator value in the recipe's numeric domain: `ln` of the linear
    /// indicator for log-domain programs.  `linear` is only ever `1.0` or
    /// `0.0`, whose logs (`0.0`, `-inf`) are exact, so they are selected
    /// rather than computed: a `ln` call here gets speculated ahead of the
    /// mode test and paid per indicator slot in linear mode too.
    #[inline]
    fn domain_value(&self, linear: f64) -> f64 {
        match self.mode {
            NumericMode::Linear => linear,
            NumericMode::Log if linear == 0.0 => f64::NEG_INFINITY,
            NumericMode::Log => 0.0,
        }
    }

    /// Number of input slots the recipe fills.
    pub fn num_inputs(&self) -> usize {
        self.template.len()
    }

    /// Number of indicator lane groups [`InputRecipe::fill_indicators`]
    /// writes per block.
    pub fn num_indicators(&self) -> usize {
        self.indicators.len()
    }

    /// Fills the one-query input vector `out`: the template copied, then
    /// one store per indicator slot of the mode-aware value of
    /// `indicator(var, value)`.
    #[inline]
    fn fill_one(&self, indicator: impl Fn(usize, bool) -> f64, out: &mut [f64]) {
        out.copy_from_slice(&self.template);
        for &(slot, var, value) in &self.indicators {
            out[slot as usize] = self.domain_value(indicator(var as usize, value));
        }
    }

    /// Fills `out` with the input vector of query `q` of `batch`: the
    /// one-lane case of [`InputRecipe::fill_lane_block`].
    ///
    /// `out` must be exactly [`InputRecipe::num_inputs`] long.
    ///
    /// # Panics
    ///
    /// Panics when `out` has the wrong length or `q` is out of range
    /// (callers are expected to have validated the batch via
    /// [`InputRecipe::fill_batch`] or [`InputRecipe::check`] first).
    #[inline]
    pub fn fill_query(&self, batch: &EvidenceBatch, q: usize, out: &mut [f64]) {
        self.fill_lane_block(batch, q, 1, out);
    }

    /// Validates that `batch` matches the program's variable count.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::EvidenceMismatch`] on a variable-count mismatch.
    pub fn check(&self, batch: &EvidenceBatch) -> Result<()> {
        if batch.num_vars() != self.num_vars {
            return Err(SpnError::EvidenceMismatch {
                evidence_vars: batch.num_vars(),
                spn_vars: self.num_vars,
            });
        }
        Ok(())
    }

    /// Fills `out` with the concatenated input vectors of every query in
    /// `batch` (`batch.len() × num_inputs` values, query-major).
    ///
    /// Reuses `out`'s allocation; only grows it when the batch needs more.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::EvidenceMismatch`] on a variable-count mismatch.
    pub fn fill_batch(&self, batch: &EvidenceBatch, out: &mut Vec<f64>) -> Result<()> {
        self.check(batch)?;
        let n = self.num_inputs();
        out.resize(batch.len() * n, 0.0);
        for q in 0..batch.len() {
            self.fill_query(batch, q, &mut out[q * n..(q + 1) * n]);
        }
        Ok(())
    }

    /// Fills `out` with the lane-blocked input tile of queries
    /// `start .. start + lanes` of `batch` for the
    /// [`crate::vectorized`] kernels.
    ///
    /// The tile is slot-major and lane-contiguous: `out[slot * lanes + l]`
    /// is input slot `slot` of query `start + l`, so each slot's `lanes`
    /// per-query values form one contiguous lane group.  A wider tile is
    /// [`InputRecipe::fill_params`] followed by
    /// [`InputRecipe::fill_indicators`]; a block loop that reuses one tile
    /// calls the first only when the width changes and the second per
    /// block.  A one-lane tile is a plain input vector: the template
    /// copied, one store per indicator slot.
    ///
    /// # Panics
    ///
    /// Panics when the query range leaves `batch`, `out` is not exactly
    /// `num_inputs × lanes` long (callers validate the batch via
    /// [`InputRecipe::check`] first, as for `fill_query`), or `lanes` is not
    /// one of `LANE_WIDTHS`.
    pub fn fill_lane_block(
        &self,
        batch: &EvidenceBatch,
        start: usize,
        lanes: usize,
        out: &mut [f64],
    ) {
        self.assert_block(batch, start, lanes, out);
        if lanes == 1 {
            // The plain input vector of `fill_query` and `fill_batch`: one
            // copy and one row lookup instead of a one-element fill per slot
            // and a row lookup per indicator (on MSNBC, 1684 slots and 798
            // indicators, 1.1 µs against 2.2 µs).
            let row = batch.query(start);
            self.fill_one(|var, value| row[var].indicator(value), out);
            return;
        }
        self.fill_params(lanes, out);
        self.fill_indicators(batch, start, lanes, out);
    }

    /// Broadcasts the (pre-quantized) parameter template into the
    /// `num_inputs × lanes` tile `out`: every slot's lane group, indicator
    /// slots included, so the tile holds no value of an earlier program or
    /// width.  A restricted recipe ([`InputRecipe::restricted_to`]) writes
    /// only its kept non-indicator slots' groups, so the groups its program
    /// reads hold no such value once [`InputRecipe::fill_indicators`] has
    /// run.  Only that writes the tile after this, so a block loop calls
    /// this once per batch and lane width.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is zero or `out` is not exactly
    /// `num_inputs × lanes` long.
    pub fn fill_params(&self, lanes: usize, out: &mut [f64]) {
        self.assert_tile(lanes, out);
        match &self.params {
            None if lanes == 1 => out.copy_from_slice(&self.template),
            None => {
                for (group, &param) in out.chunks_exact_mut(lanes).zip(self.template.iter()) {
                    group.fill(param);
                }
            }
            Some(params) => {
                for &slot in params {
                    out[slot as usize * lanes..][..lanes].fill(self.template[slot as usize]);
                }
            }
        }
    }

    /// Writes the indicator slots of the tile of queries
    /// `start .. start + lanes` of `batch` and leaves every other slot
    /// alone: the per-block half of [`InputRecipe::fill_lane_block`].
    ///
    /// `lanes` must be one of `LANE_WIDTHS`; the call dispatches to the
    /// fixed-width gather as [`crate::vectorized::run_lane_block`] does.
    ///
    /// # Panics
    ///
    /// As for [`InputRecipe::fill_lane_block`].
    pub fn fill_indicators(
        &self,
        batch: &EvidenceBatch,
        start: usize,
        lanes: usize,
        out: &mut [f64],
    ) {
        match lanes {
            1 => self.fill_indicator_lanes::<1>(batch, start, out),
            2 => self.fill_indicator_lanes::<2>(batch, start, out),
            4 => self.fill_indicator_lanes::<4>(batch, start, out),
            8 => self.fill_indicator_lanes::<8>(batch, start, out),
            16 => self.fill_indicator_lanes::<16>(batch, start, out),
            32 => self.fill_indicator_lanes::<32>(batch, start, out),
            other => panic!("unsupported lane width {other} (expected one of {LANE_WIDTHS:?})"),
        }
    }

    /// The fixed-width form of [`InputRecipe::fill_indicators`]: the block's
    /// `L` rows are sliced once, and each indicator's lane group is looked
    /// up in a table of its domain values by observation, so no cell pays a
    /// row lookup or a mode `match`.
    fn fill_indicator_lanes<const L: usize>(
        &self,
        batch: &EvidenceBatch,
        start: usize,
        out: &mut [f64],
    ) {
        self.assert_block(batch, start, L, out);
        let rows: [&[Obs]; L] = std::array::from_fn(|l| batch.query(start + l));
        // table[obs as usize][value as usize]: the domain value of an
        // indicator leaf `[var = value]` under observation `obs`.
        let table = [Obs::False, Obs::True, Obs::Marginal]
            .map(|obs| [false, true].map(|value| self.domain_value(obs.indicator(value))));
        for &(slot, var, value) in &self.indicators {
            let group = &mut out[slot as usize * L..][..L];
            for (cell, row) in group.iter_mut().zip(&rows) {
                *cell = table[row[var as usize] as usize][usize::from(value)];
            }
        }
    }

    /// The tile shape every fill checks.
    fn assert_tile(&self, lanes: usize, out: &[f64]) {
        assert!(lanes > 0, "lane width must be positive");
        assert_eq!(
            out.len(),
            self.num_inputs() * lanes,
            "tile length must be num_inputs x lanes"
        );
    }

    /// The tile shape plus the block's query range.
    fn assert_block(&self, batch: &EvidenceBatch, start: usize, lanes: usize, out: &[f64]) {
        self.assert_tile(lanes, out);
        assert!(
            start + lanes <= batch.len(),
            "lane block {start}..{} leaves the batch (len {})",
            start + lanes,
            batch.len()
        );
    }

    /// Fills `out` with the input vector of a single [`Evidence`] query,
    /// reusing the allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::EvidenceMismatch`] on a variable-count mismatch.
    pub fn fill_evidence(&self, evidence: &Evidence, out: &mut Vec<f64>) -> Result<()> {
        if evidence.num_vars() != self.num_vars {
            return Err(SpnError::EvidenceMismatch {
                evidence_vars: evidence.num_vars(),
                spn_vars: self.num_vars,
            });
        }
        out.resize(self.num_inputs(), 0.0);
        self.fill_one(|var, value| evidence.indicator(var, value), out);
        Ok(())
    }
}

impl OpList {
    /// Builds the [`InputRecipe`] that fills this program's input vector from
    /// evidence batches without per-query allocation.
    pub fn input_recipe(&self) -> InputRecipe {
        InputRecipe::from_op_list(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{random_spn, RandomSpnConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn push_and_read_back() {
        let mut batch = EvidenceBatch::new(2);
        assert!(batch.is_empty());
        batch.push_assignment(&[true, false]).unwrap();
        batch.push_marginal();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.query(0), &[Obs::True, Obs::False]);
        assert_eq!(batch.query(1), &[Obs::Marginal, Obs::Marginal]);
        assert_eq!(batch.indicator(0, 0, true), 1.0);
        assert_eq!(batch.indicator(0, 1, true), 0.0);
        assert_eq!(batch.indicator(1, 1, true), 1.0);
    }

    #[test]
    fn round_trips_evidence() {
        let mut e = Evidence::marginal(4);
        e.observe(1, true);
        e.observe(3, false);
        let batch = EvidenceBatch::from_evidences(4, &[e.clone()]).unwrap();
        assert_eq!(batch.to_evidence(0), e);
    }

    #[test]
    fn mismatched_sizes_are_rejected() {
        let mut batch = EvidenceBatch::new(3);
        assert!(batch.push(&Evidence::marginal(2)).is_err());
        assert!(batch.push_assignment(&[true]).is_err());
        assert!(EvidenceBatch::from_evidences(3, &[Evidence::marginal(5)]).is_err());
    }

    #[test]
    fn zero_variable_batches_count_queries() {
        let mut batch = EvidenceBatch::new(0);
        assert!(batch.is_empty());
        batch.push_marginal();
        batch.push(&Evidence::marginal(0)).unwrap();
        batch.push_assignment(&[]).unwrap();
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        assert!(batch.query(2).is_empty());
        batch.clear();
        assert_eq!(batch.len(), 0);
    }

    #[test]
    fn marginals_builds_full_batch() {
        let batch = EvidenceBatch::marginals(5, 7);
        assert_eq!(batch.len(), 7);
        assert!((0..batch.len()).all(|q| batch.query(q).iter().all(|&o| o == Obs::Marginal)));
    }

    #[test]
    fn recipe_matches_input_values() {
        let mut rng = StdRng::seed_from_u64(11);
        let spn = random_spn(&RandomSpnConfig::with_vars(9), &mut rng);
        let ops = crate::flatten::OpList::from_spn(&spn);
        let recipe = ops.input_recipe();
        assert_eq!(recipe.num_inputs(), ops.num_inputs());

        let mut e = Evidence::marginal(9);
        e.observe(2, false);
        e.observe(5, true);
        let expected = ops.input_values(&e).unwrap();

        let mut out = Vec::new();
        recipe.fill_evidence(&e, &mut out).unwrap();
        assert_eq!(out, expected);

        // The recipe advertises its program's variant, so a cache holding
        // recipes can be keyed without re-deriving anything.
        assert_eq!(recipe.precision, ops.precision());
        let quantized = ops.with_precision(crate::Precision::E8M10);
        assert_eq!(quantized.input_recipe().precision, crate::Precision::E8M10);

        let batch = EvidenceBatch::from_evidences(9, &[Evidence::marginal(9), e]).unwrap();
        let mut flat = Vec::new();
        recipe.fill_batch(&batch, &mut flat).unwrap();
        assert_eq!(flat.len(), 2 * recipe.num_inputs());
        assert_eq!(&flat[recipe.num_inputs()..], expected.as_slice());
    }

    #[test]
    fn log_recipe_fills_log_domain_inputs() {
        let mut rng = StdRng::seed_from_u64(13);
        let spn = random_spn(&RandomSpnConfig::with_vars(6), &mut rng);
        let log_ops = crate::flatten::OpList::from_spn(&spn).to_log_domain();
        let recipe = log_ops.input_recipe();
        assert_eq!(recipe.mode, crate::NumericMode::Log);

        let mut e = Evidence::marginal(6);
        e.observe(1, true);
        e.observe(4, false);
        let expected = log_ops.input_values(&e).unwrap();

        let mut out = Vec::new();
        recipe.fill_evidence(&e, &mut out).unwrap();
        assert_eq!(out, expected);

        let batch = EvidenceBatch::from_evidences(6, &[e]).unwrap();
        let mut flat = Vec::new();
        recipe.fill_batch(&batch, &mut flat).unwrap();
        assert_eq!(flat, expected);
        let mut per_query = vec![0.0; recipe.num_inputs()];
        recipe.fill_query(&batch, 0, &mut per_query);
        assert_eq!(per_query, expected);
        // Mismatched indicators are exactly -inf, matching ones exactly 0.0.
        assert!(expected
            .iter()
            .all(|v| v.is_finite() || *v == f64::NEG_INFINITY));
    }

    /// A bit pattern no fill writes: a NaN with a payload of its own.
    const SENTINEL: f64 = f64::from_bits(0x7ff4_5e47_1e1e_0001);

    /// Rows cycling through marginal, `true` and `false` per variable.
    fn mixed_batch(num_vars: usize, len: usize) -> EvidenceBatch {
        let mut batch = EvidenceBatch::new(num_vars);
        for q in 0..len {
            let row = (0..num_vars)
                .map(|v| [None, Some(true), Some(false)][(q + v) % 3])
                .collect();
            batch.push(&Evidence::from_options(row)).unwrap();
        }
        batch
    }

    /// One program per kind of value a tile holds: linear, log (`-inf`
    /// indicators) and e8m10 parameters.
    fn recipe_programs() -> Vec<(&'static str, OpList)> {
        let mut rng = StdRng::seed_from_u64(17);
        let spn = random_spn(&RandomSpnConfig::with_vars(9), &mut rng);
        let ops = OpList::from_spn(&spn);
        vec![
            ("log", ops.to_log_domain()),
            ("e8m10", ops.with_precision(Precision::E8M10)),
            ("linear", ops),
        ]
    }

    fn bits(tile: &[f64]) -> Vec<u64> {
        tile.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn split_fill_matches_lane_block_and_transposed_queries() {
        use crate::vectorized::MAX_LANES;
        for (name, ops) in recipe_programs() {
            let recipe = ops.input_recipe();
            let n = recipe.num_inputs();
            let batch = mixed_batch(ops.num_vars(), 2 * MAX_LANES + 3);
            let mut query = vec![0.0; n];
            for &lanes in &LANE_WIDTHS {
                for start in [0, 3, batch.len() - lanes] {
                    let context = format!("{name} lanes={lanes} start={start}");
                    let mut whole = vec![SENTINEL; n * lanes];
                    recipe.fill_lane_block(&batch, start, lanes, &mut whole);
                    let mut split = vec![SENTINEL; n * lanes];
                    recipe.fill_params(lanes, &mut split);
                    recipe.fill_indicators(&batch, start, lanes, &mut split);
                    let mut transposed = vec![SENTINEL; n * lanes];
                    for l in 0..lanes {
                        recipe.fill_query(&batch, start + l, &mut query);
                        for (slot, &v) in query.iter().enumerate() {
                            transposed[slot * lanes + l] = v;
                        }
                    }
                    assert_eq!(bits(&split), bits(&whole), "{context}");
                    assert_eq!(bits(&whole), bits(&transposed), "{context}");
                    if name == "log" {
                        assert!(whole.contains(&f64::NEG_INFINITY), "{context}");
                    }
                }
            }
        }
    }

    #[test]
    fn fill_indicators_writes_only_indicator_slots() {
        for (name, ops) in recipe_programs() {
            let recipe = ops.input_recipe();
            let batch = mixed_batch(ops.num_vars(), crate::vectorized::MAX_LANES);
            for &lanes in &LANE_WIDTHS {
                let mut tile = vec![SENTINEL; recipe.num_inputs() * lanes];
                recipe.fill_indicators(&batch, 0, lanes, &mut tile);
                for (slot, leaf) in ops.inputs().iter().enumerate() {
                    let indicator = matches!(leaf, LeafSource::Indicator { .. });
                    for (l, cell) in tile[slot * lanes..(slot + 1) * lanes].iter().enumerate() {
                        assert_eq!(
                            cell.to_bits() == SENTINEL.to_bits(),
                            !indicator,
                            "{name} lanes={lanes} slot {slot} lane {l}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_restricted_fill_writes_the_full_fill_on_every_kept_slot_and_nothing_else() {
        for (name, ops) in recipe_programs() {
            let full = ops.input_recipe();
            let n = full.num_inputs() as u32;
            // Every third slot, so both indicators and parameters are kept
            // and left out; listed out of order and with a repeat.
            let mut slots: Vec<u32> = (0..n).rev().filter(|slot| slot % 3 == 1).collect();
            slots.push(1);
            let restricted = full.restricted_to(&slots);
            let kept = |slot: usize| slot % 3 == 1;
            let indicators = ops.inputs().iter().enumerate();
            let kept_indicators = indicators
                .filter(|&(slot, leaf)| kept(slot) && matches!(leaf, LeafSource::Indicator { .. }))
                .count();
            assert!(kept_indicators > 0 && kept_indicators < full.num_indicators());
            assert_eq!(restricted.num_indicators(), kept_indicators, "{name}");
            assert_eq!(restricted.num_inputs(), full.num_inputs());
            let len = crate::vectorized::MAX_LANES + 4;
            let batch = mixed_batch(ops.num_vars(), len);
            for &lanes in &LANE_WIDTHS {
                for start in [0, len - lanes] {
                    let mut want = vec![SENTINEL; full.num_inputs() * lanes];
                    full.fill_params(lanes, &mut want);
                    full.fill_indicators(&batch, start, lanes, &mut want);
                    let mut got = vec![SENTINEL; full.num_inputs() * lanes];
                    restricted.fill_params(lanes, &mut got);
                    restricted.fill_indicators(&batch, start, lanes, &mut got);
                    let groups = want.chunks_exact(lanes).zip(got.chunks_exact(lanes));
                    for (slot, (want, got)) in groups.enumerate() {
                        let want: Vec<u64> = if kept(slot) {
                            want.iter().map(|v| v.to_bits()).collect()
                        } else {
                            vec![SENTINEL.to_bits(); lanes]
                        };
                        let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(got, want, "{name} lanes={lanes} start {start} slot {slot}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unsupported lane width")]
    fn fill_indicators_rejects_unsupported_lane_widths() {
        let (_, ops) = recipe_programs().pop().unwrap();
        let recipe = ops.input_recipe();
        let batch = EvidenceBatch::marginals(ops.num_vars(), 3);
        let mut tile = vec![0.0; recipe.num_inputs() * 3];
        recipe.fill_indicators(&batch, 0, 3, &mut tile);
    }

    #[test]
    fn recipe_rejects_wrong_variable_count() {
        let mut rng = StdRng::seed_from_u64(12);
        let spn = random_spn(&RandomSpnConfig::with_vars(4), &mut rng);
        let recipe = crate::flatten::OpList::from_spn(&spn).input_recipe();
        let mut out = Vec::new();
        assert!(recipe
            .fill_batch(&EvidenceBatch::marginals(5, 1), &mut out)
            .is_err());
        assert!(recipe
            .fill_evidence(&Evidence::marginal(3), &mut out)
            .is_err());
    }
}
