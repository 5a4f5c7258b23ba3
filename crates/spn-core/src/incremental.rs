//! Incremental re-evaluation of flattened programs under evidence deltas.
//!
//! Session-shaped workloads flip one or two evidence variables between
//! consecutive queries.  Re-running the whole [`OpList`]
//! then recomputes every operation even though only the *reachable cone* of
//! the flipped indicators can change.  This module exploits that structure:
//!
//! * [`ConeAnalysis`] — computed once per program (compile time): for every
//!   variable, the input slots of its indicator leaves and the sorted list of
//!   operations reachable from them.  Cone sizes are the per-leaf
//!   reachability metadata the serving layer's fallback heuristic is built
//!   on.
//! * [`IncrementalState`] — the retained state of one evaluation session:
//!   the materialised input vector and the per-op result buffer of the
//!   previous pass.
//!
//! [`ConeAnalysis::prime`] runs one full pass
//! (`run_lanes::<1>`) to seed the state;
//! [`ConeAnalysis::apply_flips`] then updates only the flipped indicators'
//! input slots and re-executes the union of their cones **in op order**
//! through the same `OpKind::apply` and
//! `Quantizer` the full pass applies.  Every untouched
//! operation keeps its previous value, and every recomputed operation sees
//! operand values identical to those of a full pass — so the session value
//! is **bit-for-bit** the value a full re-evaluation would produce, in every
//! numeric mode and precision.
//!
//! When the dirty cone exceeds [`DEFAULT_FULL_PASS_FRACTION`] of the
//! program (dense flips on a shallow circuit), a full pass is cheaper than
//! the bookkeeping and the delta path falls back to one automatically — the
//! outcome reports which path ran via [`DeltaOutcome::full_pass`].

use serde::{Deserialize, Serialize};

use crate::evidence::Evidence;
use crate::flatten::{LeafSource, OpList, OperandRef};
use crate::numeric::NumericMode;
use crate::precision::Quantizer;
use crate::vectorized::run_lanes;
use crate::{Result, SpnError};

/// Dirty-cone fraction above which a delta falls back to a full pass.
///
/// Recomputing a dirty op costs the same arithmetic as a full-pass op plus
/// the indirection through the sorted cone list, so the crossover sits below
/// 1.0; half the program is a conservative default that keeps the fallback
/// from ever being a large regression.
pub const DEFAULT_FULL_PASS_FRACTION: f64 = 0.5;

/// Per-variable reachability of a flattened program: which input slots each
/// variable's indicators occupy and which operations their values reach.
///
/// Built once per program (at compile time by `spn-compiler`, or directly
/// via [`ConeAnalysis::from_op_list`]); immutable and shared across all
/// sessions evaluating that program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConeAnalysis {
    /// Per variable: the `(input slot, indicator value)` pairs of its leaves.
    slots: Vec<Vec<(u32, bool)>>,
    /// Per variable: indices of the ops reachable from its indicator slots,
    /// sorted ascending (i.e. already in execution order).
    cones: Vec<Vec<u32>>,
    num_inputs: usize,
    num_ops: usize,
}

impl ConeAnalysis {
    /// Computes the per-variable reachability of `ops`.
    ///
    /// One marking sweep per variable over the op list (`O(vars × ops)`),
    /// done once per compiled program.
    pub fn from_op_list(ops: &OpList) -> ConeAnalysis {
        let num_vars = ops.num_vars();
        let mut slots: Vec<Vec<(u32, bool)>> = vec![Vec::new(); num_vars];
        for (slot, leaf) in ops.inputs().iter().enumerate() {
            if let LeafSource::Indicator { var, value } = leaf {
                slots[var.index()].push((slot as u32, *value));
            }
        }
        let mut cones: Vec<Vec<u32>> = Vec::with_capacity(num_vars);
        let mut input_dirty = vec![false; ops.num_inputs()];
        let mut op_dirty = vec![false; ops.num_ops()];
        for var_slots in &slots {
            for &(slot, _) in var_slots {
                input_dirty[slot as usize] = true;
            }
            let mut cone = Vec::new();
            for (i, op) in ops.ops().iter().enumerate() {
                let touched = |r: OperandRef| match r {
                    OperandRef::Input(k) => input_dirty[k as usize],
                    OperandRef::Op(k) => op_dirty[k as usize],
                };
                if touched(op.lhs) || touched(op.rhs) {
                    op_dirty[i] = true;
                    cone.push(i as u32);
                }
            }
            cones.push(cone);
            for &(slot, _) in var_slots {
                input_dirty[slot as usize] = false;
            }
            op_dirty.iter_mut().for_each(|d| *d = false);
        }
        ConeAnalysis {
            slots,
            cones,
            num_inputs: ops.num_inputs(),
            num_ops: ops.num_ops(),
        }
    }

    /// The op indices reachable from `var`'s indicators, in execution order.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn cone(&self, var: usize) -> &[u32] {
        &self.cones[var]
    }

    /// Checks that `ops` has the shape this analysis was computed from.
    fn check_shape(&self, ops: &OpList) -> Result<()> {
        if ops.num_inputs() != self.num_inputs
            || ops.num_ops() != self.num_ops
            || ops.num_vars() != self.slots.len()
        {
            return Err(SpnError::invalid(
                "cone analysis does not match the program shape",
            ));
        }
        Ok(())
    }

    /// Seeds `state` with one full pass of `ops` under `evidence`.
    ///
    /// Bit-for-bit the value of [`OpList::evaluate`]; subsequent
    /// [`ConeAnalysis::apply_flips`] calls reuse the retained buffers.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::EvidenceMismatch`] on evidence arity mismatch and
    /// [`SpnError::Invalid`] when the analysis was built from a different
    /// program shape.
    pub fn prime(
        &self,
        ops: &OpList,
        evidence: &Evidence,
        state: &mut IncrementalState,
    ) -> Result<f64> {
        self.check_shape(ops)?;
        state.inputs = ops.input_values(evidence)?;
        state.results.clear();
        state.results.resize(ops.num_ops(), 0.0);
        state.primed = true;
        Ok(state.full_pass(ops))
    }

    /// Applies evidence flips to a primed `state` and returns the new value,
    /// recomputing only the flipped variables' cones (or one full pass when
    /// the dirty cone exceeds [`DEFAULT_FULL_PASS_FRACTION`] of the program).
    ///
    /// Each flip is `(variable index, new observation)` — `None` marginalises
    /// the variable.  Flipping a variable to its current observation is
    /// harmless (the cone recomputes to identical values).
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::Invalid`] when `state` was never primed or the
    /// analysis does not match the program, and [`SpnError::UnknownVariable`]
    /// for out-of-range flips (the state is untouched in every error case).
    pub fn apply_flips(
        &self,
        ops: &OpList,
        flips: &[(usize, Option<bool>)],
        state: &mut IncrementalState,
    ) -> Result<DeltaOutcome> {
        self.check_shape(ops)?;
        if !state.primed {
            return Err(SpnError::invalid(
                "incremental state must be primed before applying flips",
            ));
        }
        for &(var, _) in flips {
            if var >= self.slots.len() {
                return Err(SpnError::UnknownVariable {
                    var: var as u32,
                    num_vars: self.slots.len(),
                });
            }
        }

        // Update the flipped indicators' input slots exactly as
        // `OpList::input_values` would fill them (log mode takes the natural
        // log: ln(1.0) = 0.0 and ln(0.0) = -inf exactly).
        let log = ops.mode() == NumericMode::Log;
        for &(var, observation) in flips {
            for &(slot, indicator_value) in &self.slots[var] {
                let v: f64 = match observation {
                    None => 1.0,
                    Some(observed) if observed == indicator_value => 1.0,
                    Some(_) => 0.0,
                };
                state.inputs[slot as usize] = if log { v.ln() } else { v };
            }
        }

        // The dirty set is the union of the flipped variables' cones.  The
        // multi-flip union is built by epoch-stamped marking — `O(Σ cone
        // sizes)` with no sort over duplicate entries — and bails out to the
        // full pass the moment the union crosses the threshold, so a dense
        // flip set never pays union bookkeeping beyond the fallback's cost.
        let limit = DEFAULT_FULL_PASS_FRACTION * self.num_ops as f64;
        let full_pass = |state: &mut IncrementalState| DeltaOutcome {
            value: state.full_pass(ops),
            recomputed_ops: self.num_ops,
            full_pass: true,
        };
        let dirty: &[u32] = match flips {
            [] => &[],
            [(var, _)] => &self.cones[*var],
            _ => {
                state.dirty.clear();
                if state.stamps.len() != self.num_ops {
                    state.stamps = vec![0; self.num_ops];
                    state.stamp_epoch = 0;
                }
                state.stamp_epoch = state.stamp_epoch.wrapping_add(1);
                if state.stamp_epoch == 0 {
                    state.stamps.iter_mut().for_each(|s| *s = 0);
                    state.stamp_epoch = 1;
                }
                let epoch = state.stamp_epoch;
                'mark: for &(var, _) in flips {
                    for &i in &self.cones[var] {
                        if state.stamps[i as usize] != epoch {
                            state.stamps[i as usize] = epoch;
                            state.dirty.push(i);
                            if state.dirty.len() as f64 > limit {
                                break 'mark;
                            }
                        }
                    }
                }
                if state.dirty.len() as f64 > limit {
                    return Ok(full_pass(state));
                }
                // Recomputation must run in execution order.  Small unions
                // sort; large ones rebuild the list by scanning the stamps
                // (`O(num_ops)` beats `O(n log n)` once the union holds more
                // than a sliver of the program).
                if state.dirty.len() > self.num_ops / 16 {
                    state.dirty.clear();
                    for (i, &stamp) in state.stamps.iter().enumerate() {
                        if stamp == epoch {
                            state.dirty.push(i as u32);
                        }
                    }
                } else {
                    state.dirty.sort_unstable();
                }
                &state.dirty
            }
        };

        if dirty.len() as f64 > limit {
            return Ok(full_pass(state));
        }

        // Recompute the dirty ops in execution order; untouched ops keep
        // their previous (bit-identical) results.
        let inputs = &state.inputs;
        let results = &mut state.results;
        let value = |r: OperandRef, results: &[f64]| -> f64 {
            match r {
                OperandRef::Input(i) => inputs[i as usize],
                OperandRef::Op(i) => results[i as usize],
            }
        };
        let quantizer = Quantizer::new(ops.precision());
        for &i in dirty {
            let op = &ops.ops()[i as usize];
            let (a, b) = (value(op.lhs, results), value(op.rhs, results));
            results[i as usize] = quantizer.round(op.kind.apply(a, b));
        }
        state.value = value(ops.output(), results);
        Ok(DeltaOutcome {
            value: state.value,
            recomputed_ops: dirty.len(),
            full_pass: false,
        })
    }
}

/// What one [`ConeAnalysis::apply_flips`] call did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaOutcome {
    /// The program value under the updated evidence (bit-for-bit the value a
    /// full re-evaluation would produce).
    pub value: f64,
    /// Operations actually re-executed (the whole program on fallback).
    pub recomputed_ops: usize,
    /// Whether the dirty cone exceeded the threshold and a full pass ran.
    pub full_pass: bool,
}

/// Retained evaluation state of one session: the previous pass's input
/// vector and per-op results.
///
/// Create with [`IncrementalState::new`], seed with [`ConeAnalysis::prime`],
/// then advance with [`ConeAnalysis::apply_flips`].  One state per session;
/// the [`ConeAnalysis`] (and the program) are shared.
#[derive(Debug, Clone, Default)]
pub struct IncrementalState {
    inputs: Vec<f64>,
    results: Vec<f64>,
    /// Scratch for merging multi-flip dirty cones (kept to avoid per-delta
    /// allocation).
    dirty: Vec<u32>,
    /// Per-op epoch stamps of the multi-flip union (an op is in the current
    /// union iff its stamp equals [`IncrementalState::stamp_epoch`]).
    stamps: Vec<u32>,
    stamp_epoch: u32,
    value: f64,
    primed: bool,
}

impl IncrementalState {
    /// Creates an empty state (buffers are sized on [`ConeAnalysis::prime`]).
    pub fn new() -> IncrementalState {
        IncrementalState::default()
    }

    /// Re-executes all of `ops` over the retained inputs and records the
    /// value.
    fn full_pass(&mut self, ops: &OpList) -> f64 {
        let mut out = [0.0];
        run_lanes::<1>(ops, &self.inputs, &mut self.results, &mut out);
        self.value = out[0];
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{random_spn, RandomSpnConfig};
    use crate::Precision;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn program(seed: u64) -> OpList {
        let mut rng = StdRng::seed_from_u64(seed);
        OpList::from_spn(&random_spn(&RandomSpnConfig::with_vars(6), &mut rng))
    }

    #[test]
    fn cones_cover_exactly_the_reachable_ops() {
        let ops = program(3);
        let cones = ConeAnalysis::from_op_list(&ops);
        assert_eq!(cones.cones.len(), 6);
        assert_eq!(cones.num_ops, ops.num_ops());
        assert!((0..6).all(|var| cones.cone(var).len() <= ops.num_ops()));
        assert!((0..6).any(|var| !cones.cone(var).is_empty()));
        // Flipping a variable changes the value of some op in its cone and
        // of no op outside it.
        for var in 0..6 {
            let mut base_state = IncrementalState::new();
            let mut evidence = Evidence::marginal(6);
            cones.prime(&ops, &evidence, &mut base_state).unwrap();
            let before = base_state.results.clone();
            evidence.observe(var, false);
            let mut full = IncrementalState::new();
            cones.prime(&ops, &evidence, &mut full).unwrap();
            let in_cone: Vec<bool> = {
                let mut mask = vec![false; ops.num_ops()];
                for &i in cones.cone(var) {
                    mask[i as usize] = true;
                }
                mask
            };
            for (i, (a, b)) in before.iter().zip(&full.results).enumerate() {
                if !in_cone[i] {
                    assert_eq!(a.to_bits(), b.to_bits(), "op {i} outside var {var}'s cone");
                }
            }
        }
    }

    #[test]
    fn flips_match_full_reevaluation_bit_for_bit() {
        for seed in 0..4u64 {
            let base = program(seed);
            for ops in [
                base.clone(),
                base.to_log_domain(),
                base.with_precision(Precision::E8M10),
                base.to_log_domain().with_precision(Precision::E8M10),
            ] {
                let cones = ConeAnalysis::from_op_list(&ops);
                let mut state = IncrementalState::new();
                let mut evidence = Evidence::marginal(6);
                cones.prime(&ops, &evidence, &mut state).unwrap();
                let mut rng = StdRng::seed_from_u64(seed ^ 0xF11F);
                for _ in 0..40 {
                    let flips: Vec<(usize, Option<bool>)> = (0..rng.gen_range(1usize..4))
                        .map(|_| {
                            (
                                rng.gen_range(0usize..6),
                                rng.gen_bool(0.7).then(|| rng.gen_bool(0.5)),
                            )
                        })
                        .collect();
                    for &(var, obs) in &flips {
                        match obs {
                            Some(v) => evidence.observe(var, v),
                            None => evidence.forget(var),
                        }
                    }
                    let outcome = cones.apply_flips(&ops, &flips, &mut state).unwrap();
                    let expected = ops.evaluate(&evidence).unwrap();
                    assert_eq!(
                        outcome.value.to_bits(),
                        expected.to_bits(),
                        "seed {seed} flips {flips:?}"
                    );
                    assert_eq!(state.value.to_bits(), expected.to_bits());
                }
            }
        }
    }

    #[test]
    fn dense_flips_fall_back_to_a_full_pass() {
        let ops = program(7);
        let cones = ConeAnalysis::from_op_list(&ops);
        let mut state = IncrementalState::new();
        cones
            .prime(&ops, &Evidence::marginal(6), &mut state)
            .unwrap();
        // Every variable flips: the union of the cones is the whole program.
        let flips: Vec<(usize, Option<bool>)> = (0..6).map(|var| (var, Some(true))).collect();
        let outcome = cones.apply_flips(&ops, &flips, &mut state).unwrap();
        assert!(outcome.full_pass);
        assert_eq!(outcome.recomputed_ops, ops.num_ops());
        let mut evidence = Evidence::marginal(6);
        (0..6).for_each(|var| evidence.observe(var, true));
        assert_eq!(
            outcome.value.to_bits(),
            ops.evaluate(&evidence).unwrap().to_bits()
        );
    }

    #[test]
    fn misuse_is_rejected_with_errors() {
        let ops = program(1);
        let cones = ConeAnalysis::from_op_list(&ops);
        let mut state = IncrementalState::new();
        // Unprimed state.
        assert!(cones
            .apply_flips(&ops, &[(0, Some(true))], &mut state)
            .is_err());
        cones
            .prime(&ops, &Evidence::marginal(6), &mut state)
            .unwrap();
        assert!(state.primed);
        // Out-of-range variable.
        assert!(matches!(
            cones.apply_flips(&ops, &[(99, None)], &mut state),
            Err(SpnError::UnknownVariable { var: 99, .. })
        ));
        // Mismatched program shape.
        let other = program(2).to_log_domain();
        if other.num_ops() != ops.num_ops() || other.num_inputs() != ops.num_inputs() {
            assert!(cones
                .prime(&other, &Evidence::marginal(6), &mut state)
                .is_err());
        }
        // Evidence arity mismatch.
        assert!(cones
            .prime(&ops, &Evidence::marginal(2), &mut state)
            .is_err());
    }

    #[test]
    fn zero_op_programs_evaluate_through_the_output_slot() {
        use crate::{SpnBuilder, VarId};
        let mut b = SpnBuilder::new(1);
        let x = b.indicator(VarId(0), true);
        let spn = b.finish(x).unwrap();
        let ops = OpList::from_spn(&spn);
        assert_eq!(ops.num_ops(), 0);
        let cones = ConeAnalysis::from_op_list(&ops);
        let mut state = IncrementalState::new();
        cones
            .prime(&ops, &Evidence::marginal(1), &mut state)
            .unwrap();
        assert_eq!(state.value, 1.0);
        let outcome = cones
            .apply_flips(&ops, &[(0, Some(false))], &mut state)
            .unwrap();
        assert_eq!(outcome.value, 0.0);
        assert!(!outcome.full_pass);
    }
}
