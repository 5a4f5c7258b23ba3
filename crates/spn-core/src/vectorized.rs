//! The flat-program executor: lane-blocked (batch-major) execution of an
//! [`OpList`].
//!
//! `run_lanes` is the one function in the workspace's software backends
//! that walks a whole operation list: every full pass — a single query, a
//! session's priming pass, a MAP traceback pass, a batch of thousands — is
//! `run_lanes::<L>` for some supported width `L`, and a scalar pass is
//! simply `L = 1`.  What each operation computes lives in
//! `OpKind::apply_lanes` and how a
//! reduced-precision program rounds it in `Quantizer`; the one walker
//! that visits operations in another order (the incremental dirty-cone
//! replay) shares both.
//!
//! Walking the list once per query makes every operation a
//! load-load-compute-store chain whose operands depend on earlier results,
//! so the core spends most of its time waiting on that dependency chain.
//! The paper's observation is that SPN inference over a *batch* of evidence
//! is embarrassingly data-parallel — the same straight-line program runs on
//! every query — which is exactly the shape a wide arithmetic datapath (or a
//! CPU's SIMD units) wants:
//!
//! * the batch is cut into **lane blocks** of [`MAX_LANES`] queries, and
//!   what is left over into blocks of the next supported widths down to one,
//! * [`crate::batch::InputRecipe::fill_lane_block`] materialises one block's
//!   evidence as a `[inputs × lanes]` tile — slot-major, so every input
//!   slot's `L` per-query values sit contiguously; a block loop that reuses
//!   one tile writes the parameters once per batch and width
//!   ([`crate::batch::InputRecipe::fill_params`]) and only the indicators
//!   per block ([`crate::batch::InputRecipe::fill_indicators`]),
//! * [`run_lane_block`] then executes the program once *per block* instead
//!   of once per query: each operation is applied across the whole lane
//!   block with a fixed-trip inner loop (`L` is a const generic, so the
//!   trip count is a compile-time constant the autovectorizer turns into
//!   SIMD), reading both operands as contiguous `[f64; L]` lane groups from
//!   the input tile or the `[ops × lanes]` results tile.
//!
//! Because every query runs the identical per-op arithmetic in the identical
//! order — lane blocking only regroups *independent* queries — the results
//! do not depend on `L`.  [`OpList::run_into`] is the independent reference
//! interpreter, and the parity suite in `tests/vectorized.rs` pins this
//! executor against it across every lane width × numeric mode × precision ×
//! batch length.

use crate::flatten::{OpList, OperandRef};
use crate::precision::{Precision, Quantizer};

/// Widest supported lane block (8 × f64 = 64 bytes, one cache line — two
/// 256-bit AVX registers or one 512-bit register per operand group).
pub const MAX_LANES: usize = 8;

/// The supported lane-block widths, in ascending order.  Power-of-two widths
/// keep every lane group naturally aligned within the tile and give the
/// compiler fixed trip counts it unrolls completely.
pub(crate) const LANE_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// The widest supported lane width that is at most `requested` (at least 1).
///
/// Backends use this to clamp a caller-chosen lane count onto the
/// monomorphized kernel widths: `0` and `1` normalise to `1` (one query per
/// pass), anything above [`MAX_LANES`] to [`MAX_LANES`], and in-between
/// values round down to the nearest power of two.
pub fn normalize_lanes(requested: usize) -> usize {
    LANE_WIDTHS
        .iter()
        .rev()
        .copied()
        .find(|&width| width <= requested)
        .unwrap_or(1)
}

/// Executes `ops` over one lane block of `lanes` queries.
///
/// * `inputs` — the block's input tile, `ops.num_inputs() × lanes` values,
///   slot-major (see [`crate::batch::InputRecipe::fill_lane_block`]),
/// * `results` — the intermediate tile, at least `ops.num_ops() × lanes`
///   values, overwritten,
/// * `out` — receives the `lanes` root values, in lane (batch) order.
///
/// `lanes` must be one of `LANE_WIDTHS`; the call dispatches to the
/// monomorphized fixed-width kernel.  Results are bit-for-bit identical to
/// running [`OpList::run_into`] once per lane.
///
/// # Panics
///
/// Panics when `lanes` is unsupported or any buffer is too short.
pub fn run_lane_block(
    ops: &OpList,
    lanes: usize,
    inputs: &[f64],
    results: &mut [f64],
    out: &mut [f64],
) {
    match lanes {
        1 => run_lanes::<1>(ops, inputs, results, out),
        2 => run_lanes::<2>(ops, inputs, results, out),
        4 => run_lanes::<4>(ops, inputs, results, out),
        8 => run_lanes::<8>(ops, inputs, results, out),
        other => panic!("unsupported lane width {other} (expected one of {LANE_WIDTHS:?})"),
    }
}

/// The fixed-width form of [`run_lane_block`]: `L` is a compile-time
/// constant, so every inner loop has a fixed trip count.  With `L = 1` the
/// tiles are plain input and result vectors and this is the scalar pass.
///
/// # Panics
///
/// As for [`run_lane_block`].
pub(crate) fn run_lanes<const L: usize>(
    ops: &OpList,
    inputs: &[f64],
    results: &mut [f64],
    out: &mut [f64],
) {
    assert!(L > 0, "lane width must be positive");
    assert!(
        inputs.len() >= ops.num_inputs() * L,
        "input tile too short for {L} lanes"
    );
    assert!(
        results.len() >= ops.num_ops() * L,
        "result tile too short for {L} lanes"
    );
    assert!(out.len() >= L, "output slice too short for {L} lanes");
    // Full-precision programs run a separate monomorphized body with no
    // quantization code at all, so their hot loop stays branch-free.
    let quantizer = Quantizer::new(ops.precision());
    if ops.precision() == Precision::F64 {
        run_lanes_body::<L, false>(ops, inputs, results, &quantizer);
    } else {
        run_lanes_body::<L, true>(ops, inputs, results, &quantizer);
    }
    let root: &[f64; L] = match ops.output() {
        OperandRef::Input(i) => lane_group::<L>(inputs, i as usize),
        OperandRef::Op(i) => lane_group::<L>(results, i as usize),
    };
    out[..L].copy_from_slice(root);
}

/// One pass over the operation list, `L` lanes at a time.  `QUANTIZE`
/// rounds every operation's lane group through `quantizer` before the next
/// operation reads it (quantize-on-store), in the same loop that produced
/// the values, so reduced-precision programs pay no second pass over the
/// tile.
fn run_lanes_body<const L: usize, const QUANTIZE: bool>(
    ops: &OpList,
    inputs: &[f64],
    results: &mut [f64],
    quantizer: &Quantizer,
) {
    for (i, op) in ops.ops().iter().enumerate() {
        // Operations only reference strictly earlier results, so splitting
        // at the current op's lane group separates the read side from the
        // write side without overlap.
        let (done, rest) = results.split_at_mut(i * L);
        let dst: &mut [f64; L] = (&mut rest[..L]).try_into().expect("lane group in range");
        let a: &[f64; L] = match op.lhs {
            OperandRef::Input(k) => lane_group::<L>(inputs, k as usize),
            OperandRef::Op(j) => lane_group::<L>(done, j as usize),
        };
        let b: &[f64; L] = match op.rhs {
            OperandRef::Input(k) => lane_group::<L>(inputs, k as usize),
            OperandRef::Op(j) => lane_group::<L>(done, j as usize),
        };
        op.kind.apply_lanes(a, b, dst);
        if QUANTIZE {
            for d in dst.iter_mut() {
                *d = quantizer.round(*d);
            }
        }
    }
}

/// The `idx`-th lane group of a slot-major tile, as a fixed-size array.
#[inline]
fn lane_group<const L: usize>(tile: &[f64], idx: usize) -> &[f64; L] {
    tile[idx * L..idx * L + L]
        .try_into()
        .expect("lane group in range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::EvidenceBatch;
    use crate::random::{random_spn, RandomSpnConfig};
    use crate::{Evidence, NumericMode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normalize_lanes_rounds_down_to_supported_widths() {
        let expected = [1, 1, 2, 2, 4, 4, 4, 4, 8, 8];
        for (requested, &want) in (0..10).zip(&expected) {
            assert_eq!(normalize_lanes(requested), want, "requested {requested}");
        }
        assert_eq!(normalize_lanes(1000), MAX_LANES);
    }

    #[test]
    fn lane_block_matches_scalar_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(7);
        let spn = random_spn(&RandomSpnConfig::with_vars(9), &mut rng);
        for mode in NumericMode::ALL {
            for precision in crate::Precision::SWEEP {
                let base = OpList::from_spn(&spn);
                let ops = match mode {
                    NumericMode::Linear => base.with_precision(precision),
                    NumericMode::Log => base.to_log_domain().with_precision(precision),
                };
                let recipe = ops.input_recipe();
                let mut batch = EvidenceBatch::new(9);
                for q in 0..MAX_LANES {
                    let mut e = Evidence::marginal(9);
                    e.observe(q % 9, q % 2 == 0);
                    batch.push(&e).unwrap();
                }
                for &lanes in &LANE_WIDTHS {
                    let mut tile = vec![0.0; recipe.num_inputs() * lanes];
                    let mut results = vec![0.0; ops.num_ops() * lanes];
                    let mut out = vec![0.0; lanes];
                    recipe.fill_lane_block(&batch, 0, lanes, &mut tile);
                    run_lane_block(&ops, lanes, &tile, &mut results, &mut out);
                    let mut scalar_inputs = vec![0.0; recipe.num_inputs()];
                    let mut scalar_results = vec![0.0; ops.num_ops()];
                    for (l, &got) in out.iter().enumerate() {
                        recipe.fill_query(&batch, l, &mut scalar_inputs);
                        let want = ops.run_into(&scalar_inputs, &mut scalar_results);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{mode}/{precision} lanes={lanes} lane {l}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unsupported lane width")]
    fn rejects_unsupported_lane_widths() {
        let mut rng = StdRng::seed_from_u64(8);
        let spn = random_spn(&RandomSpnConfig::with_vars(3), &mut rng);
        let ops = OpList::from_spn(&spn);
        let mut results = vec![0.0; ops.num_ops() * 3];
        let inputs = vec![0.0; ops.num_inputs() * 3];
        let mut out = vec![0.0; 3];
        run_lane_block(&ops, 3, &inputs, &mut results, &mut out);
    }
}
