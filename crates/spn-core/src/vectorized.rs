//! The flat-program executors: lane-blocked (batch-major) execution of an
//! [`OpList`].
//!
//! Walking the list once per query makes every operation a
//! load-load-compute-store chain whose operands depend on earlier results,
//! so the core spends most of its time waiting on that dependency chain.
//! The paper's observation is that SPN inference over a *batch* of evidence
//! is embarrassingly data-parallel — the same straight-line program runs on
//! every query — which is exactly the shape a wide arithmetic datapath (or a
//! CPU's SIMD units) wants.  A batch is cut into **lane blocks** of
//! [`MAX_LANES`] (32) queries, and what is left over into blocks of the
//! next supported widths down to one; each operation is applied across the
//! whole block with a fixed-trip inner loop (`L` is a const generic, so the
//! trip count is a compile-time constant the autovectorizer turns into
//! SIMD) over contiguous `[f64; L]` lane groups.  What a step costs beyond
//! its arithmetic — choosing its operand form and kind, checking its
//! indices, copying its operands — is paid once per block, so the width
//! is the number of queries that cost is spread over, the way the paper's
//! processor spreads one instruction's control over many operations.
//!
//! Two walkers share that arithmetic — `OpKind::apply_lanes`, then the
//! program's `Quantizer` on store — and differ in where values live:
//!
//! * [`LaneProgram`] is the batch path of the CPU and GPU models.  Compiled
//!   once per program, it keeps a block's values in a small register file
//!   of `slots × L` values, the way the paper's compiler keeps a circuit's
//!   intermediates in its register banks: one lane group per `(var, value)`
//!   indicator, filled per block straight from the batch's observations,
//!   then result slots a linear scan in op order reuses once their last
//!   reader has run.  Parameters stay a scalar table, broadcast at use.
//!   On KDDCup2k that is 196 lane groups (49 KiB at 32 lanes) against the
//!   15 192 inputs and 15 191 ops of the full tiles below.  A recording
//!   form of the same pass also writes, per [`OpKind::Max`] step, a `u32`
//!   mask of the lanes whose left operand won: all a MAP traceback
//!   ([`crate::query::MaxProductProgram::trace_batch`]) reads of the pass.
//! * `run_lanes` (public as [`run_lane_block`]) keeps every value: a
//!   `[inputs × L]` input tile
//!   ([`crate::batch::InputRecipe::fill_lane_block`]) and an `[ops × L]`
//!   results tile, one slot per operation.  It serves the callers that read
//!   every op's value after the pass — a session's priming pass,
//!   [`OpList::evaluate`] — and outside callers that stage the fill and the
//!   kernel themselves.  The incremental dirty-cone replay visits
//!   operations in another order but applies the same arithmetic.
//!
//! Because every query runs the identical per-op arithmetic in the identical
//! order — lane blocking only regroups *independent* queries, and register
//! reuse only moves where a value is kept — the results depend neither on
//! `L` nor on the walker.  [`OpList::run_into`] is the independent reference
//! interpreter, and the parity suite in `tests/vectorized.rs` pins both
//! walkers against it across every lane width × numeric mode × precision ×
//! batch length.

use crate::batch::{EvidenceBatch, Obs};
use crate::flatten::{LeafSource, OpKind, OpList, OperandRef};
use crate::numeric::NumericMode;
use crate::precision::{Precision, Quantizer};
use crate::{Result, SpnError};

/// Widest supported lane block: 32 queries, so a lane group is 32 × f64 =
/// 256 bytes, four cache lines.  Each step of a [`LaneProgram`] pays its
/// dispatch (form × kind, index checks, operand copies) once per block, so
/// a wider block spreads that fixed cost over more queries; the register
/// file grows with it (KDDCup2k: 196 lane groups, 49 KiB at 32 lanes; the
/// largest of the nine Fig. 4 circuits, BBC, 568 KiB).  `spn-bench`'s
/// `host_kernel` bin times every width from 8 up per circuit; built with a
/// 64-lane arm, it ran 64 lanes slower than 32 on all nine circuits.
pub const MAX_LANES: usize = 32;

// A recording pass keeps one bit per lane of a `Max` step in a `u32`.
const _: () = assert!(MAX_LANES <= u32::BITS as usize);

/// The supported lane-block widths, in ascending order.  Power-of-two widths
/// keep every lane group naturally aligned within the tile and give the
/// compiler fixed trip counts it unrolls completely.
pub(crate) const LANE_WIDTHS: [usize; 6] = [1, 2, 4, 8, 16, 32];

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
        16 => run_lanes::<16>(ops, inputs, results, out),
        32 => run_lanes::<32>(ops, inputs, results, out),
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

/// Where a [`LaneProgram`] operand is read from: a lane group of the
/// register file, or an entry of the scalar parameter table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Lane(u32),
    Param(u32),
}

/// Which of a step's two operands are parameters (`a`, then `b`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    LaneLane,
    ParamLane,
    LaneParam,
    ParamParam,
}

/// One operation of a [`LaneProgram`]: `dst = a kind b`, where `a` and `b`
/// index the register file or the parameter table as `form` says, and
/// `dst` is a register slot (it may be one of the operands' own).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    kind: OpKind,
    form: Form,
    a: u32,
    b: u32,
    dst: u32,
}

/// An [`OpList`] register-allocated for the lane-blocked batch path.
///
/// The register file of an `L`-lane block holds `slots × L` values,
/// slot-major like the tiles of [`run_lane_block`]: slot `2·var + value`
/// holds the indicator `[var = value]` of the block's `L` queries (in the
/// program's numeric domain), and every slot above `2·vars` holds an
/// operation's result until its last reader has run.  A linear scan in op
/// order frees an operation's operands after their last reader, before
/// that operation takes its slot, so a result may land in its own
/// operand's slot; a result nobody reads is freed at once, and the root's
/// slot never is.  So `slots` is `2·vars` plus the most results live at any
/// one operation.  Parameters are a scalar table, broadcast to a lane
/// group where an operation reads one.
///
/// Every operation applies `OpKind::apply_lanes` and rounds through the
/// program's `Quantizer` exactly as [`run_lane_block`] does, so the values
/// are bit-for-bit those of the full-tile walker and of
/// [`OpList::run_into`].
///
/// ```
/// use spn_core::random::{random_spn, RandomSpnConfig};
/// use spn_core::vectorized::LaneProgram;
/// use spn_core::{flatten::OpList, Evidence, EvidenceBatch};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let spn = random_spn(&RandomSpnConfig::with_vars(6), &mut StdRng::seed_from_u64(5));
/// let ops = OpList::from_spn(&spn);
/// let program = LaneProgram::from_op_list(&ops);
/// assert!(program.slots() <= ops.num_inputs() + ops.num_ops());
///
/// let mut e = Evidence::marginal(6);
/// e.observe(2, true);
/// let batch = EvidenceBatch::from_evidences(6, &[Evidence::marginal(6), e.clone()]).unwrap();
/// let mut registers = vec![0.0; program.slots() * 2];
/// let mut out = [0.0; 2];
/// program.run_block(&batch, 0, 2, &mut registers, &mut out);
/// assert_eq!(out[1].to_bits(), ops.evaluate(&e).unwrap().to_bits());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LaneProgram {
    steps: Vec<Step>,
    params: Vec<f64>,
    root: Source,
    slots: usize,
    /// The [`OpKind::Max`] steps among `steps`.
    max_steps: usize,
    num_vars: usize,
    /// `indicators[obs as usize][value as usize]`: the domain value of the
    /// indicator `[var = value]` under observation `obs`.
    indicators: [[f64; 2]; 3],
    precision: Precision,
}

impl LaneProgram {
    /// Register-allocates `ops`: one pass over the inputs, one to find each
    /// result's last reader and one linear scan, so building is linear in
    /// the program.
    pub fn from_op_list(ops: &OpList) -> LaneProgram {
        let mut params = Vec::new();
        let inputs: Vec<Source> = ops
            .inputs()
            .iter()
            .map(|leaf| match *leaf {
                LeafSource::Indicator { var, value } => Source::Lane(2 * var.0 + u32::from(value)),
                LeafSource::Param(p) => {
                    params.push(p);
                    Source::Param(params.len() as u32 - 1)
                }
            })
            .collect();

        const UNREAD: u32 = u32::MAX;
        let mut last_reader = vec![UNREAD; ops.num_ops()];
        for (i, op) in (0..).zip(ops.ops()) {
            for operand in [op.lhs, op.rhs] {
                if let OperandRef::Op(j) = operand {
                    last_reader[j as usize] = i;
                }
            }
        }
        let root_op = match ops.output() {
            OperandRef::Op(j) => Some(j),
            OperandRef::Input(_) => None,
        };

        // Result slots start above the indicator groups.
        let mut slots = 2 * ops.num_vars() as u32;
        let mut free: Vec<u32> = Vec::new();
        let mut slot_of = vec![0u32; ops.num_ops()];
        let mut steps = Vec::with_capacity(ops.num_ops());
        let source = |operand: OperandRef, slot_of: &[u32]| match operand {
            OperandRef::Input(k) => inputs[k as usize],
            OperandRef::Op(j) => Source::Lane(slot_of[j as usize]),
        };
        for (i, op) in (0..).zip(ops.ops()) {
            let (a, b) = (source(op.lhs, &slot_of), source(op.rhs, &slot_of));
            for (n, operand) in [op.lhs, op.rhs].into_iter().enumerate() {
                let repeat = n == 1 && op.rhs == op.lhs;
                if let OperandRef::Op(j) = operand {
                    if last_reader[j as usize] == i && root_op != Some(j) && !repeat {
                        free.push(slot_of[j as usize]);
                    }
                }
            }
            let dst = free.pop().unwrap_or_else(|| {
                slots += 1;
                slots - 1
            });
            slot_of[i as usize] = dst;
            if last_reader[i as usize] == UNREAD && root_op != Some(i) {
                free.push(dst);
            }
            let (form, a, b) = match (a, b) {
                (Source::Lane(a), Source::Lane(b)) => (Form::LaneLane, a, b),
                (Source::Param(a), Source::Lane(b)) => (Form::ParamLane, a, b),
                (Source::Lane(a), Source::Param(b)) => (Form::LaneParam, a, b),
                (Source::Param(a), Source::Param(b)) => (Form::ParamParam, a, b),
            };
            steps.push(Step {
                kind: op.kind,
                form,
                a,
                b,
                dst,
            });
        }

        let domain = |linear: f64| match ops.mode() {
            NumericMode::Linear => linear,
            NumericMode::Log => linear.ln(),
        };
        LaneProgram {
            steps,
            params,
            root: source(ops.output(), &slot_of),
            slots: slots as usize,
            max_steps: ops.ops().iter().filter(|op| op.kind == OpKind::Max).count(),
            num_vars: ops.num_vars(),
            indicators: [Obs::False, Obs::True, Obs::Marginal]
                .map(|obs| [false, true].map(|value| domain(obs.indicator(value)))),
            precision: ops.precision(),
        }
    }

    /// Lane groups in the register file: `2·vars` indicator groups plus
    /// the most results live at once.
    pub fn slots(&self) -> usize {
        self.slots
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

    /// Runs queries `start .. start + lanes` of `batch` in the register
    /// file `registers` (at least `slots × lanes` values, overwritten) and
    /// writes their root values to `out[..lanes]`, in batch order.
    ///
    /// `lanes` must be one of `LANE_WIDTHS`; the call dispatches to the
    /// monomorphized fixed-width kernel, as [`run_lane_block`] does.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is unsupported, a buffer is too short, the query
    /// range leaves `batch`, or `batch` has another variable count
    /// (callers validate it via [`LaneProgram::check`] first).
    pub fn run_block(
        &self,
        batch: &EvidenceBatch,
        start: usize,
        lanes: usize,
        registers: &mut [f64],
        out: &mut [f64],
    ) {
        match lanes {
            1 => self.run::<1, false>(batch, start, registers, &mut [], out),
            2 => self.run::<2, false>(batch, start, registers, &mut [], out),
            4 => self.run::<4, false>(batch, start, registers, &mut [], out),
            8 => self.run::<8, false>(batch, start, registers, &mut [], out),
            16 => self.run::<16, false>(batch, start, registers, &mut [], out),
            32 => self.run::<32, false>(batch, start, registers, &mut [], out),
            other => panic!("unsupported lane width {other} (expected one of {LANE_WIDTHS:?})"),
        }
    }

    /// The [`OpKind::Max`] steps of the program: the winner masks one
    /// recording pass writes.
    pub(crate) fn max_steps(&self) -> usize {
        self.max_steps
    }

    /// [`LaneProgram::run_block`] recording which operand won each
    /// [`OpKind::Max`] step: `winners[m]` gets one bit per lane for the
    /// program's `m`-th `Max` step, set where the left operand is at least
    /// the right one (`lhs >= rhs`, so ties go left and a NaN goes right).
    /// The values are those of [`LaneProgram::run_block`].
    ///
    /// # Panics
    ///
    /// As for [`LaneProgram::run_block`], and when `winners` is shorter
    /// than [`LaneProgram::max_steps`].
    pub(crate) fn run_block_recording(
        &self,
        batch: &EvidenceBatch,
        start: usize,
        lanes: usize,
        registers: &mut [f64],
        winners: &mut [u32],
        out: &mut [f64],
    ) {
        match lanes {
            1 => self.run::<1, true>(batch, start, registers, winners, out),
            2 => self.run::<2, true>(batch, start, registers, winners, out),
            4 => self.run::<4, true>(batch, start, registers, winners, out),
            8 => self.run::<8, true>(batch, start, registers, winners, out),
            16 => self.run::<16, true>(batch, start, registers, winners, out),
            32 => self.run::<32, true>(batch, start, registers, winners, out),
            other => panic!("unsupported lane width {other} (expected one of {LANE_WIDTHS:?})"),
        }
    }

    /// The fixed-width form of [`LaneProgram::run_block`], recording the
    /// `Max` steps' winners into `winners` when `RECORD` is set.
    fn run<const L: usize, const RECORD: bool>(
        &self,
        batch: &EvidenceBatch,
        start: usize,
        registers: &mut [f64],
        winners: &mut [u32],
        out: &mut [f64],
    ) {
        assert!(
            registers.len() >= self.slots * L,
            "register file too short for {L} lanes"
        );
        assert!(out.len() >= L, "output slice too short for {L} lanes");
        assert!(
            !RECORD || winners.len() >= self.max_steps,
            "winner masks too short"
        );
        assert_eq!(batch.num_vars(), self.num_vars, "batch variable count");
        assert!(
            start + L <= batch.len(),
            "lane block {start}..{} leaves the batch (len {})",
            start + L,
            batch.len()
        );
        let (registers, _) = registers[..self.slots * L].as_chunks_mut::<L>();
        let rows: [&[Obs]; L] = std::array::from_fn(|l| batch.query(start + l));
        for (var, pair) in registers[..2 * self.num_vars]
            .chunks_exact_mut(2)
            .enumerate()
        {
            for (l, row) in rows.iter().enumerate() {
                let [when_false, when_true] = self.indicators[row[var] as usize];
                pair[0][l] = when_false;
                pair[1][l] = when_true;
            }
        }
        // As in `run_lanes`: full-precision programs run a body with no
        // quantization code at all.
        let quantizer = Quantizer::new(self.precision);
        if self.precision == Precision::F64 {
            self.run_steps::<L, false, RECORD>(registers, &quantizer, winners);
        } else {
            self.run_steps::<L, true, RECORD>(registers, &quantizer, winners);
        }
        out[..L].copy_from_slice(&match self.root {
            Source::Lane(slot) => registers[slot as usize],
            Source::Param(p) => [self.params[p as usize]; L],
        });
    }

    /// One pass over the steps, `L` lanes at a time, quantizing on store
    /// when `QUANTIZE` is set and writing each `Max` step's winner mask to
    /// the next word of `winners` when `RECORD` is.  Both operands are
    /// copied out before the store, so `dst` may be an operand's own slot.
    fn run_steps<const L: usize, const QUANTIZE: bool, const RECORD: bool>(
        &self,
        registers: &mut [[f64; L]],
        quantizer: &Quantizer,
        winners: &mut [u32],
    ) {
        let params = &self.params[..];
        let mut next_winner = 0;
        for step in &self.steps {
            let (a, b) = (step.a as usize, step.b as usize);
            let (a, b) = match step.form {
                Form::LaneLane => (registers[a], registers[b]),
                Form::ParamLane => ([params[a]; L], registers[b]),
                Form::LaneParam => (registers[a], [params[b]; L]),
                Form::ParamParam => ([params[a]; L], [params[b]; L]),
            };
            if RECORD && step.kind == OpKind::Max {
                let mut mask = 0u32;
                for (l, (x, y)) in a.iter().zip(&b).enumerate() {
                    mask |= u32::from(x >= y) << l;
                }
                winners[next_winner] = mask;
                next_winner += 1;
            }
            let dst = &mut registers[step.dst as usize];
            step.kind.apply_lanes(&a, &b, dst);
            if QUANTIZE {
                for d in dst.iter_mut() {
                    *d = quantizer.round(*d);
                }
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
    use crate::flatten::Op;
    use crate::random::{random_spn, RandomSpnConfig};
    use crate::{Evidence, VarId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normalize_lanes_rounds_down_to_supported_widths() {
        let expected = [1, 1, 2, 2, 4, 4, 4, 4, 8, 8];
        for (requested, &want) in (0..10).zip(&expected) {
            assert_eq!(normalize_lanes(requested), want, "requested {requested}");
        }
        for (requested, want) in [(15, 8), (16, 16), (31, 16), (32, 32), (33, 32)] {
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

    /// `rows` queries cycling each variable through marginal, `true` and
    /// `false`.
    fn mixed_rows(num_vars: usize, rows: usize) -> EvidenceBatch {
        let mut batch = EvidenceBatch::new(num_vars);
        for q in 0..rows {
            let row = (0..num_vars)
                .map(|v| [None, Some(true), Some(false)][(q + v) % 3])
                .collect();
            batch.push(&Evidence::from_options(row)).unwrap();
        }
        batch
    }

    /// Builds `ops`' lane program and checks it against the full-tile
    /// walker bit for bit, at every lane width, on a block at each end of a
    /// ragged batch, from a register file of NaNs (a step that read a slot
    /// nothing wrote would give NaN).
    fn lane_program_matching_run_lanes(ops: &OpList, context: &str) -> LaneProgram {
        let program = LaneProgram::from_op_list(ops);
        let batch = mixed_rows(ops.num_vars(), MAX_LANES + 3);
        let recipe = ops.input_recipe();
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for &lanes in &LANE_WIDTHS {
            for start in [0, batch.len() - lanes] {
                let mut tile = vec![0.0; recipe.num_inputs() * lanes];
                recipe.fill_lane_block(&batch, start, lanes, &mut tile);
                let mut results = vec![0.0; ops.num_ops() * lanes];
                let mut want = vec![0.0; lanes];
                run_lane_block(ops, lanes, &tile, &mut results, &mut want);
                let mut registers = vec![f64::NAN; program.slots() * lanes];
                let mut got = vec![0.0; lanes];
                program.run_block(&batch, start, lanes, &mut registers, &mut got);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{context} lanes={lanes} start={start}"
                );
            }
        }
        program
    }

    #[test]
    fn a_zero_op_program_returns_its_input_slot() {
        let inputs = vec![
            LeafSource::Indicator {
                var: VarId(1),
                value: true,
            },
            LeafSource::Param(0.25),
        ];
        for mode in NumericMode::ALL {
            for root in 0..2 {
                let ops =
                    OpList::from_parts(inputs.clone(), vec![], OperandRef::Input(root), 2, mode);
                let program = lane_program_matching_run_lanes(&ops, &format!("{mode} root {root}"));
                assert_eq!(program.slots(), 4, "two variables, no results");
                assert!(program.steps.is_empty());
            }
        }
    }

    /// A program using all five operations and all four operand forms,
    /// with a dead result, one operand read twice and results landing in
    /// their own operands' slots.
    fn every_kind_and_form(mode: NumericMode) -> OpList {
        use OperandRef::{Input, Op as R};
        let indicator = |var, value| LeafSource::Indicator {
            var: VarId(var),
            value,
        };
        let inputs = vec![
            indicator(0, true),
            indicator(0, false),
            indicator(1, true),
            LeafSource::Param(0.3),
            LeafSource::Param(0.7),
            LeafSource::Param(0.6),
        ];
        let op = |kind, lhs, rhs| Op { kind, lhs, rhs };
        let ops = vec![
            op(OpKind::Mul, Input(0), Input(3)),
            op(OpKind::Mul, Input(4), Input(1)),
            op(OpKind::Add, R(0), R(1)),
            // Read by nobody.
            op(OpKind::Sam, R(2), Input(5)),
            op(OpKind::Max, R(2), Input(2)),
            op(OpKind::Add, Input(3), Input(4)),
            op(OpKind::LogAdd, R(4), R(4)),
            op(OpKind::Mul, R(6), R(5)),
        ];
        OpList::from_parts(inputs, ops, R(7), 2, mode)
    }

    #[test]
    fn registers_are_reused_after_the_last_reader_and_at_once_when_dead() {
        let program = LaneProgram::from_op_list(&every_kind_and_form(NumericMode::Linear));
        let forms: Vec<Form> = program.steps.iter().map(|s| s.form).collect();
        for form in [
            Form::LaneLane,
            Form::ParamLane,
            Form::LaneParam,
            Form::ParamParam,
        ] {
            assert!(forms.contains(&form), "{form:?}");
        }
        let dst: Vec<u32> = program.steps.iter().map(|s| s.dst).collect();
        // Two indicator groups per variable, then at most two live results.
        assert_eq!(program.slots(), 6);
        assert_eq!(dst, [4, 5, 5, 4, 5, 4, 5, 4]);
        // Op 2 writes over its operand op 1, op 4 over its operand op 2,
        // and op 6 over the operand it reads twice.
        assert_eq!(program.steps[2].b, 5);
        assert_eq!((program.steps[4].a, program.steps[6].a), (5, 5));
        // The dead op 3's slot goes to op 5 at once.
        assert_eq!(program.steps[5].form, Form::ParamParam);
        assert_eq!(program.root, Source::Lane(4));
    }

    #[test]
    fn lane_program_matches_run_lanes_in_every_mode_precision_and_width() {
        let mut rng = StdRng::seed_from_u64(9);
        let spn = random_spn(&RandomSpnConfig::with_vars(9), &mut rng);
        let flat = OpList::from_spn(&spn);
        for mode in NumericMode::ALL {
            let lowered = flat.with_mode(mode);
            let programs = [
                ("random", lowered.clone()),
                ("max-product", lowered.to_max_product()),
                ("every kind", every_kind_and_form(mode)),
            ];
            for (name, ops) in programs {
                for precision in Precision::SWEEP {
                    let ops = ops.with_precision(precision);
                    lane_program_matching_run_lanes(&ops, &format!("{name} {mode}/{precision}"));
                }
            }
        }
    }

    #[test]
    fn a_recording_pass_writes_each_max_steps_winners_and_the_same_values() {
        let mut rng = StdRng::seed_from_u64(10);
        let spn = random_spn(&RandomSpnConfig::with_vars(9), &mut rng);
        for mode in NumericMode::ALL {
            for precision in Precision::SWEEP {
                let ops = OpList::from_spn(&spn)
                    .with_mode(mode)
                    .with_precision(precision)
                    .to_max_product();
                let program = LaneProgram::from_op_list(&ops);
                let batch = mixed_rows(ops.num_vars(), MAX_LANES + 3);
                let recipe = ops.input_recipe();
                for &lanes in &LANE_WIDTHS {
                    let start = batch.len() - lanes;
                    let mut tile = vec![0.0; recipe.num_inputs() * lanes];
                    recipe.fill_lane_block(&batch, start, lanes, &mut tile);
                    let mut results = vec![0.0; ops.num_ops() * lanes];
                    let mut want = vec![0.0; lanes];
                    run_lane_block(&ops, lanes, &tile, &mut results, &mut want);
                    let value = |operand, lane| match operand {
                        OperandRef::Input(k) => tile[k as usize * lanes + lane],
                        OperandRef::Op(k) => results[k as usize * lanes + lane],
                    };
                    let want_winners: Vec<u32> = ops
                        .ops()
                        .iter()
                        .filter(|op| op.kind == OpKind::Max)
                        .map(|op| {
                            (0..lanes)
                                .map(|l| u32::from(value(op.lhs, l) >= value(op.rhs, l)) << l)
                                .sum()
                        })
                        .collect();
                    let mut registers = vec![f64::NAN; program.slots() * lanes];
                    let mut winners = vec![0; program.max_steps()];
                    let mut got = vec![0.0; lanes];
                    program.run_block_recording(
                        &batch,
                        start,
                        lanes,
                        &mut registers,
                        &mut winners,
                        &mut got,
                    );
                    let context = format!("{mode}/{precision} lanes={lanes}");
                    assert_eq!(winners, want_winners, "{context}");
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "{context}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unsupported lane width")]
    fn lane_program_rejects_unsupported_lane_widths() {
        let ops = every_kind_and_form(NumericMode::Linear);
        let program = LaneProgram::from_op_list(&ops);
        let batch = mixed_rows(2, 3);
        let mut registers = vec![0.0; program.slots() * 3];
        program.run_block(&batch, 0, 3, &mut registers, &mut [0.0; 3]);
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
