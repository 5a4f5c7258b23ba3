//! Combinational evaluation of one PE tree configuration.
//!
//! The tree is a complete binary reduction tree: level-0 PEs take two
//! crossbar inputs each, a PE at level `l > 0` takes the outputs of the two
//! PEs directly below it.  Each PE either adds, multiplies, forwards one of
//! its inputs, or idles.  The simulator evaluates the whole tree for one
//! instruction and lets the processor core attach the per-level pipeline
//! latency when committing write-backs.

use crate::config::ProcessorConfig;
use crate::isa::{PeOp, TreeInstr};
use crate::precision::{round_to, Precision};

/// Log-sum-exp of two natural-log values: `ln(e^a + e^b)` without overflow,
/// with `-inf` as the additive identity.
///
/// This mirrors `spn_core::numeric::log_sum_exp` bit for bit (this crate has
/// no dependency on `spn-core`, so the three-line kernel is duplicated); the
/// formulas must stay identical for the simulator to agree with the
/// interpreted log-domain oracle.
#[inline]
pub fn log_sum_exp(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    if hi == f64::NEG_INFINITY {
        f64::NEG_INFINITY
    } else {
        hi + (lo - hi).exp().ln_1p()
    }
}

/// Applies one PE operation to its two inputs, rounding arithmetic results
/// (`Add`/`Mul`/`Max`/`Lse`) to the datapath's emulated `precision`.
///
/// Forwarding (`PassA`/`PassB`) and the idle output are exact in every
/// format — a pass-through latch has no rounder — and quantization is
/// idempotent, so values circulating through passes, registers and the data
/// memory are quantized exactly once per arithmetic operation.
pub fn apply_pe(op: PeOp, a: f64, b: f64, precision: Precision) -> f64 {
    match op {
        PeOp::Nop => 0.0,
        PeOp::Add => round_to(precision, a + b),
        PeOp::Mul => round_to(precision, a * b),
        PeOp::Max => round_to(precision, a.max(b)),
        PeOp::Lse => round_to(precision, log_sum_exp(a, b)),
        // 0.0 and 1.0 are exact in every emulated format, but the result is
        // still rounded so the comparator behaves like the other datapath
        // ops under a hypothetical format that cannot represent them.
        PeOp::Sam => round_to(precision, f64::from(u8::from(a < b))),
        PeOp::PassA => a,
        PeOp::PassB => b,
    }
}

/// The two operands of the PE at `(level, index)`: a pair of crossbar
/// `inputs` at level 0, the outputs of the two PEs directly below otherwise
/// (`outputs` is level-major, as [`TreeInstr::pe_ops`]).
pub fn pe_operands(
    config: &ProcessorConfig,
    inputs: &[f64],
    outputs: &[f64],
    level: usize,
    index: usize,
) -> (f64, f64) {
    if level == 0 {
        (inputs[2 * index], inputs[2 * index + 1])
    } else {
        let below = TreeInstr::pe_flat_index(config, level - 1, 2 * index);
        (outputs[below], outputs[below + 1])
    }
}

/// Evaluates one tree: `pe_ops` on the resolved crossbar values `inputs`
/// (`2 × leaf PEs` entries) into `outputs`, one word per PE, level-major,
/// with every PE computing in the emulated `precision`.
///
/// # Panics
///
/// Panics when a slice does not match the geometry of `config`;
/// [`crate::Processor::check`] establishes that it does.
pub fn evaluate_tree(
    config: &ProcessorConfig,
    pe_ops: &[PeOp],
    inputs: &[f64],
    outputs: &mut [f64],
    precision: Precision,
) {
    let mut flat = 0;
    for level in 0..config.tree_levels {
        for index in 0..config.pes_at_level(level) {
            let (a, b) = pe_operands(config, inputs, outputs, level, index);
            outputs[flat] = apply_pe(pe_ops[flat], a, b, precision);
            flat += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::ReadSel;

    fn tree_instr(config: &ProcessorConfig) -> TreeInstr {
        TreeInstr {
            reads: vec![ReadSel::None; config.tree_inputs_per_tree()],
            pe_ops: vec![
                PeOp::Nop;
                (0..config.tree_levels)
                    .map(|l| config.pes_at_level(l))
                    .sum()
            ],
            writes: Vec::new(),
        }
    }

    #[test]
    fn pe_semantics() {
        assert_eq!(apply_pe(PeOp::Add, 2.0, 3.0, Precision::F64), 5.0);
        assert_eq!(apply_pe(PeOp::Mul, 2.0, 3.0, Precision::F64), 6.0);
        assert_eq!(apply_pe(PeOp::Max, 2.0, 3.0, Precision::F64), 3.0);
        // The sampler comparator is strict and non-commutative.
        assert_eq!(apply_pe(PeOp::Sam, 2.0, 3.0, Precision::F64), 1.0);
        assert_eq!(apply_pe(PeOp::Sam, 3.0, 2.0, Precision::F64), 0.0);
        assert_eq!(apply_pe(PeOp::Sam, 2.0, 2.0, Precision::F64), 0.0);
        assert!(PeOp::Sam.is_arithmetic());
        assert_eq!(apply_pe(PeOp::PassA, 2.0, 3.0, Precision::F64), 2.0);
        assert_eq!(apply_pe(PeOp::PassB, 2.0, 3.0, Precision::F64), 3.0);
        assert_eq!(apply_pe(PeOp::Nop, 2.0, 3.0, Precision::F64), 0.0);
    }

    #[test]
    fn lse_pe_matches_log_domain_addition() {
        // ln(e^a + e^b) with the -inf identity: exactly the log-domain sum.
        let a = 0.25f64.ln();
        let b = 0.5f64.ln();
        assert!((apply_pe(PeOp::Lse, a, b, Precision::F64) - 0.75f64.ln()).abs() < 1e-12);
        assert_eq!(apply_pe(PeOp::Lse, f64::NEG_INFINITY, b, Precision::F64), b);
        assert_eq!(
            apply_pe(
                PeOp::Lse,
                f64::NEG_INFINITY,
                f64::NEG_INFINITY,
                Precision::F64
            ),
            f64::NEG_INFINITY
        );
        // Far below the linear f64 range the sum still lands on ln 2 above.
        let tiny = -5000.0;
        assert!(
            (apply_pe(PeOp::Lse, tiny, tiny, Precision::F64) - (tiny + 2.0f64.ln())).abs() < 1e-12
        );
        assert!(PeOp::Lse.is_arithmetic());
    }

    #[test]
    fn reduced_precision_pes_quantize_arithmetic_but_not_passes() {
        let p = Precision::Custom {
            exp_bits: 8,
            mant_bits: 2,
        };
        // 1.1 + 0.0 = 1.1 rounds to 1.0 with a 2-bit mantissa...
        assert_eq!(apply_pe(PeOp::Add, 1.1, 0.0, p), 1.0);
        assert_eq!(apply_pe(PeOp::Mul, 1.1, 1.0, p), 1.0);
        assert_eq!(apply_pe(PeOp::Max, 1.1, 0.3, p), 1.0);
        // ...but a pass-through forwards the raw value unrounded.
        assert_eq!(apply_pe(PeOp::PassA, 1.1, 0.0, p), 1.1);
        assert_eq!(apply_pe(PeOp::PassB, 0.0, 1.1, p), 1.1);
        // Lse quantizes too, and -inf (log-domain zero) survives.
        assert_eq!(
            apply_pe(PeOp::Lse, f64::NEG_INFINITY, f64::NEG_INFINITY, p),
            f64::NEG_INFINITY
        );
        let lse = apply_pe(PeOp::Lse, 0.25f64.ln(), 0.5f64.ln(), p);
        assert_eq!(round_to(p, lse).to_bits(), lse.to_bits());
    }

    /// Evaluates `instr` on `inputs`, returning the level-major PE outputs.
    fn evaluate(cfg: &ProcessorConfig, instr: &TreeInstr, inputs: &[f64]) -> Vec<f64> {
        let mut outputs = vec![f64::NAN; instr.pe_ops.len()];
        evaluate_tree(cfg, &instr.pe_ops, inputs, &mut outputs, Precision::F64);
        outputs
    }

    #[test]
    fn full_tree_reduction() {
        // Sum of 16 inputs through a 4-level adder tree.
        let cfg = ProcessorConfig::ptree();
        let mut instr = tree_instr(&cfg);
        for op in &mut instr.pe_ops {
            *op = PeOp::Add;
        }
        let inputs: Vec<f64> = (1..=16).map(f64::from).collect();
        let out = evaluate(&cfg, &instr, &inputs);
        let at = |level, index| out[TreeInstr::pe_flat_index(&cfg, level, index)];
        assert_eq!(at(3, 0), 136.0);
        assert_eq!(at(0, 0), 3.0);
        assert_eq!(at(1, 0), 10.0);
        // The root adds the two level-2 sums; leaf 7 adds the last input pair.
        assert_eq!(pe_operands(&cfg, &inputs, &out, 3, 0), (36.0, 100.0));
        assert_eq!(pe_operands(&cfg, &inputs, &out, 0, 7), (15.0, 16.0));
    }

    #[test]
    fn mixed_tree_with_pass_through() {
        // Compute (a*b) propagated up through passes: root = a*b.
        let cfg = ProcessorConfig::ptree();
        let mut instr = tree_instr(&cfg);
        instr.pe_ops[TreeInstr::pe_flat_index(&cfg, 0, 0)] = PeOp::Mul;
        instr.pe_ops[TreeInstr::pe_flat_index(&cfg, 1, 0)] = PeOp::PassA;
        instr.pe_ops[TreeInstr::pe_flat_index(&cfg, 2, 0)] = PeOp::PassA;
        instr.pe_ops[TreeInstr::pe_flat_index(&cfg, 3, 0)] = PeOp::PassA;
        let mut inputs = vec![0.0; 16];
        inputs[0] = 3.0;
        inputs[1] = 4.0;
        let out = evaluate(&cfg, &instr, &inputs);
        assert_eq!(out[TreeInstr::pe_flat_index(&cfg, 3, 0)], 12.0);
    }

    #[test]
    fn pvect_tree_is_single_level() {
        let cfg = ProcessorConfig::pvect();
        let mut instr = tree_instr(&cfg);
        instr.pe_ops[0] = PeOp::Mul;
        instr.pe_ops[7] = PeOp::Add;
        let mut inputs = vec![0.0; 16];
        inputs[0] = 2.0;
        inputs[1] = 5.0;
        inputs[14] = 1.0;
        inputs[15] = 7.0;
        let out = evaluate(&cfg, &instr, &inputs);
        assert_eq!(out.len(), 8);
        assert_eq!(out[0], 10.0);
        assert_eq!(out[7], 8.0);
        // Idle PEs drive zero.
        assert_eq!(out[1..7], [0.0; 6]);
    }
}
