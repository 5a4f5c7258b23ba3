//! What one processing element computes.
//!
//! The PE tree is a complete binary reduction tree: level-0 PEs take two
//! crossbar inputs each, a PE at level `l > 0` takes the outputs of the two
//! PEs directly below it.  Each PE either adds, multiplies, takes a maximum
//! or log-sum-exp, compares, forwards one of its inputs, or idles.  Which
//! values meet at which PE is fixed by the program and resolved once per
//! plan when the simulator lowers it to a dataflow list; `apply_pe` is
//! the arithmetic that list replays per query.

use crate::isa::PeOp;
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
#[inline]
pub(crate) fn apply_pe(op: PeOp, a: f64, b: f64, precision: Precision) -> f64 {
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
