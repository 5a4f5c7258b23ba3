//! The PE datapath's emulated arithmetic format.
//!
//! The real processor is synthesised with a per-application floating-point
//! width; the simulator models that by rounding every PE result through
//! [`round_to`].  This module mirrors `spn_core::precision` **bit for bit**
//! (this crate deliberately has no dependency on `spn-core`, the same
//! arrangement as the duplicated `log_sum_exp` kernel in [`crate::tree`]);
//! the two quantizers must stay identical for the simulator to agree with
//! the interpreted reduced-precision oracle — a cross-crate test in
//! `spn-compiler` pins them against each other.
//!
//! Semantics (see `spn_core::precision` for the full discussion): mantissa
//! round-to-nearest-even, saturation to the format's largest finite value,
//! flush-to-zero below its smallest normal, and `±0` / `±inf` / NaN passed
//! through unchanged (`-inf` encodes log-domain probability zero).

use serde::{Deserialize, Serialize};

/// Widest custom exponent width (the `f64` exponent field).
pub(crate) const MAX_EXP_BITS: u8 = 11;
/// Widest custom mantissa width (the `f64` fraction field).
pub(crate) const MAX_MANT_BITS: u8 = 52;

/// The floating-point format the PE trees compute in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Precision {
    /// Native IEEE `f64` — no quantization.
    #[default]
    F64,
    /// IEEE `f32` (emulated by rounding through `as f32`).
    F32,
    /// A custom format with `exp_bits` exponent and `mant_bits` explicit
    /// mantissa bits; no subnormals (flush-to-zero), saturating overflow.
    Custom {
        /// Exponent field width in bits (2 ..= 11, the `f64` exponent field).
        exp_bits: u8,
        /// Explicit mantissa field width in bits (1 ..= 52, the `f64` fraction field).
        mant_bits: u8,
    },
}

impl Precision {
    /// The format's largest finite value.
    pub(crate) fn max_value(self) -> f64 {
        match self {
            Precision::F64 => f64::MAX,
            Precision::F32 => f64::from(f32::MAX),
            Precision::Custom {
                exp_bits,
                mant_bits,
            } => {
                let (exp_bits, mant_bits) = clamped(exp_bits, mant_bits);
                let emax = (1i32 << (exp_bits - 1)) - 1;
                (2.0 - (2.0f64).powi(-i32::from(mant_bits))) * (2.0f64).powi(emax)
            }
        }
    }

    /// The format's smallest positive normal value.
    pub(crate) fn min_positive(self) -> f64 {
        match self {
            Precision::F64 => f64::MIN_POSITIVE,
            Precision::F32 => f64::from(f32::MIN_POSITIVE),
            Precision::Custom { exp_bits, .. } => {
                let (exp_bits, _) = clamped(exp_bits, 1);
                (2.0f64).powi(2 - (1i32 << (exp_bits - 1)))
            }
        }
    }
}

/// Clamps directly-constructed custom field widths into the supported range
/// (mirrors `spn_core::precision`; keeps the quantizer total).
fn clamped(exp_bits: u8, mant_bits: u8) -> (u8, u8) {
    (
        exp_bits.clamp(2, MAX_EXP_BITS),
        mant_bits.clamp(1, MAX_MANT_BITS),
    )
}

/// Quantizes `x` to `precision` — identical, bit for bit, to
/// `spn_core::precision::round_to`.
#[inline]
pub fn round_to(precision: Precision, x: f64) -> f64 {
    match precision {
        Precision::F64 => x,
        Precision::F32 => {
            // `as f32` rounds to nearest but overflows finite values beyond
            // the f32 range to ±inf; saturate those to ±max like the custom
            // formats, so finite inputs never produce infinities.
            let y = x as f32 as f64;
            if y.is_infinite() && x.is_finite() {
                f64::from(f32::MAX).copysign(x)
            } else {
                y
            }
        }
        Precision::Custom {
            exp_bits,
            mant_bits,
        } => quantize_custom(exp_bits, mant_bits, x),
    }
}

/// The custom-format quantizer: mantissa round-to-nearest-even, exponent
/// saturation to `±max`, flush-to-zero below the smallest normal.
fn quantize_custom(exp_bits: u8, mant_bits: u8, x: f64) -> f64 {
    if x == 0.0 || !x.is_finite() {
        return x;
    }
    let (exp_bits, mant_bits) = clamped(exp_bits, mant_bits);

    let shift = u32::from(MAX_MANT_BITS - mant_bits);
    let rounded = if shift == 0 {
        x
    } else {
        let bits = x.to_bits();
        let remainder = bits & ((1u64 << shift) - 1);
        let half = 1u64 << (shift - 1);
        let mut kept = bits >> shift;
        if remainder > half || (remainder == half && kept & 1 == 1) {
            kept += 1;
        }
        f64::from_bits(kept << shift)
    };

    let precision = Precision::Custom {
        exp_bits,
        mant_bits,
    };
    let max = precision.max_value();
    if rounded.abs() > max {
        return max.copysign(rounded);
    }
    if rounded.abs() < precision.min_positive() {
        return 0.0f64.copysign(rounded);
    }
    rounded
}

#[cfg(test)]
mod tests {
    use super::*;

    const E8M10: Precision = Precision::Custom {
        exp_bits: 8,
        mant_bits: 10,
    };

    #[test]
    fn f64_is_identity() {
        for x in [0.0, 1.0, -0.3, 1e300, f64::NEG_INFINITY] {
            assert_eq!(round_to(Precision::F64, x).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn custom_rounds_saturates_and_flushes() {
        let p = Precision::Custom {
            exp_bits: 8,
            mant_bits: 2,
        };
        assert_eq!(round_to(p, 1.1), 1.0);
        assert_eq!(round_to(p, 1.125), 1.0); // tie to even
        assert_eq!(round_to(p, 1.375), 1.5); // tie to even
        assert_eq!(round_to(E8M10, 1e39), E8M10.max_value());
        assert_eq!(round_to(E8M10, -1e-39).to_bits(), (-0.0f64).to_bits());
        assert_eq!(round_to(E8M10, f64::NEG_INFINITY), f64::NEG_INFINITY);
    }

    #[test]
    fn quantization_is_idempotent() {
        for x in [0.3, -0.7, 1e-30, 3.5e38, 0.999] {
            let once = round_to(E8M10, x);
            assert_eq!(round_to(E8M10, once).to_bits(), once.to_bits());
        }
    }
}
