//! Emulated PE arithmetic precision.
//!
//! The paper's processor owes its energy and throughput numbers to running
//! the PE trees in *custom reduced-precision floats* chosen per application
//! rather than IEEE doubles: a narrower mantissa shrinks the multiplier
//! array and a narrower exponent the alignment shifters, at the cost of a
//! bounded relative error per operation.  This module models that dimension
//! in software: a [`Precision`] names a floating-point format and a
//! `Quantizer` (for a single value: [`round_to`]) is what every execution
//! backend applies to each intermediate value, so an `f64` simulation
//! reproduces exactly what a reduced-precision datapath would compute.
//!
//! # Quantizer semantics
//!
//! [`round_to`] maps an `f64` onto the nearest value representable in the
//! target format:
//!
//! * the mantissa is rounded to `mant_bits` fractional bits with
//!   round-to-nearest, ties-to-even (the IEEE default, and what a hardware
//!   rounder implements),
//! * values whose magnitude exceeds the format's largest finite value
//!   saturate to `±max_value` (no infinities are produced from finite
//!   inputs),
//! * values whose magnitude falls below the smallest positive normal value
//!   flush to zero (the paper's formats have no subnormals),
//! * `±0`, `±inf` and NaN pass through unchanged — `-inf` is the log-domain
//!   encoding of probability zero and must survive quantization.
//!
//! The quantizer is idempotent (`round_to(p, round_to(p, x)) ==
//! round_to(p, x)`), which is what makes "quantize after every operation"
//! well defined regardless of how values flow between PEs, registers and
//! the data memory.
//!
//! # Threading through the stack
//!
//! [`crate::flatten::OpList::with_precision`] stamps a program with a
//! precision (quantizing its baked-in parameters — the data memory holds
//! reduced-precision words too); the interpreted kernels here (which the
//! CPU and GPU models both run) and the processor simulator's PE trees
//! quantize every intermediate, the compiler artifact records the
//! precision, and the serving layer caches one compiled artifact per
//! `(model, numeric mode, precision)`.
//!
//! `spn_processor::precision` mirrors this module's quantizer bit for bit
//! (that crate deliberately has no dependency on `spn-core`, the same
//! arrangement as its `log_sum_exp` kernel); a cross-crate test pins the two
//! implementations against each other.

use serde::{Deserialize, Serialize};

use crate::{Result, SpnError};

/// Widest custom exponent width (the `f64` exponent field).
pub(crate) const MAX_EXP_BITS: u8 = 11;
/// Widest custom mantissa width (the `f64` fraction field).
pub(crate) const MAX_MANT_BITS: u8 = 52;

/// The floating-point format a program's arithmetic is emulated in.
///
/// The derived `Ord` follows declaration order (`F64`, `F32`, then custom
/// formats by field widths) and gives per-precision tables and metrics keys
/// a stable sort.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum Precision {
    /// Native IEEE `f64` — no quantization; bit-for-bit the pre-existing
    /// execution paths.
    #[default]
    F64,
    /// IEEE `f32` arithmetic (8-bit exponent, 23-bit mantissa), emulated by
    /// rounding every intermediate through `as f32`.
    F32,
    /// A custom format with `exp_bits` exponent and `mant_bits` explicit
    /// mantissa bits (plus sign and hidden bit), e.g. the paper's 8-bit
    /// exponent / 10-bit mantissa PE configuration.  No subnormals: values
    /// below the smallest normal flush to zero, values beyond the largest
    /// finite saturate.
    ///
    /// Construct through [`Precision::custom`] (or [`Precision::from_name`])
    /// to get the field widths validated.  The quantizer itself is total: a
    /// directly-constructed out-of-range width behaves as if clamped into
    /// `2 ..= MAX_EXP_BITS` / `1 ..= MAX_MANT_BITS` — never a panic or a
    /// garbage value.
    Custom {
        /// Exponent field width in bits (2 ..= 11, the `f64` exponent field).
        exp_bits: u8,
        /// Explicit mantissa field width in bits (1 ..= 52, the `f64` fraction field).
        mant_bits: u8,
    },
}

/// Clamps directly-constructed custom field widths into the supported range
/// (validated constructors never produce out-of-range widths; this keeps
/// the quantizer and the range constants total for ones that bypassed
/// validation).
fn clamped(exp_bits: u8, mant_bits: u8) -> (u8, u8) {
    (
        exp_bits.clamp(2, MAX_EXP_BITS),
        mant_bits.clamp(1, MAX_MANT_BITS),
    )
}

impl Precision {
    /// The paper's headline PE format: 8-bit exponent, 10-bit mantissa.
    pub const E8M10: Precision = Precision::Custom {
        exp_bits: 8,
        mant_bits: 10,
    };

    /// The sweep every benchmark and differential test walks: full, single
    /// and the paper's custom precision.
    pub const SWEEP: [Precision; 3] = [Precision::F64, Precision::F32, Precision::E8M10];

    /// A validated custom format.
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::Invalid`] when either field width is outside its
    /// supported range.
    pub fn custom(exp_bits: u8, mant_bits: u8) -> Result<Precision> {
        if !(2..=MAX_EXP_BITS).contains(&exp_bits) {
            return Err(SpnError::invalid(format!(
                "custom precision needs 2 ..= {MAX_EXP_BITS} exponent bits, got {exp_bits}"
            )));
        }
        if !(1..=MAX_MANT_BITS).contains(&mant_bits) {
            return Err(SpnError::invalid(format!(
                "custom precision needs 1 ..= {MAX_MANT_BITS} mantissa bits, got {mant_bits}"
            )));
        }
        Ok(Precision::Custom {
            exp_bits,
            mant_bits,
        })
    }

    /// Display name: `"f64"`, `"f32"`, or `"e<exp>m<mant>"` for custom
    /// formats (used on the wire and in benchmark records).
    pub fn name(self) -> String {
        match self {
            Precision::F64 => "f64".to_string(),
            Precision::F32 => "f32".to_string(),
            Precision::Custom {
                exp_bits,
                mant_bits,
            } => format!("e{exp_bits}m{mant_bits}"),
        }
    }

    /// Parses a precision name — the inverse of [`Precision::name`].
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::Invalid`] naming the unknown or out-of-range
    /// format.
    pub fn from_name(name: &str) -> Result<Precision> {
        match name {
            "f64" => return Ok(Precision::F64),
            "f32" => return Ok(Precision::F32),
            _ => {}
        }
        let parse = || -> Option<Result<Precision>> {
            let rest = name.strip_prefix('e')?;
            let (exp, mant) = rest.split_once('m')?;
            let exp_bits: u8 = exp.parse().ok()?;
            let mant_bits: u8 = mant.parse().ok()?;
            Some(Precision::custom(exp_bits, mant_bits))
        };
        parse().unwrap_or_else(|| {
            Err(SpnError::invalid(format!(
                "unknown precision {name:?} (expected f64, f32 or e<exp>m<mant>, e.g. e8m10)"
            )))
        })
    }

    /// Explicit mantissa bits of the format.
    pub(crate) fn mant_bits(self) -> u8 {
        match self {
            Precision::F64 => 52,
            Precision::F32 => 23,
            Precision::Custom { mant_bits, .. } => mant_bits,
        }
    }

    /// Exponent bits of the format.
    pub(crate) fn exp_bits(self) -> u8 {
        match self {
            Precision::F64 => 11,
            Precision::F32 => 8,
            Precision::Custom { exp_bits, .. } => exp_bits,
        }
    }

    /// Unit roundoff `u = 2^-(mant_bits + 1)`: the largest relative error a
    /// single quantization of an in-range value can introduce.  Zero for
    /// [`Precision::F64`].
    ///
    /// This is the building block of the differential-test error bound: a
    /// computation of `k` quantized values (inputs and operations) over
    /// non-negative operands satisfies `|computed - exact| <= ((1 + u)^k -
    /// 1) * exact` as long as nothing saturates or flushes to zero.
    pub fn unit_roundoff(self) -> f64 {
        match self {
            Precision::F64 => 0.0,
            Precision::F32 => (2.0f64).powi(-24),
            Precision::Custom {
                exp_bits,
                mant_bits,
            } => {
                let (_, mant_bits) = clamped(exp_bits, mant_bits);
                (2.0f64).powi(-(i32::from(mant_bits) + 1))
            }
        }
    }

    /// The format's largest finite value, `(2 - 2^-mant_bits) * 2^emax`;
    /// larger magnitudes saturate to it.
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

    /// The format's smallest positive normal value, `2^(2 - 2^(exp_bits -
    /// 1))`; smaller magnitudes flush to zero ([`Precision::F64`] and
    /// [`Precision::F32`] keep their native subnormal behaviour).
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

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// A [`Precision`] with its format constants worked out once, so a kernel
/// quantizing every intermediate of a program pays for them per program
/// rather than per value.  [`round_to`] is `Quantizer::new(p).round(x)`:
/// there is one quantizer implementation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Quantizer {
    precision: Precision,
    /// Fraction bits the mantissa rounding drops.
    shift: u32,
    max_value: f64,
    min_positive: f64,
}

impl Quantizer {
    /// The quantizer of `precision`.
    pub(crate) fn new(precision: Precision) -> Quantizer {
        let (_, mant_bits) = clamped(precision.exp_bits(), precision.mant_bits());
        Quantizer {
            precision,
            shift: u32::from(MAX_MANT_BITS - mant_bits),
            max_value: precision.max_value(),
            min_positive: precision.min_positive(),
        }
    }

    /// Quantizes `x` (see the module docs for the exact semantics).
    /// Identity for [`Precision::F64`]; `±0`, `±inf` and NaN always pass
    /// through unchanged.
    #[inline]
    pub(crate) fn round(&self, x: f64) -> f64 {
        match self.precision {
            Precision::F64 => x,
            Precision::F32 => {
                // `as f32` rounds to nearest but overflows finite values
                // beyond the f32 range to ±inf; saturate those to ±max like
                // the custom formats, so finite inputs never produce
                // infinities.
                let y = x as f32 as f64;
                if y.is_infinite() && x.is_finite() {
                    f64::from(f32::MAX).copysign(x)
                } else {
                    y
                }
            }
            Precision::Custom { .. } => self.round_custom(x),
        }
    }

    /// The custom-format quantizer: mantissa round-to-nearest-even, exponent
    /// saturation to `±max`, flush-to-zero below the smallest normal.
    fn round_custom(&self, x: f64) -> f64 {
        if x == 0.0 || !x.is_finite() {
            return x;
        }

        // Mantissa rounding on the raw f64 bits: drop `52 - mant_bits`
        // fraction bits with round-to-nearest, ties-to-even.  A carry out of
        // the fraction correctly bumps the exponent (1.111.. rounds up to
        // the next binade).
        let shift = self.shift;
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

        // Saturate (this also catches a mantissa round-up that carried past
        // the f64 range into infinity) and flush: both clamp to exactly
        // representable values, keeping the quantizer idempotent.
        if rounded.abs() > self.max_value {
            return self.max_value.copysign(rounded);
        }
        if rounded.abs() < self.min_positive {
            return 0.0f64.copysign(rounded);
        }
        rounded
    }
}

/// Quantizes `x` to `precision`: `Quantizer::round` for a single value.
/// Loops over many values build the `Quantizer` once instead.
#[inline]
pub fn round_to(precision: Precision, x: f64) -> f64 {
    Quantizer::new(precision).round(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in [
            Precision::F64,
            Precision::F32,
            Precision::E8M10,
            Precision::custom(5, 2).unwrap(),
            Precision::custom(11, 52).unwrap(),
        ] {
            assert_eq!(Precision::from_name(&p.name()).unwrap(), p, "{p}");
        }
        assert_eq!(Precision::E8M10.to_string(), "e8m10");
        assert_eq!(Precision::default(), Precision::F64);
        for bad in ["f16", "e8", "m10", "e1m10", "e8m0", "e12m10", "e8m53", ""] {
            assert!(Precision::from_name(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn f64_is_identity_and_f32_matches_the_cast_in_range() {
        for x in [0.0, -0.0, 1.0, 0.1, -2.5e37, f64::NEG_INFINITY, 1e-310] {
            assert_eq!(round_to(Precision::F64, x).to_bits(), x.to_bits());
            assert_eq!(
                round_to(Precision::F32, x).to_bits(),
                (x as f32 as f64).to_bits()
            );
        }
        // Beyond the f32 range the cast overflows to ±inf; round_to
        // saturates instead (finite in, finite out — like the custom
        // formats), while a true ±inf still passes through.
        assert_eq!(round_to(Precision::F32, 1e300), f64::from(f32::MAX));
        assert_eq!(round_to(Precision::F32, -1e300), f64::from(-f32::MAX));
        assert_eq!(round_to(Precision::F32, f64::INFINITY), f64::INFINITY);
    }

    #[test]
    fn unvalidated_widths_are_clamped_not_panicked() {
        // Bypassing Precision::custom with out-of-range widths must behave
        // as the nearest supported format, never panic or overflow.
        let wide = Precision::Custom {
            exp_bits: 40,
            mant_bits: 200,
        };
        let widest = Precision::Custom {
            exp_bits: 11,
            mant_bits: 52,
        };
        for x in [1.5, -0.3, 1e300, f64::MAX] {
            assert_eq!(round_to(wide, x).to_bits(), round_to(widest, x).to_bits());
        }
        assert_eq!(wide.max_value(), widest.max_value());
        assert_eq!(wide.min_positive(), widest.min_positive());
        assert_eq!(wide.unit_roundoff(), widest.unit_roundoff());
        let narrow = Precision::Custom {
            exp_bits: 0,
            mant_bits: 0,
        };
        let narrowest = Precision::Custom {
            exp_bits: 2,
            mant_bits: 1,
        };
        for x in [1.5, -0.75, 100.0, 1e-3] {
            assert_eq!(
                round_to(narrow, x).to_bits(),
                round_to(narrowest, x).to_bits()
            );
        }
    }

    #[test]
    fn widest_custom_format_is_the_identity_on_normals() {
        let p = Precision::custom(11, 52).unwrap();
        for x in [1.0, -0.3, 1e300, 2.5e-300, f64::MAX] {
            assert_eq!(round_to(p, x).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn mantissa_rounds_to_nearest_even() {
        // 2 mantissa bits: representable values around 1.0 step by 0.25.
        let p = Precision::custom(8, 2).unwrap();
        assert_eq!(round_to(p, 1.0), 1.0);
        assert_eq!(round_to(p, 1.1), 1.0);
        assert_eq!(round_to(p, 1.2), 1.25);
        // Ties to even: 1.125 sits between 1.0 (even) and 1.25 (odd).
        assert_eq!(round_to(p, 1.125), 1.0);
        // 1.375 sits between 1.25 (odd) and 1.5 (even).
        assert_eq!(round_to(p, 1.375), 1.5);
        // Carry into the next binade: 1.9375 rounds up to 2.0.
        assert_eq!(round_to(p, 1.9375), 2.0);
        assert_eq!(round_to(p, -1.2), -1.25);
    }

    #[test]
    fn out_of_range_values_saturate_and_flush() {
        let p = Precision::E8M10;
        let max = p.max_value();
        assert!(round_to(p, max) == max);
        assert_eq!(round_to(p, 1e39), max);
        assert_eq!(round_to(p, -1e39), -max);
        assert_eq!(round_to(p, f64::MAX), max);
        // Below the smallest normal (~1.18e-38): flush to signed zero.
        assert_eq!(round_to(p, 1e-39), 0.0);
        assert_eq!(round_to(p, -1e-39).to_bits(), (-0.0f64).to_bits());
        assert_eq!(round_to(p, p.min_positive()), p.min_positive());
        // Non-finite values pass through (log-domain -inf survives).
        assert_eq!(round_to(p, f64::NEG_INFINITY), f64::NEG_INFINITY);
        assert!(round_to(p, f64::NAN).is_nan());
        assert_eq!(round_to(p, 0.0), 0.0);
    }

    #[test]
    fn quantization_is_idempotent() {
        for p in [
            Precision::F32,
            Precision::E8M10,
            Precision::custom(5, 2).unwrap(),
        ] {
            for x in [
                0.3, -0.7, 1.0, 123456.789, 1e-30, -1e30, 1e-45, 3.5e38, 0.999,
            ] {
                let once = round_to(p, x);
                assert_eq!(round_to(p, once).to_bits(), once.to_bits(), "{p} {x}");
            }
        }
    }

    #[test]
    fn quantization_error_is_within_the_unit_roundoff() {
        for p in [Precision::F32, Precision::E8M10] {
            let u = p.unit_roundoff();
            assert!(u > 0.0);
            for i in 1..200 {
                let x = 0.013 * i as f64;
                let q = round_to(p, x);
                assert!((q - x).abs() <= u * x.abs(), "{p} {x} -> {q}");
            }
        }
        assert_eq!(Precision::F64.unit_roundoff(), 0.0);
        assert_eq!(Precision::E8M10.unit_roundoff(), (2.0f64).powi(-11));
    }

    #[test]
    fn format_parameters_match_ieee_f32() {
        // Custom e8m23 is IEEE f32 minus subnormals: the range constants must
        // agree with the native type.
        let p = Precision::custom(8, 23).unwrap();
        assert_eq!(p.max_value(), f64::from(f32::MAX));
        assert_eq!(p.min_positive(), f64::from(f32::MIN_POSITIVE));
        assert_eq!(p.unit_roundoff(), (2.0f64).powi(-24));
        // And quantization agrees with the cast wherever the cast stays
        // normal.
        for x in [1.0, 0.1, -3.25e7, 1.5e-30] {
            assert_eq!(round_to(p, x), x as f32 as f64);
        }
    }
}
