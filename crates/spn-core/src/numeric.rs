//! Numeric execution domains of the lowered arithmetic circuit.
//!
//! Linear-domain evaluation multiplies probabilities directly, which silently
//! flushes to `0.0` once a circuit is deep enough (a few hundred sub-unit
//! factors exhaust the `f64` exponent range).  The log domain keeps those
//! values representable: products become additions, sums become log-sum-exp,
//! and maximisation is unchanged (the logarithm is monotone), so the same
//! program structure evaluates either way.
//!
//! [`NumericMode`] names the two domains; it is threaded through the whole
//! lowering stack — [`crate::flatten::OpList`] carries its mode, the
//! [`crate::batch::InputRecipe`] fills indicator inputs with linear or log
//! values, every execution backend runs the mode-specific kernels, and the
//! serving layer caches compiled artifacts per `(model, mode)`.

use serde::{Deserialize, Serialize};

use crate::{Result, SpnError};

/// The numeric domain a lowered program computes in.
///
/// The derived `Ord` follows declaration order (`Linear` before `Log`) and
/// gives per-mode tables and metrics keys a stable sort.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum NumericMode {
    /// Plain probabilities: sums add, products multiply.  Fast and exact for
    /// shallow circuits; underflows to `0.0` on deep ones.
    #[default]
    Linear,
    /// Natural-log probabilities: sums are log-sum-exp, products add, and
    /// probability zero is `-inf`.  Deep circuits stay finite.
    Log,
}

impl NumericMode {
    /// Both modes, in presentation order.
    pub const ALL: [NumericMode; 2] = [NumericMode::Linear, NumericMode::Log];

    /// Lower-case display name (used on the wire and in benchmark records).
    pub fn name(self) -> &'static str {
        match self {
            NumericMode::Linear => "linear",
            NumericMode::Log => "log",
        }
    }

    /// Parses a lower-case mode name (the inverse of [`NumericMode::name`]).
    ///
    /// # Errors
    ///
    /// Returns [`SpnError::Invalid`] naming the unknown mode.
    pub fn from_name(name: &str) -> Result<NumericMode> {
        NumericMode::ALL
            .into_iter()
            .find(|mode| mode.name() == name)
            .ok_or_else(|| {
                SpnError::invalid(format!(
                    "unknown numeric mode {name:?} (expected linear or log)"
                ))
            })
    }
}

impl std::fmt::Display for NumericMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Log-sum-exp of two natural-log values: `ln(e^a + e^b)` computed without
/// overflow, with `-inf` as the additive identity (probability zero).
///
/// This is the scalar kernel behind every log-domain sum: the flattened
/// programs' `LogAdd`, [`crate::LogProb`]'s `+` operator and the
/// interpreted `Evaluator::evaluate_log` oracle all call it.
#[inline]
pub fn log_sum_exp(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    if hi == f64::NEG_INFINITY {
        f64::NEG_INFINITY
    } else {
        hi + (lo - hi).exp().ln_1p()
    }
}

/// Lane-blocked [`log_sum_exp`]: `out[l] = log_sum_exp(a[l], b[l])` for a
/// fixed-width block of `L` independent lanes.
///
/// The hi/lo selection pass uses the same ordered-pair choice as the scalar
/// kernel (`a >= b` picks `(a, b)`), written as value selects so the
/// autovectorizer lowers it to vector compare + blend instead of a branch;
/// the `exp`/`ln_1p` tail stays scalar per lane but the `L` chains are
/// independent, so the core overlaps them.  Results are bit-for-bit those of
/// the scalar [`log_sum_exp`] in every lane.
#[inline]
pub(crate) fn log_sum_exp_lanes<const L: usize>(a: &[f64; L], b: &[f64; L], out: &mut [f64; L]) {
    let mut hi = [0.0f64; L];
    let mut lo = [0.0f64; L];
    for l in 0..L {
        let swap = a[l] >= b[l];
        hi[l] = if swap { a[l] } else { b[l] };
        lo[l] = if swap { b[l] } else { a[l] };
    }
    for l in 0..L {
        out[l] = if hi[l] == f64::NEG_INFINITY {
            f64::NEG_INFINITY
        } else {
            hi[l] + (lo[l] - hi[l]).exp().ln_1p()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for mode in NumericMode::ALL {
            assert_eq!(NumericMode::from_name(mode.name()).unwrap(), mode);
        }
        assert!(NumericMode::from_name("decimal").is_err());
        assert_eq!(NumericMode::default(), NumericMode::Linear);
        assert!(NumericMode::Linear < NumericMode::Log);
        assert_eq!(NumericMode::Log.to_string(), "log");
    }

    #[test]
    fn log_sum_exp_handles_zero_probability() {
        assert_eq!(
            log_sum_exp(f64::NEG_INFINITY, f64::NEG_INFINITY),
            f64::NEG_INFINITY
        );
        assert_eq!(log_sum_exp(f64::NEG_INFINITY, -3.0), -3.0);
        assert_eq!(log_sum_exp(-3.0, f64::NEG_INFINITY), -3.0);
    }

    #[test]
    fn log_sum_exp_lanes_matches_scalar_bit_for_bit() {
        // Tricky pairs: ±inf identities, equal values, signed zeros,
        // denormal-scale logs, asymmetric magnitudes.
        let a = [
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            -745.0,
            -2000.0 * std::f64::consts::LN_2,
            1.5,
            -1e-308,
        ];
        let b = [
            f64::NEG_INFINITY,
            -3.0,
            -0.0,
            0.0,
            -745.0,
            -0.25,
            -900.0,
            1e3,
        ];
        let mut out = [0.0f64; 8];
        log_sum_exp_lanes(&a, &b, &mut out);
        for l in 0..8 {
            assert_eq!(
                out[l].to_bits(),
                log_sum_exp(a[l], b[l]).to_bits(),
                "lane {l}: a={} b={}",
                a[l],
                b[l]
            );
        }
    }

    #[test]
    fn log_sum_exp_survives_deep_underflow_scale() {
        // Two values far below the linear-domain f64 range still add exactly.
        let tiny = -2000.0 * std::f64::consts::LN_2;
        let doubled = log_sum_exp(tiny, tiny);
        assert!((doubled - (tiny + std::f64::consts::LN_2)).abs() < 1e-9);
    }
}
