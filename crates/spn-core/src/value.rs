use std::fmt;
use std::ops::{Add, Mul};

use crate::numeric::log_sum_exp;

/// A probability stored in the log domain.
///
/// Sum-product networks over many variables produce probabilities far below
/// the smallest positive `f64`; the log domain keeps them representable.
/// `LogProb` implements `+` as log-sum-exp (probability addition) and `*` as
/// addition of logs (probability multiplication), so code written against
/// linear probabilities maps directly.
///
/// ```
/// use spn_core::LogProb;
///
/// let a = LogProb::from_linear(0.25);
/// let b = LogProb::from_linear(0.5);
/// assert!(((a + a).to_linear() - 0.5).abs() < 1e-12);
/// assert!(((a * b).to_linear() - 0.125).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct LogProb(f64);

impl LogProb {
    /// The log-domain representation of probability zero.
    pub(crate) const ZERO: LogProb = LogProb(f64::NEG_INFINITY);

    /// Creates a log probability from a linear-domain value.
    ///
    /// # Panics
    ///
    /// Panics if `p` is negative or NaN.
    pub fn from_linear(p: f64) -> Self {
        assert!(p >= 0.0 && !p.is_nan(), "probability must be non-negative");
        LogProb(p.ln())
    }

    /// Creates a log probability directly from its natural logarithm.
    pub(crate) fn from_ln(ln: f64) -> Self {
        LogProb(ln)
    }

    /// Returns the natural logarithm stored in this value.
    pub fn ln(self) -> f64 {
        self.0
    }

    /// Converts back to the linear domain (may underflow to `0.0`).
    pub fn to_linear(self) -> f64 {
        self.0.exp()
    }

    /// Returns `true` if this represents probability zero.
    pub fn is_zero(self) -> bool {
        self.0 == f64::NEG_INFINITY
    }
}

impl Default for LogProb {
    fn default() -> Self {
        LogProb::ZERO
    }
}

impl Add for LogProb {
    type Output = LogProb;

    /// Log-sum-exp: `ln(e^a + e^b)` computed without overflow.
    fn add(self, rhs: LogProb) -> LogProb {
        LogProb(log_sum_exp(self.0, rhs.0))
    }
}

impl Mul for LogProb {
    type Output = LogProb;

    fn mul(self, rhs: LogProb) -> LogProb {
        if self.is_zero() || rhs.is_zero() {
            // Avoid -inf + inf producing NaN for degenerate operands.
            return LogProb::ZERO;
        }
        LogProb(self.0 + rhs.0)
    }
}

impl fmt::Display for LogProb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "exp({})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one_behave() {
        let one = LogProb::from_linear(1.0);
        assert!(LogProb::ZERO.is_zero());
        assert_eq!(one.to_linear(), 1.0);
        assert_eq!((LogProb::ZERO + one).to_linear(), 1.0);
        assert!((LogProb::ZERO * one).is_zero());
    }

    #[test]
    fn add_matches_linear_domain() {
        let a = LogProb::from_linear(0.3);
        let b = LogProb::from_linear(0.45);
        assert!(((a + b).to_linear() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mul_matches_linear_domain() {
        let a = LogProb::from_linear(0.3);
        let b = LogProb::from_linear(0.5);
        assert!(((a * b).to_linear() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn survives_underflow_scale() {
        // 2^-2000 is far below f64 range in linear domain.
        let tiny = LogProb::from_ln(-2000.0 * std::f64::consts::LN_2);
        let doubled = tiny + tiny;
        assert!((doubled.ln() - (tiny.ln() + std::f64::consts::LN_2)).abs() < 1e-9);
    }

    #[test]
    fn default_is_zero() {
        assert!(LogProb::default().is_zero());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_probability_panics() {
        let _ = LogProb::from_linear(-0.1);
    }
}
