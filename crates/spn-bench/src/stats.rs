//! Statistical acceptance checks for the approximate-inference engine.
//!
//! Monte-Carlo estimators are random, so "the test passed" must mean "an
//! event of pre-registered, astronomically small probability did not
//! happen" — never "the answer looked close enough".  This module fixes the
//! rejection thresholds once, ahead of any data:
//!
//! * `CHI2_P_MIN` = 1e-12 — a chi-square goodness-of-fit test fails only
//!   when its p-value drops below one in a trillion.
//! * `CI_Z` = 7.0 — an estimate fails only when it sits more than seven
//!   standard errors from the exact answer (a two-sided normal tail of
//!   ~2.6e-12).
//!
//! A CI run executes well under a thousand such checks, so by the union
//! bound the probability that a *correct* sampler ever fails CI is below
//! 1e-9 — while a biased sampler or a mis-reported variance blows through
//! either threshold with high probability at the sample sizes the tests
//! draw (≥ 10⁴).  Seeded-determinism checks ([`check_deterministic`]) are
//! exact and carry no statistical budget at all.
//!
//! The special functions (log-gamma, regularized incomplete gamma) are
//! implemented here because the offline build has no scientific-computing
//! dependency; accuracy is ~1e-10 relative, which is vastly tighter than
//! any threshold above needs.

/// Pre-registered chi-square rejection threshold: fail when `p < CHI2_P_MIN`.
pub(crate) const CHI2_P_MIN: f64 = 1e-12;

/// Pre-registered z-score bound: fail when `|estimate - exact| > CI_Z * se`.
pub(crate) const CI_Z: f64 = 7.0;

/// Minimum expected count per chi-square cell; sparser cells are pooled into
/// their neighbour so the asymptotic chi-square distribution applies.
pub(crate) const MIN_EXPECTED: f64 = 5.0;

/// Natural log of the gamma function (Lanczos approximation, g = 7, n = 9).
///
/// Accurate to ~1e-13 relative for `x > 0`.
pub(crate) fn ln_gamma(x: f64) -> f64 {
    // The published Lanczos coefficients, kept digit-for-digit even where
    // they exceed f64 precision so they can be diffed against the source.
    #[allow(clippy::excessive_precision)]
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps the small-argument range accurate.
        let pi = std::f64::consts::PI;
        return pi.ln() - (pi * x).sin().ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized upper incomplete gamma function `Q(s, x)`, computed on the
/// side of the `x = s + 1` split that keeps the *tail* accurate — deep
/// tails stay positive instead of rounding through `1 - P` to zero.
pub(crate) fn gamma_q(s: f64, x: f64) -> f64 {
    assert!(s > 0.0 && x >= 0.0, "gamma_q needs s > 0, x >= 0");
    if x == 0.0 {
        return 1.0;
    }
    if x < s + 1.0 {
        1.0 - gamma_p_series(s, x)
    } else {
        gamma_q_cf(s, x)
    }
}

/// Series expansion of `P(s, x)`; converges fastest for `x < s + 1`.
/// `P(s,x) = x^s e^-x / Γ(s) · Σ_{n≥0} x^n / (s(s+1)...(s+n))`
fn gamma_p_series(s: f64, x: f64) -> f64 {
    let mut term = 1.0 / s;
    let mut sum = term;
    let mut n = 1.0;
    while term.abs() > sum.abs() * 1e-16 && n < 1e4 {
        term *= x / (s + n);
        sum += term;
        n += 1.0;
    }
    (s * x.ln() - x - ln_gamma(s)).exp() * sum
}

/// Regularized upper incomplete gamma `Q(s, x)` by modified Lentz continued
/// fraction; only valid (and only called) for `x >= s + 1`.
fn gamma_q_cf(s: f64, x: f64) -> f64 {
    let tiny = 1e-300;
    let mut b = x + 1.0 - s;
    let mut c = 1.0 / tiny;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..10_000 {
        let an = -(i as f64) * (i as f64 - s);
        b += 2.0;
        d = an * d + b;
        if d.abs() < tiny {
            d = tiny;
        }
        c = b + an / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (s * x.ln() - x - ln_gamma(s)).exp() * h
}

/// Chi-square survival function: `P(X >= x)` for `k` degrees of freedom.
pub(crate) fn chi2_sf(x: f64, k: usize) -> f64 {
    assert!(k > 0, "chi-square needs at least one degree of freedom");
    if x <= 0.0 {
        return 1.0;
    }
    gamma_q(k as f64 / 2.0, x / 2.0).clamp(0.0, 1.0)
}

/// Outcome of a chi-square goodness-of-fit test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GofResult {
    /// The chi-square statistic over the pooled cells.
    pub statistic: f64,
    /// Degrees of freedom (pooled cells − 1).
    pub dof: usize,
    /// Survival-function p-value.
    pub p_value: f64,
}

/// Chi-square goodness-of-fit of observed counts against expected
/// probabilities.
///
/// Cells whose expected count falls below `MIN_EXPECTED` are pooled (in
/// index order) so the asymptotic distribution applies; `observed` and
/// `expected_probs` must have equal lengths and `expected_probs` must sum
/// to ~1.
///
/// # Errors
///
/// Returns a description of the failure when the inputs are malformed
/// (length mismatch, non-normalised probabilities, fewer than two pooled
/// cells) or when the p-value falls below `CHI2_P_MIN` — the
/// pre-registered "this sampler is biased" verdict.
pub fn check_goodness_of_fit(
    observed: &[u64],
    expected_probs: &[f64],
) -> Result<GofResult, String> {
    if observed.len() != expected_probs.len() {
        return Err(format!(
            "{} observed cells vs {} expected cells",
            observed.len(),
            expected_probs.len()
        ));
    }
    let total_p: f64 = expected_probs.iter().sum();
    if (total_p - 1.0).abs() > 1e-6 {
        return Err(format!("expected probabilities sum to {total_p}, not 1"));
    }
    let n: u64 = observed.iter().sum();
    if n == 0 {
        return Err("no observations".to_string());
    }
    // Pool sparse cells left to right; a trailing sparse pool merges into
    // the last kept cell.
    let mut cells: Vec<(f64, f64)> = Vec::new(); // (observed, expected)
    let mut pool_o = 0.0;
    let mut pool_e = 0.0;
    for (&o, &p) in observed.iter().zip(expected_probs) {
        pool_o += o as f64;
        pool_e += p * n as f64;
        if pool_e >= MIN_EXPECTED {
            cells.push((pool_o, pool_e));
            pool_o = 0.0;
            pool_e = 0.0;
        }
    }
    if pool_e > 0.0 || pool_o > 0.0 {
        if let Some(last) = cells.last_mut() {
            last.0 += pool_o;
            last.1 += pool_e;
        }
    }
    if cells.len() < 2 {
        return Err(format!(
            "only {} cell(s) after pooling at {n} draws — draw more samples",
            cells.len()
        ));
    }
    let statistic: f64 = cells.iter().map(|&(o, e)| (o - e) * (o - e) / e).sum();
    let dof = cells.len() - 1;
    let p_value = chi2_sf(statistic, dof);
    if p_value < CHI2_P_MIN {
        return Err(format!(
            "chi-square GOF rejected: statistic {statistic:.3} at {dof} dof, \
             p = {p_value:.3e} < {CHI2_P_MIN:.0e}"
        ));
    }
    Ok(GofResult {
        statistic,
        dof,
        p_value,
    })
}

/// Checks that an estimate sits within `CI_Z` standard errors of the
/// exact answer.
///
/// A zero reported standard error asserts the estimator is exact, so the
/// estimate must then match to f64 round-off.
///
/// # Errors
///
/// Returns a description when the estimate falls outside the pre-registered
/// band — either the sampler is biased or its variance is under-reported.
pub fn check_within_ci(estimate: f64, exact: f64, std_err: f64) -> Result<(), String> {
    if !(estimate.is_finite() && exact.is_finite() && std_err.is_finite() && std_err >= 0.0) {
        return Err(format!(
            "non-finite check: estimate {estimate}, exact {exact}, se {std_err}"
        ));
    }
    let slack = CI_Z * std_err + 1e-12 * exact.abs().max(1e-300);
    if (estimate - exact).abs() > slack {
        return Err(format!(
            "estimate {estimate} is {:.2} standard errors from exact {exact} \
             (se {std_err:.3e}, bound {CI_Z})",
            (estimate - exact).abs() / std_err.max(1e-300)
        ));
    }
    Ok(())
}

/// Checks that an empirical CI hit count is consistent with its nominal
/// coverage: over `trials` independent intervals at `nominal` coverage,
/// `hits` must lie within `CI_Z` binomial standard deviations of
/// `nominal * trials`.
///
/// # Errors
///
/// Returns a description when the hit count falls outside the band — the
/// reported standard errors systematically mis-state the estimator spread.
pub fn check_ci_coverage(hits: u64, trials: u64, nominal: f64) -> Result<(), String> {
    if trials == 0 || !(0.0..=1.0).contains(&nominal) {
        return Err(format!("bad coverage check: {trials} trials at {nominal}"));
    }
    let n = trials as f64;
    let mean = nominal * n;
    let sd = (n * nominal * (1.0 - nominal)).sqrt();
    let lo = mean - CI_Z * sd;
    let hi = (mean + CI_Z * sd).min(n);
    let h = hits as f64;
    if h < lo || h > hi {
        return Err(format!(
            "{hits}/{trials} intervals covered the truth; expected \
             [{lo:.1}, {hi:.1}] at nominal {nominal}"
        ));
    }
    Ok(())
}

/// Checks two runs that claim to be the same seeded computation for
/// bit-for-bit equality.
///
/// # Errors
///
/// Returns the first diverging index and both values — a determinism bug,
/// never a statistical fluctuation.
pub fn check_deterministic(label: &str, a: &[f64], b: &[f64]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{label}: {} values vs {}", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.to_bits() != y.to_bits() {
            return Err(format!("{label}: index {i} diverged: {x} vs {y}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(n) = (n-1)! and Γ(1/2) = √π.
        let mut factorial = 1.0f64;
        for n in 1..12 {
            assert!(
                (ln_gamma(n as f64) - factorial.ln()).abs() < 1e-10,
                "ln Γ({n})"
            );
            factorial *= n as f64;
        }
        let half = ln_gamma(0.5);
        assert!((half - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn chi2_sf_matches_closed_forms() {
        // k = 2: survival is exactly exp(-x/2).
        for x in [0.1f64, 1.0, 3.0, 10.0, 40.0] {
            assert!(
                (chi2_sf(x, 2) - (-x / 2.0).exp()).abs() < 1e-10,
                "sf({x}, 2)"
            );
        }
        assert_eq!(chi2_sf(0.0, 5), 1.0);
        // Monotone decreasing in x, increasing in k.
        assert!(chi2_sf(5.0, 3) < chi2_sf(2.0, 3));
        assert!(chi2_sf(5.0, 8) > chi2_sf(5.0, 3));
        // Deep tail stays positive and tiny.
        let tail = chi2_sf(100.0, 4);
        assert!(tail > 0.0 && tail < 1e-18, "{tail}");
    }

    #[test]
    fn goodness_of_fit_accepts_fair_and_rejects_biased_counts() {
        // Counts drawn near expectation pass comfortably.
        let expected = [0.5, 0.25, 0.125, 0.125];
        let fair = [4_990u64, 2_530, 1_260, 1_220];
        let result = check_goodness_of_fit(&fair, &expected).expect("fair counts pass");
        assert!(result.p_value > 1e-6, "{result:?}");
        assert_eq!(result.dof, 3);

        // A grossly biased sampler is rejected.
        let biased = [7_000u64, 1_000, 1_000, 1_000];
        assert!(check_goodness_of_fit(&biased, &expected).is_err());

        // Malformed inputs are rejected as such.
        assert!(check_goodness_of_fit(&fair[..3], &expected).is_err());
        assert!(check_goodness_of_fit(&fair, &[0.7, 0.1, 0.1, 0.2]).is_err());
        assert!(check_goodness_of_fit(&[0, 0, 0, 0], &expected).is_err());
    }

    #[test]
    fn sparse_cells_are_pooled() {
        // 100 draws against a distribution whose tail cells expect < 5
        // counts each: the tail pools and the test still runs.
        let expected = [0.90, 0.04, 0.03, 0.03];
        let observed = [91u64, 4, 3, 2];
        let result = check_goodness_of_fit(&observed, &expected).expect("pooled tail passes");
        assert_eq!(result.dof, 1, "{result:?}");
    }

    #[test]
    fn ci_checks_accept_within_band_and_reject_outside() {
        assert!(check_within_ci(0.52, 0.50, 0.01).is_ok());
        assert!(check_within_ci(0.50, 0.50, 0.0).is_ok());
        assert!(check_within_ci(0.60, 0.50, 0.01).is_err());
        assert!(check_within_ci(0.51, 0.50, 0.0).is_err());
        assert!(check_within_ci(f64::NAN, 0.5, 0.01).is_err());

        assert!(check_ci_coverage(950, 1_000, 0.95).is_ok());
        assert!(check_ci_coverage(930, 1_000, 0.95).is_ok());
        // Perfect coverage is as inconsistent with nominal 0.95 as gross
        // under-coverage: both mean the reported spread is mis-stated.
        assert!(check_ci_coverage(1_000, 1_000, 0.95).is_err());
        assert!(check_ci_coverage(500, 1_000, 0.95).is_err());
        assert!(check_ci_coverage(0, 0, 0.95).is_err());
    }

    #[test]
    fn determinism_check_is_bitwise() {
        let a = [0.1, 0.2, -0.0];
        let b = [0.1, 0.2, 0.0];
        assert!(check_deterministic("same", &a, &a).is_ok());
        assert!(check_deterministic("signed zero", &a, &b).is_err());
        assert!(check_deterministic("length", &a, &a[..2]).is_err());
    }
}
