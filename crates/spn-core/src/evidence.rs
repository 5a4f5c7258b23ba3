use serde::{Deserialize, Serialize};

/// An observation over the binary variables of an SPN.
///
/// Each variable is either observed to a boolean value or left unobserved
/// (marginalised).  Evaluating an SPN under an [`Evidence`] yields the
/// probability (or unnormalised weight) of the observed values with all
/// unobserved variables summed out.
///
/// ```
/// use spn_core::Evidence;
///
/// let mut e = Evidence::marginal(3);
/// e.observe(1, false);
/// assert_eq!(e.value(1), Some(false));
/// assert_eq!(e.value(0), None);
/// assert_eq!(e.num_vars(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Evidence {
    values: Vec<Option<bool>>,
}

impl Evidence {
    /// Creates evidence with all `num_vars` variables unobserved.
    pub fn marginal(num_vars: usize) -> Self {
        Evidence {
            values: vec![None; num_vars],
        }
    }

    /// Creates evidence observing every variable to the given assignment.
    pub fn from_assignment(assignment: &[bool]) -> Self {
        Evidence {
            values: assignment.iter().map(|&b| Some(b)).collect(),
        }
    }

    /// Creates evidence from explicit per-variable observations.
    pub fn from_options(values: Vec<Option<bool>>) -> Self {
        Evidence { values }
    }

    /// Number of variables this evidence covers.
    pub fn num_vars(&self) -> usize {
        self.values.len()
    }

    /// Observes variable `var` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn observe(&mut self, var: usize, value: bool) {
        self.values[var] = Some(value);
    }

    /// Removes any observation of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn forget(&mut self, var: usize) {
        self.values[var] = None;
    }

    /// Returns the observation of variable `var`, or `None` when marginalised
    /// or out of range.
    pub fn value(&self, var: usize) -> Option<bool> {
        self.values.get(var).copied().flatten()
    }

    /// Returns the value an indicator leaf `[var = value]` takes under this
    /// evidence: `1.0` when compatible or marginalised, `0.0` otherwise.
    pub(crate) fn indicator(&self, var: usize, value: bool) -> f64 {
        match self.value(var) {
            None => 1.0,
            Some(observed) if observed == value => 1.0,
            Some(_) => 0.0,
        }
    }

    /// Iterates over `(variable index, observed value)` pairs.
    pub fn iter_observed(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|b| (i, b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marginal_evidence_has_no_observations() {
        let e = Evidence::marginal(4);
        assert_eq!(e.iter_observed().count(), 0);
        assert_eq!(e.num_vars(), 4);
    }

    #[test]
    fn assignment_evidence_is_complete() {
        let e = Evidence::from_assignment(&[true, false, true]);
        assert_eq!(e.value(1), Some(false));
        assert_eq!(e.iter_observed().count(), 3);
    }

    #[test]
    fn observe_and_forget_round_trip() {
        let mut e = Evidence::marginal(2);
        e.observe(0, true);
        assert_eq!(e.value(0), Some(true));
        e.forget(0);
        assert_eq!(e.value(0), None);
    }

    #[test]
    fn indicator_semantics() {
        let mut e = Evidence::marginal(2);
        assert_eq!(e.indicator(0, true), 1.0);
        assert_eq!(e.indicator(0, false), 1.0);
        e.observe(0, true);
        assert_eq!(e.indicator(0, true), 1.0);
        assert_eq!(e.indicator(0, false), 0.0);
    }

    #[test]
    fn out_of_range_value_is_none() {
        let e = Evidence::marginal(1);
        assert_eq!(e.value(5), None);
    }
}
