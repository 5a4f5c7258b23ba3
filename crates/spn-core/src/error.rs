use std::fmt;

/// Errors produced while building, validating, evaluating or parsing SPNs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpnError {
    /// A node referenced a child id that does not exist (yet).
    UnknownNode {
        /// The offending node id.
        id: u32,
    },
    /// A variable index was outside the declared variable count.
    UnknownVariable {
        /// The offending variable index.
        var: u32,
        /// Number of variables declared for the SPN.
        num_vars: usize,
    },
    /// A sum or product node was created without children.
    EmptyNode,
    /// A sum node's child and weight vectors disagree in length.
    WeightMismatch {
        /// Number of children.
        children: usize,
        /// Number of weights.
        weights: usize,
    },
    /// A sum weight was negative, NaN or infinite.
    InvalidWeight {
        /// The offending weight value.
        weight: f64,
    },
    /// Evidence was supplied for a different number of variables than the SPN has.
    EvidenceMismatch {
        /// Variables covered by the evidence.
        evidence_vars: usize,
        /// Variables declared by the SPN.
        spn_vars: usize,
    },
    /// A conditional query's conditioning evidence evaluated to probability
    /// zero, so the ratio `P(target, given) / P(given)` is undefined.
    ///
    /// Carries the raw numerator/denominator values so callers (e.g. a
    /// serving front-end) can distinguish a *structural* zero (the evidence
    /// truly has probability zero — in the log domain the denominator is
    /// exactly `-inf`) from a linear-domain *underflow* (a deep circuit's
    /// positive probability flushed to `0.0`; re-running in
    /// [`crate::NumericMode::Log`] resolves those).
    UndefinedConditional {
        /// Index of the offending query within its batch.
        query: usize,
        /// The `P(target, given)` pass's value (linear or log domain,
        /// matching the executing program's numeric mode).
        numerator: f64,
        /// The `P(given)` pass's value (`0.0` linear / `-inf` log).
        denominator: f64,
        /// The numeric domain the values were computed in.
        mode: crate::NumericMode,
    },
    /// A parse error in the text format.
    Parse {
        /// 1-based line number of the error.
        line: usize,
        /// Human readable description.
        message: String,
    },
    /// A generic invariant violation with a description.
    Invalid {
        /// Human readable description.
        message: String,
    },
}

impl fmt::Display for SpnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpnError::UnknownNode { id } => write!(f, "unknown node id {id}"),
            SpnError::UnknownVariable { var, num_vars } => {
                write!(f, "variable {var} out of range for {num_vars} variables")
            }
            SpnError::EmptyNode => write!(f, "sum or product node has no children"),
            SpnError::WeightMismatch { children, weights } => {
                write!(f, "sum node has {children} children but {weights} weights")
            }
            SpnError::InvalidWeight { weight } => {
                write!(f, "sum weight {weight} is not a finite non-negative number")
            }
            SpnError::EvidenceMismatch {
                evidence_vars,
                spn_vars,
            } => write!(
                f,
                "evidence covers {evidence_vars} variables but the SPN has {spn_vars}"
            ),
            SpnError::UndefinedConditional {
                query,
                numerator,
                denominator,
                mode,
            } => write!(
                f,
                "conditional query {query} undefined: conditioning evidence has probability zero \
                 ({mode} domain, numerator {numerator}, denominator {denominator})"
            ),
            SpnError::Parse { line, message } => write!(f, "parse error on line {line}: {message}"),
            SpnError::Invalid { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for SpnError {}

impl SpnError {
    /// Builds a generic invariant-violation error from a message.
    pub fn invalid(message: impl Into<String>) -> Self {
        SpnError::Invalid {
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let errors = [
            SpnError::UnknownNode { id: 3 },
            SpnError::UnknownVariable {
                var: 9,
                num_vars: 2,
            },
            SpnError::EmptyNode,
            SpnError::WeightMismatch {
                children: 2,
                weights: 3,
            },
            SpnError::InvalidWeight { weight: -1.0 },
            SpnError::EvidenceMismatch {
                evidence_vars: 1,
                spn_vars: 2,
            },
            SpnError::UndefinedConditional {
                query: 2,
                numerator: 0.0,
                denominator: 0.0,
                mode: crate::NumericMode::Linear,
            },
            SpnError::Parse {
                line: 4,
                message: "bad token".into(),
            },
            SpnError::invalid("custom"),
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SpnError>();
    }
}
