//! Wire-level request/response types of the serving layer.
//!
//! A serving front-end needs a textual encoding of evidence and queries that
//! is cheap to parse on the hot path and independent of any serialisation
//! framework.  This module defines that contract:
//!
//! * **compact evidence rows** — one character per variable: `'1'` observed
//!   true, `'0'` observed false, `'?'` unobserved ([`parse_row`] /
//!   [`format_evidence`] / [`format_assignment`]),
//! * [`build_query_with_spec`] — assembles the rows of one request into the
//!   right [`QueryBatch`] for its [`QueryMode`] (conditional queries pair
//!   target rows with `given` rows),
//! * [`QueryRequest`] / [`QueryResponse`] — the framing-agnostic request and
//!   response of one inference call.  The TCP front-end in `spn-serve` maps
//!   these onto line-delimited JSON; in-process callers use them directly.

use crate::evidence::Evidence;
use crate::numeric::NumericMode;
use crate::precision::Precision;
use crate::query::{QueryBatch, QueryMode};
use crate::sample::{SampleBatch, SampleSpec};
use crate::{ConditionalBatch, EvidenceBatch, Result, SpnError};

/// Parses a compact evidence row (`'1'` true, `'0'` false, `'?'` marginal;
/// one character per variable).
///
/// ```
/// use spn_core::wire::parse_row;
///
/// let e = parse_row("1?0").unwrap();
/// assert_eq!(e.num_vars(), 3);
/// assert_eq!(e.value(0), Some(true));
/// assert_eq!(e.value(1), None);
/// assert_eq!(e.value(2), Some(false));
/// ```
///
/// # Errors
///
/// Returns [`SpnError::Invalid`] naming the first unexpected character.
pub fn parse_row(row: &str) -> Result<Evidence> {
    let mut values = Vec::with_capacity(row.len());
    for (i, c) in row.chars().enumerate() {
        values.push(match c {
            '0' => Some(false),
            '1' => Some(true),
            '?' => None,
            other => {
                return Err(SpnError::invalid(format!(
                    "evidence row {row:?}: unexpected character {other:?} at position {i} \
                     (expected '0', '1' or '?')"
                )))
            }
        });
    }
    Ok(Evidence::from_options(values))
}

/// Formats evidence as a compact row — the inverse of [`parse_row`].
pub fn format_evidence(evidence: &Evidence) -> String {
    (0..evidence.num_vars())
        .map(|var| match evidence.value(var) {
            Some(true) => '1',
            Some(false) => '0',
            None => '?',
        })
        .collect()
}

/// Formats a complete assignment (e.g. a MAP result) as a compact row.
pub fn format_assignment(assignment: &[bool]) -> String {
    assignment
        .iter()
        .map(|&b| if b { '1' } else { '0' })
        .collect()
}

/// Assembles parsed rows into the [`QueryBatch`] of one request.
///
/// For [`QueryMode::Conditional`], `rows` are the target observations and
/// `givens` (required, same length) the conditioning observations; for every
/// other mode `givens` must be absent.  `spec` drives the approximate modes
/// (`sample` / `expectation`) and is ignored for exact modes.
///
/// # Errors
///
/// Returns [`SpnError::Invalid`] when the batch is empty, when `givens` is
/// present/absent for the wrong mode or has mismatched length, and
/// [`SpnError::EvidenceMismatch`] when rows cover different variable counts.
pub fn build_query_with_spec(
    mode: QueryMode,
    rows: &[Evidence],
    givens: Option<&[Evidence]>,
    spec: SampleSpec,
) -> Result<QueryBatch> {
    let first = rows
        .first()
        .ok_or_else(|| SpnError::invalid("a query needs at least one evidence row"))?;
    let num_vars = first.num_vars();
    match mode {
        QueryMode::Conditional => {
            let givens = givens.ok_or_else(|| {
                SpnError::invalid("conditional queries need a `givens` row per target row")
            })?;
            if givens.len() != rows.len() {
                return Err(SpnError::invalid(format!(
                    "conditional query has {} target rows but {} given rows",
                    rows.len(),
                    givens.len()
                )));
            }
            let mut cond = ConditionalBatch::new(num_vars);
            for (target, given) in rows.iter().zip(givens) {
                cond.push(target, given)?;
            }
            Ok(QueryBatch::Conditional(cond))
        }
        _ => {
            if givens.is_some() {
                return Err(SpnError::invalid(format!(
                    "`givens` rows are only valid for conditional queries, not {mode}"
                )));
            }
            let batch = EvidenceBatch::from_evidences(num_vars, rows)?;
            let query = match mode {
                QueryMode::Joint => QueryBatch::Joint(batch),
                QueryMode::Marginal => QueryBatch::Marginal(batch),
                QueryMode::Map => QueryBatch::Map(batch),
                QueryMode::Sample => QueryBatch::Sample(SampleBatch::new(batch, spec)),
                QueryMode::Expectation => QueryBatch::Expectation(SampleBatch::new(batch, spec)),
                QueryMode::Conditional => unreachable!("handled above"),
            };
            query.validate()?;
            Ok(query)
        }
    }
}

/// One inference request: a same-mode batch of queries against a named model.
///
/// The framing (JSON lines over TCP, an in-process channel, ...) is the
/// front-end's concern; this struct is what reaches the micro-batcher.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Name of the registered model to query.
    pub model: String,
    /// The queries themselves (mode included).
    pub query: QueryBatch,
    /// The numeric domain to execute in.  [`NumericMode::Log`] answers with
    /// natural-log probabilities (finite where linear values underflow to
    /// zero); the serving layer holds one compiled artifact per
    /// `(model, numeric mode, precision)` and coalesces only same-domain
    /// requests.
    pub numeric: NumericMode,
    /// The emulated PE arithmetic format to execute in.  The default
    /// [`Precision::F64`] is the exact pre-existing path; reduced precisions
    /// trade accuracy for the modelled datapath width, and the serving layer
    /// caches and coalesces per `(model, numeric mode, precision)`.
    pub precision: Precision,
}

impl QueryRequest {
    /// Builds a linear-domain request from compact evidence rows (see
    /// [`build_query_with_spec`]); chain [`QueryRequest::with_numeric`] for
    /// log-domain execution.
    ///
    /// # Errors
    ///
    /// As for [`parse_row`] and [`build_query_with_spec`].
    pub fn from_rows(
        id: u64,
        model: impl Into<String>,
        mode: QueryMode,
        rows: &[&str],
        givens: Option<&[&str]>,
    ) -> Result<QueryRequest> {
        QueryRequest::from_rows_with_spec(id, model, mode, rows, givens, SampleSpec::default())
    }

    /// [`QueryRequest::from_rows`] with an explicit [`SampleSpec`] for the
    /// approximate modes (ignored for exact modes).
    ///
    /// # Errors
    ///
    /// As for [`QueryRequest::from_rows`].
    pub fn from_rows_with_spec(
        id: u64,
        model: impl Into<String>,
        mode: QueryMode,
        rows: &[&str],
        givens: Option<&[&str]>,
        spec: SampleSpec,
    ) -> Result<QueryRequest> {
        let rows: Vec<Evidence> = rows.iter().map(|r| parse_row(r)).collect::<Result<_>>()?;
        let givens: Option<Vec<Evidence>> = givens
            .map(|g| g.iter().map(|r| parse_row(r)).collect::<Result<_>>())
            .transpose()?;
        Ok(QueryRequest {
            id,
            model: model.into(),
            query: build_query_with_spec(mode, &rows, givens.as_deref(), spec)?,
            numeric: NumericMode::Linear,
            precision: Precision::F64,
        })
    }

    /// Sets the numeric execution domain (builder style).
    pub fn with_numeric(mut self, numeric: NumericMode) -> QueryRequest {
        self.numeric = numeric;
        self
    }

    /// Sets the emulated PE arithmetic format (builder style).
    pub fn with_precision(mut self, precision: Precision) -> QueryRequest {
        self.precision = precision;
        self
    }
}

/// The successful result of one [`QueryRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The request's correlation id.
    pub id: u64,
    /// The model that answered.
    pub model: String,
    /// The request's query mode.
    pub mode: QueryMode,
    /// The numeric domain the values were computed in.
    pub numeric: NumericMode,
    /// The emulated PE arithmetic format the values were computed in.
    pub precision: Precision,
    /// One value per query, in request order: a probability for joint /
    /// marginal / conditional queries, the max-product circuit value for MAP,
    /// the estimated `P(e)` for expectation queries, the per-sample weights
    /// (`n_samples` per query) for sample queries — or the natural logs of
    /// all of those under [`NumericMode::Log`].
    pub values: Vec<f64>,
    /// The maximising assignment per MAP query, or the drawn assignments
    /// (`n_samples` per query, row-major) for sample requests; `None` for
    /// every other mode.
    pub assignments: Option<Vec<Vec<bool>>>,
    /// Standard error per query for the approximate modes (always on the
    /// linear probability scale, even under [`NumericMode::Log`]); `None`
    /// for exact modes.
    pub std_err: Option<Vec<f64>>,
    /// Total samples drawn answering the request (zero for exact modes).
    pub samples: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_round_trip() {
        for row in ["", "1", "?", "10?1", "????"] {
            let evidence = parse_row(row).unwrap();
            assert_eq!(format_evidence(&evidence), row);
        }
        assert!(parse_row("1x0").is_err());
        assert_eq!(format_assignment(&[true, false, true]), "101");
    }

    #[test]
    fn build_query_modes() {
        let rows = [parse_row("1?").unwrap(), parse_row("?0").unwrap()];
        let marginal =
            build_query_with_spec(QueryMode::Marginal, &rows, None, SampleSpec::default()).unwrap();
        assert_eq!(marginal.mode(), QueryMode::Marginal);
        assert_eq!(marginal.len(), 2);

        // Joint rows must be complete.
        assert!(
            build_query_with_spec(QueryMode::Joint, &rows, None, SampleSpec::default()).is_err()
        );
        let complete = [parse_row("10").unwrap()];
        assert!(
            build_query_with_spec(QueryMode::Joint, &complete, None, SampleSpec::default()).is_ok()
        );

        // Conditionals need matching givens; other modes reject them.
        let givens = [parse_row("?1").unwrap(), parse_row("?1").unwrap()];
        let cond = build_query_with_spec(
            QueryMode::Conditional,
            &rows,
            Some(&givens),
            SampleSpec::default(),
        )
        .unwrap();
        assert_eq!(cond.mode(), QueryMode::Conditional);
        assert!(
            build_query_with_spec(QueryMode::Conditional, &rows, None, SampleSpec::default())
                .is_err()
        );
        assert!(build_query_with_spec(
            QueryMode::Conditional,
            &rows,
            Some(&givens[..1]),
            SampleSpec::default()
        )
        .is_err());
        assert!(build_query_with_spec(
            QueryMode::Marginal,
            &rows,
            Some(&givens),
            SampleSpec::default()
        )
        .is_err());
        assert!(
            build_query_with_spec(QueryMode::Marginal, &[], None, SampleSpec::default()).is_err()
        );
    }

    #[test]
    fn build_sample_queries() {
        let rows = [parse_row("1?").unwrap(), parse_row("?0").unwrap()];
        let spec = SampleSpec {
            seed: 42,
            n_samples: 16,
            method: crate::SampleMethod::LikelihoodWeighted,
        };
        let query = build_query_with_spec(QueryMode::Sample, &rows, None, spec).unwrap();
        assert_eq!(query.mode(), QueryMode::Sample);
        assert_eq!(query.len(), 2);
        match &query {
            QueryBatch::Sample(s) => {
                assert_eq!(s.spec(), spec);
                assert_eq!(s.streams(), &[0, 1]);
            }
            other => panic!("unexpected batch {other:?}"),
        }
        // The default spec rides along on the plain builder, and zero
        // samples are rejected at build time.
        let query =
            build_query_with_spec(QueryMode::Expectation, &rows, None, SampleSpec::default())
                .unwrap();
        assert_eq!(query.mode(), QueryMode::Expectation);
        let zero = SampleSpec {
            n_samples: 0,
            ..SampleSpec::default()
        };
        assert!(build_query_with_spec(QueryMode::Expectation, &rows, None, zero).is_err());
        assert!(build_query_with_spec(
            QueryMode::Sample,
            &rows,
            Some(&rows),
            SampleSpec::default()
        )
        .is_err());
    }

    #[test]
    fn request_from_rows() {
        let request =
            QueryRequest::from_rows(7, "weather", QueryMode::Map, &["?1?", "???"], None).unwrap();
        assert_eq!(request.id, 7);
        assert_eq!(request.model, "weather");
        assert_eq!(request.query.mode(), QueryMode::Map);
        assert_eq!(request.query.len(), 2);
        assert_eq!(request.numeric, NumericMode::Linear);
        assert_eq!(request.precision, Precision::F64);
        assert_eq!(
            request.clone().with_numeric(NumericMode::Log).numeric,
            NumericMode::Log
        );
        assert_eq!(
            request.with_precision(Precision::E8M10).precision,
            Precision::E8M10
        );
        assert!(QueryRequest::from_rows(0, "m", QueryMode::Map, &["?b?"], None).is_err());
    }

    #[test]
    fn mode_from_name_round_trips() {
        for mode in QueryMode::ALL {
            assert_eq!(QueryMode::from_name(mode.name()).unwrap(), mode);
        }
        assert!(QueryMode::from_name("mpe").is_err());
    }
}
