//! Static analysis of SPN structure and numeric behaviour.
//!
//! The paper's correctness story rests on properties this module checks
//! *before a single query runs*: structural validity (completeness,
//! decomposability, normalization — the preconditions of marginal and MAP
//! semantics) and numeric well-behavedness at the stamped reduced precision
//! (guaranteed underflow or saturation of the per-application datapath).
//! Every check reports through one [`Diagnostic`] type with a stable code,
//! so the two places a model enters from outside — the serving registry at
//! model load/hot-swap and the `spn_lint` CI binary — gate on severity
//! uniformly.  This is the only model checker: a model's validity is fixed
//! by the model alone, so nothing re-checks it per engine or per query.
//!
//! Two analyses live here:
//!
//! * [`lint_spn`] — structural lints over the node graph (`SPN0xx` codes),
//! * [`lint_ranges`] — interval propagation over a flattened
//!   [`OpList`] per `(NumericMode, Precision)`,
//!   statically bounding every op's magnitude through the same quantizer
//!   the backends execute (`SPN1xx` codes).
//!
//! The third analysis of the subsystem — the VLIW schedule verifier
//! (`SPN2xx`/`SPN3xx`) — lives in `spn_compiler::verify` because it needs
//! the processor ISA; it reports through the same [`Diagnostic`] type.
//!
//! The full diagnostic-code table is documented in `docs/ARCHITECTURE.md`.

use std::collections::BTreeSet;
use std::fmt;

use crate::flatten::{LeafSource, OpKind, OpList, OperandRef};
use crate::graph::{Node, VarId};
use crate::numeric::NumericMode;
use crate::Spn;

/// Tolerance used when checking that sum weights add up to one.
const NORMALIZATION_TOLERANCE: f64 = 1e-6;

/// SPN006 fires when one sum edge holds more than this share of the weight
/// mass: the remaining branches are sampled with probability below `2^-40`,
/// less than once in a trillion draws.
const SKEW_THRESHOLD: f64 = 1.0 - SKEW_TAIL;

/// The tail mass (`2^-40`) below which sampling a sum's minor branches is
/// considered degenerate.
const SKEW_TAIL: f64 = 1.0 / (1u64 << 40) as f64;

/// How bad a [`Diagnostic`] is.
///
/// `Error` means the artifact is wrong (invalid structure, miscompiled
/// schedule) and must not be served; `Warn` means it will misbehave
/// numerically (guaranteed underflow at the stamped precision) or carries
/// dead weight; `Info` is advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only.
    Info,
    /// Suspicious or numerically doomed, but executable.
    Warn,
    /// The artifact violates a correctness invariant.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warn => write!(f, "warn"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Where in an artifact a [`Diagnostic`] points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// A node of the SPN graph (dense arena id).
    Node(u32),
    /// An operation of a flattened [`OpList`].
    Op(u32),
    /// An input slot of a flattened program.
    Input(u32),
    /// An instruction cycle of a compiled VLIW program.
    Cycle(u64),
    /// The artifact as a whole.
    Artifact,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Node(id) => write!(f, "node {id}"),
            Location::Op(i) => write!(f, "op {i}"),
            Location::Input(i) => write!(f, "input {i}"),
            Location::Cycle(c) => write!(f, "cycle {c}"),
            Location::Artifact => write!(f, "artifact"),
        }
    }
}

/// One finding of a static analysis: a stable code, a severity, a location
/// within the analysed artifact and a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable machine-matchable code (`"SPN001"`, ...); the table lives in
    /// `docs/ARCHITECTURE.md`.
    pub code: &'static str,
    /// How bad the finding is.
    pub severity: Severity,
    /// Where the finding points.
    pub location: Location,
    /// Human-readable description (lowercase start, no trailing period).
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(
        code: &'static str,
        severity: Severity,
        location: Location,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            location,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [{}]: {}",
            self.severity, self.code, self.location, self.message
        )
    }
}

/// The highest severity present in `diagnostics`, if any.
pub fn max_severity(diagnostics: &[Diagnostic]) -> Option<Severity> {
    diagnostics.iter().map(|d| d.severity).max()
}

/// Whether `diagnostics` contains an [`Severity::Error`]-level finding.
pub fn has_errors(diagnostics: &[Diagnostic]) -> bool {
    max_severity(diagnostics) >= Some(Severity::Error)
}

/// What the three structural tests find at one node, given every node's
/// scope ([`Spn::scopes`]); [`lint_spn`] maps them to `SPN001`–`SPN003`.
#[derive(Debug, Default)]
struct NodeViolations {
    /// A sum whose children do not all have the same scope.
    incomplete: bool,
    /// A product whose children's scopes overlap.
    non_decomposable: bool,
    /// The weight total of a sum that is not within
    /// [`NORMALIZATION_TOLERANCE`] of one.
    unnormalized: Option<f64>,
}

/// Runs the three tests on `node`.
fn check_node(node: &Node, scopes: &[BTreeSet<VarId>]) -> NodeViolations {
    let mut found = NodeViolations::default();
    match node {
        Node::Sum { children, weights } => {
            let mut child_scopes = children.iter().map(|c| &scopes[c.index()]);
            if let Some(first) = child_scopes.next() {
                found.incomplete = child_scopes.any(|scope| scope != first);
            }
            let total: f64 = weights.iter().sum();
            if (total - 1.0).abs() > NORMALIZATION_TOLERANCE {
                found.unnormalized = Some(total);
            }
        }
        Node::Product { children } => {
            let mut seen: BTreeSet<VarId> = BTreeSet::new();
            for c in children {
                found.non_decomposable |= !scopes[c.index()].is_disjoint(&seen);
                seen.extend(&scopes[c.index()]);
            }
        }
        Node::Indicator { .. } | Node::Constant(_) => {}
    }
    found
}

/// Structural lints over the SPN graph (`SPN0xx`).
///
/// Checks, in node order:
///
/// * **SPN001** (error) — an incomplete sum: children with differing scopes
///   break marginal semantics,
/// * **SPN002** (error) — a non-decomposable product: children with
///   overlapping scopes break the product-of-independents factorisation,
/// * **SPN003** (warn) — sum weights not summing to one (within `1e-6`),
///   so the partition function is not 1,
/// * **SPN004** (warn) — a node unreachable from the root (dead weight that
///   backends never execute but serialisation and memory still pay for),
/// * **SPN005** (info) — a zero-weight sum edge (the child contributes
///   nothing; usually a learning artefact),
/// * **SPN006** (warn) — a degenerate sum for sampling: one edge holds more
///   than `1 - 2^-40` of the weight mass, so an ancestral sampler follows
///   the other branches with probability below `2^-40` — they are
///   effectively dead to any realistic number of draws, and estimates of
///   quantities that depend on them will look converged while being wrong.
pub fn lint_spn(spn: &Spn) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let scopes = spn.scopes();
    let order = spn.topological_order();
    let mut reachable = vec![false; spn.num_nodes()];
    for id in &order {
        reachable[id.index()] = true;
    }

    for (id, node) in spn.iter() {
        let idx = id.index();
        let found = check_node(node, &scopes);
        if found.incomplete {
            out.push(Diagnostic::new(
                "SPN001",
                Severity::Error,
                Location::Node(idx as u32),
                "incomplete sum: children have differing scopes",
            ));
        }
        if let Some(sum) = found.unnormalized {
            out.push(Diagnostic::new(
                "SPN003",
                Severity::Warn,
                Location::Node(idx as u32),
                format!("sum weights sum to {sum}, expected 1"),
            ));
        }
        if let Node::Sum { children, weights } = node {
            for (child, weight) in children.iter().zip(weights) {
                if *weight == 0.0 {
                    out.push(Diagnostic::new(
                        "SPN005",
                        Severity::Info,
                        Location::Node(idx as u32),
                        format!("zero-weight edge to node {}", child.index()),
                    ));
                }
            }
            let sum: f64 = weights.iter().sum();
            let max_weight = weights.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if children.len() >= 2 && sum > 0.0 && max_weight / sum > SKEW_THRESHOLD {
                out.push(Diagnostic::new(
                    "SPN006",
                    Severity::Warn,
                    Location::Node(idx as u32),
                    format!(
                        "sum is degenerate for sampling: one edge holds {} of the \
                         weight mass, the other branches are drawn with probability \
                         below 2^-40",
                        max_weight / sum
                    ),
                ));
            }
        }
        if found.non_decomposable {
            out.push(Diagnostic::new(
                "SPN002",
                Severity::Error,
                Location::Node(idx as u32),
                "non-decomposable product: children share scope variables",
            ));
        }
        if !reachable[idx] {
            out.push(Diagnostic::new(
                "SPN004",
                Severity::Warn,
                Location::Node(idx as u32),
                "node is unreachable from the root",
            ));
        }
    }
    out
}

/// A closed interval `[lo, hi]` of possible values, tracked through the
/// stamped quantizer.  `lo <= hi` always; both bounds may be infinite in
/// the log domain (`-inf` is the log of a structural zero).
#[derive(Debug, Clone, Copy, PartialEq)]
struct ValueRange {
    /// Smallest possible value of the op's result.
    lo: f64,
    /// Largest possible value of the op's result.
    hi: f64,
}

impl ValueRange {
    fn point(x: f64) -> ValueRange {
        ValueRange { lo: x, hi: x }
    }
}

/// Numeric range analysis over a flattened program (`SPN1xx`).
///
/// Propagates a `[lo, hi]` interval for every op of `ops` under *any*
/// evidence (indicators range over `{0, 1}` linear, `{-inf, 0}` log;
/// parameters are the exact stamped constants), applying the stamped
/// [`Precision`](crate::Precision)'s quantizer abstractly at every step:
/// results are rounded
/// with an upward `1 + u` / downward `1 - u` relative slack, saturated to
/// `±max_value` and flushed to zero below `min_positive` — the same
/// semantics every backend executes through
/// [`precision::round_to`](crate::precision::round_to).
///
/// Findings:
///
/// * **SPN101** (warn) — an op whose result is *guaranteed* to flush to
///   zero at the stamped precision although its exact value can be
///   positive: the canonical silent linear-domain underflow on deep
///   circuits.  The message recommends log-domain execution or a wider
///   exponent,
/// * **SPN102** (warn) — an op whose result is guaranteed to saturate to
///   the format's `max_value`,
/// * **SPN103** (warn) — the program *output* is guaranteed zero under
///   every evidence while the circuit is not structurally zero (the
///   end-to-end consequence of SPN101 on the root).
///
/// Only guaranteed misbehaviour is reported — a bound that merely *allows*
/// underflow stays silent, so shallow models lint clean at every precision.
pub fn lint_ranges(ops: &OpList) -> Vec<Diagnostic> {
    range_bounds(ops).0
}

/// The analysis behind [`lint_ranges`]: its findings plus the static
/// `[lo, hi]` bound of every op's result at the stamped precision
/// (index-aligned with [`OpList::ops`]).
fn range_bounds(ops: &OpList) -> (Vec<Diagnostic>, Vec<ValueRange>) {
    let mode = ops.mode();
    let precision = ops.precision();
    let u = precision.unit_roundoff();
    let max = precision.max_value();
    let min_pos = precision.min_positive();
    let mut diagnostics = Vec::new();

    // Inputs: indicator leaves range over both observations; parameters are
    // exact (already quantized by `with_precision`).
    let inputs: Vec<ValueRange> = ops
        .inputs()
        .iter()
        .map(|leaf| match leaf {
            LeafSource::Indicator { .. } => match mode {
                NumericMode::Linear => ValueRange { lo: 0.0, hi: 1.0 },
                NumericMode::Log => ValueRange {
                    lo: f64::NEG_INFINITY,
                    hi: 0.0,
                },
            },
            LeafSource::Param(p) => ValueRange::point(*p),
        })
        .collect();

    // One abstract quantization step: relative slack, saturation, flush.
    let quantize = |range: ValueRange, idx: usize, diagnostics: &mut Vec<Diagnostic>| {
        let mut lo = range.lo;
        let mut hi = range.hi;
        if u > 0.0 {
            // Widen by one rounding step so the interval stays a sound
            // over-approximation of the rounded result.
            lo = if lo >= 0.0 {
                lo * (1.0 - u)
            } else {
                lo * (1.0 + u)
            };
            hi = if hi >= 0.0 {
                hi * (1.0 + u)
            } else {
                hi * (1.0 - u)
            };
        }
        // Saturation to ±max_value.
        if lo > max {
            diagnostics.push(Diagnostic::new(
                "SPN102",
                Severity::Warn,
                Location::Op(idx as u32),
                format!(
                    "result is guaranteed to saturate to {precision}'s maximum ({max:e}); \
                     bound [{:e}, {:e}]",
                    range.lo, range.hi
                ),
            ));
        }
        lo = lo.clamp(-max, max);
        hi = hi.clamp(-max, max);
        // Flush-to-zero below min_positive (F64/F32 keep native subnormals,
        // min_positive already reflects that).
        if min_pos > 0.0 && hi > 0.0 && hi < min_pos && lo >= 0.0 {
            diagnostics.push(Diagnostic::new(
                "SPN101",
                Severity::Warn,
                Location::Op(idx as u32),
                format!(
                    "result is guaranteed to flush to zero at {precision} \
                     (bound [{:e}, {:e}] below min positive {min_pos:e}); \
                     run in the log domain or widen the exponent",
                    range.lo, range.hi
                ),
            ));
            lo = 0.0;
            hi = 0.0;
        } else {
            if lo > 0.0 && lo < min_pos {
                lo = 0.0;
            }
            if hi < 0.0 && -hi < min_pos {
                hi = 0.0;
            }
        }
        ValueRange { lo, hi }
    };

    let operand = |r: OperandRef, results: &[ValueRange]| match r {
        OperandRef::Input(i) => inputs[i as usize],
        OperandRef::Op(i) => results[i as usize],
    };

    let mut results: Vec<ValueRange> = Vec::with_capacity(ops.num_ops());
    for (idx, op) in ops.ops().iter().enumerate() {
        let a = operand(op.lhs, &results);
        let b = operand(op.rhs, &results);
        let exact = match op.kind {
            OpKind::Add => ValueRange {
                lo: a.lo + b.lo,
                hi: a.hi + b.hi,
            },
            // Linear-domain products are non-negative (probabilities and
            // non-negative weights); the product-corner interval also covers
            // a negative parameter, and a corner that is `0 × ∞` widens the
            // bound to the whole line.
            OpKind::Mul => {
                let corners = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
                let lo = corners.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = corners.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                ValueRange {
                    lo: if lo.is_nan() { f64::NEG_INFINITY } else { lo },
                    hi: if hi.is_nan() { f64::INFINITY } else { hi },
                }
            }
            OpKind::Max => ValueRange {
                lo: a.lo.max(b.lo),
                hi: a.hi.max(b.hi),
            },
            // log(e^a + e^b) is bounded below by max(lo_a, lo_b) and above
            // by max(hi_a, hi_b) + ln 2.
            OpKind::LogAdd => ValueRange {
                lo: a.lo.max(b.lo),
                hi: {
                    let m = a.hi.max(b.hi);
                    if m.is_finite() {
                        m + std::f64::consts::LN_2
                    } else {
                        m
                    }
                },
            },
            // The sampler comparator is exactly 0/1; it collapses to a
            // point when the operand intervals are disjoint.
            OpKind::Sam => {
                if a.hi < b.lo {
                    ValueRange { lo: 1.0, hi: 1.0 }
                } else if a.lo >= b.hi {
                    ValueRange { lo: 0.0, hi: 0.0 }
                } else {
                    ValueRange { lo: 0.0, hi: 1.0 }
                }
            }
        };
        results.push(quantize(exact, idx, &mut diagnostics));
    }

    // Output-level verdict: guaranteed zero in the linear domain while the
    // circuit's exact value can be positive means every query silently
    // underflows.
    if mode == NumericMode::Linear {
        let out = operand(ops.output(), &results);
        if out.hi == 0.0 && out.lo >= 0.0 && ops.num_ops() > 0 {
            diagnostics.push(Diagnostic::new(
                "SPN103",
                Severity::Warn,
                Location::Artifact,
                format!(
                    "program output is guaranteed zero at {precision}: every query \
                     underflows; run in the log domain or widen the exponent"
                ),
            ));
        }
    }

    (diagnostics, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precision::Precision;
    use crate::random::{deep_chain_spn, random_spn, RandomSpnConfig};
    use crate::{SpnBuilder, VarId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn valid_spn_lints_clean() {
        let mut rng = StdRng::seed_from_u64(3);
        let spn = random_spn(&RandomSpnConfig::with_vars(8), &mut rng);
        let diags = lint_spn(&spn);
        assert!(
            !has_errors(&diags),
            "valid random SPN produced errors: {diags:?}"
        );
    }

    #[test]
    fn incomplete_sum_is_spn001() {
        let mut b = SpnBuilder::new(2);
        let x0 = b.indicator(VarId(0), true);
        let x1 = b.indicator(VarId(1), true);
        let root = b.sum(vec![(x0, 0.5), (x1, 0.5)]).unwrap();
        let spn = b.finish(root).unwrap();
        let diags = lint_spn(&spn);
        assert!(codes(&diags).contains(&"SPN001"), "{diags:?}");
        assert!(diags.iter().all(|d| d.location == Location::Node(root.0)));
        assert!(has_errors(&diags));
    }

    #[test]
    fn overlapping_product_is_spn002() {
        let mut b = SpnBuilder::new(1);
        let x = b.indicator(VarId(0), true);
        let nx = b.indicator(VarId(0), false);
        let root = b.product(vec![x, nx]).unwrap();
        let spn = b.finish(root).unwrap();
        let diags = lint_spn(&spn);
        assert!(codes(&diags).contains(&"SPN002"), "{diags:?}");
        assert!(diags.iter().all(|d| d.location == Location::Node(root.0)));

        // A product over disjoint scopes of complete, normalised sums is
        // clean.
        let mut b = SpnBuilder::new(2);
        let x0 = b.indicator(VarId(0), true);
        let nx0 = b.indicator(VarId(0), false);
        let x1 = b.indicator(VarId(1), true);
        let nx1 = b.indicator(VarId(1), false);
        let s0 = b.sum(vec![(x0, 0.2), (nx0, 0.8)]).unwrap();
        let s1 = b.sum(vec![(x1, 0.9), (nx1, 0.1)]).unwrap();
        let root = b.product(vec![s0, s1]).unwrap();
        let spn = b.finish(root).unwrap();
        let diags = lint_spn(&spn);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unnormalized_sum_is_spn003_and_zero_weight_is_spn005() {
        let mut b = SpnBuilder::new(1);
        let x = b.indicator(VarId(0), true);
        let nx = b.indicator(VarId(0), false);
        let root = b.sum(vec![(x, 0.4), (nx, 0.0)]).unwrap();
        let spn = b.finish(root).unwrap();
        let diags = lint_spn(&spn);
        assert!(codes(&diags).contains(&"SPN003"), "{diags:?}");
        assert!(codes(&diags).contains(&"SPN005"), "{diags:?}");
        assert!(diags.iter().all(|d| d.location == Location::Node(root.0)));
        assert_eq!(max_severity(&diags), Some(Severity::Warn));

        // The message carries the actual weight total.
        let mut b = SpnBuilder::new(1);
        let x = b.indicator(VarId(0), true);
        let nx = b.indicator(VarId(0), false);
        let root = b.sum(vec![(x, 2.0), (nx, 6.0)]).unwrap();
        let spn = b.finish(root).unwrap();
        let diags = lint_spn(&spn);
        assert_eq!(
            diags,
            [Diagnostic::new(
                "SPN003",
                Severity::Warn,
                Location::Node(root.0),
                "sum weights sum to 8, expected 1"
            )]
        );
    }

    #[test]
    fn sampling_degenerate_sum_is_spn006() {
        let mut b = SpnBuilder::new(1);
        let x = b.indicator(VarId(0), true);
        let nx = b.indicator(VarId(0), false);
        let tail = 2.0f64.powi(-41);
        let root = b.sum(vec![(x, 1.0 - tail), (nx, tail)]).unwrap();
        let spn = b.finish(root).unwrap();
        let diags = lint_spn(&spn);
        assert!(codes(&diags).contains(&"SPN006"), "{diags:?}");
        assert_eq!(max_severity(&diags), Some(Severity::Warn));

        // A merely unbalanced sum is fine...
        let mut b = SpnBuilder::new(1);
        let x = b.indicator(VarId(0), true);
        let nx = b.indicator(VarId(0), false);
        let root = b.sum(vec![(x, 0.999), (nx, 0.001)]).unwrap();
        let spn = b.finish(root).unwrap();
        assert!(!codes(&lint_spn(&spn)).contains(&"SPN006"));

        // ...and a single-child sum trivially holds all the mass without
        // being degenerate: there is no minor branch to starve.
        let mut b = SpnBuilder::new(1);
        let x = b.indicator(VarId(0), true);
        let root = b.sum(vec![(x, 1.0)]).unwrap();
        let spn = b.finish(root).unwrap();
        assert!(!codes(&lint_spn(&spn)).contains(&"SPN006"));
    }

    #[test]
    fn unreachable_node_is_spn004() {
        let mut b = SpnBuilder::new(1);
        let x = b.indicator(VarId(0), true);
        let nx = b.indicator(VarId(0), false);
        let _orphan = b.sum(vec![(x, 0.5), (nx, 0.5)]).unwrap();
        let root = b.sum(vec![(x, 0.3), (nx, 0.7)]).unwrap();
        let spn = b.finish(root).unwrap();
        let diags = lint_spn(&spn);
        assert!(codes(&diags).contains(&"SPN004"), "{diags:?}");
    }

    #[test]
    fn deep_chain_linear_is_flagged_but_log_is_clean() {
        let spn = deep_chain_spn(1200, 1e-3);
        let linear = OpList::from_spn(&spn).with_precision(Precision::F32);
        let diags = lint_ranges(&linear);
        assert!(
            codes(&diags).contains(&"SPN101"),
            "deep chain must be flagged for guaranteed flush-to-zero"
        );
        assert!(codes(&diags).contains(&"SPN103"));

        let log = OpList::from_spn(&spn)
            .to_log_domain()
            .with_precision(Precision::F32);
        let log_diags = lint_ranges(&log);
        assert!(
            log_diags.is_empty(),
            "log domain must lint clean: {log_diags:?}"
        );
    }

    #[test]
    fn shallow_models_lint_clean_at_every_precision_and_mode() {
        let mut rng = StdRng::seed_from_u64(9);
        let spn = random_spn(&RandomSpnConfig::with_vars(10), &mut rng);
        for &precision in &Precision::SWEEP {
            for log in [false, true] {
                let mut ops = OpList::from_spn(&spn);
                if log {
                    ops = ops.to_log_domain();
                }
                let ops = ops.with_precision(precision);
                let diags = lint_ranges(&ops);
                assert!(
                    diags.is_empty(),
                    "shallow model flagged at {precision} log={log}: {diags:?}"
                );
            }
        }
    }

    #[test]
    fn range_bounds_enclose_actual_evaluation() {
        let mut rng = StdRng::seed_from_u64(11);
        let spn = random_spn(&RandomSpnConfig::with_vars(6), &mut rng);
        let ops = OpList::from_spn(&spn);
        let (_, ranges) = range_bounds(&ops);
        // Evaluate under full marginals; every op result must fall inside
        // its static bound.
        let inputs = ops.input_values(&crate::Evidence::marginal(6)).unwrap();
        let mut results = vec![0.0; ops.num_ops()];
        for (i, op) in ops.ops().iter().enumerate() {
            let read = |r: OperandRef| match r {
                OperandRef::Input(k) => inputs[k as usize],
                OperandRef::Op(k) => results[k as usize],
            };
            let (a, b) = (read(op.lhs), read(op.rhs));
            results[i] = match op.kind {
                OpKind::Add => a + b,
                OpKind::Mul => a * b,
                OpKind::Max => a.max(b),
                OpKind::LogAdd => (a.exp() + b.exp()).ln(),
                OpKind::Sam => f64::from(u8::from(a < b)),
            };
            let bound = ranges[i];
            assert!(
                results[i] >= bound.lo - 1e-12 && results[i] <= bound.hi + 1e-12,
                "op {i} value {} outside bound [{}, {}]",
                results[i],
                bound.lo,
                bound.hi
            );
        }
    }

    #[test]
    fn diagnostics_render_with_code_and_location() {
        let d = Diagnostic::new("SPN001", Severity::Error, Location::Node(3), "broken");
        assert_eq!(d.to_string(), "error SPN001 [node 3]: broken");
    }
}
