//! Sum-product network (SPN) core library.
//!
//! An SPN — also called an arithmetic circuit — is a rooted directed acyclic
//! graph whose internal nodes are sums or products and whose leaves are
//! indicator variables or numeric parameters.  SPNs allow exact probabilistic
//! inference in time linear in the circuit size, which is why hybrid
//! neuro-symbolic systems lower their probabilistic models to SPNs before
//! deployment.
//!
//! This crate provides:
//!
//! * [`Spn`] — an arena-based DAG representation with a safe [`SpnBuilder`],
//! * exact inference in the linear and log domains ([`Spn::evaluate`],
//!   [`Spn::evaluate_log`]), evidence handling and MPE queries,
//! * the compile-once / execute-many primitives shared by every execution
//!   backend: the reusable [`eval::Evaluator`] (preallocated buffers, zero
//!   allocation per query), the dense [`EvidenceBatch`] (struct-of-arrays
//!   over queries) and the [`batch::InputRecipe`] that materialises program
//!   input vectors from batches without per-query matching,
//! * flattening to the paper's scalar program form, [`flatten::OpList`]
//!   (Algorithm 1, a list of binary operations), and the executors that
//!   run it `L` queries per pass ([`vectorized`]; `L = 1` is the scalar
//!   pass): the register-allocated [`vectorized::LaneProgram`] batches run
//!   on, and the full-tile walker for passes that read every op's value,
//! * incremental re-evaluation for session workloads ([`incremental`]):
//!   per-variable reachability cones computed once per program and a
//!   retained-state delta path that re-executes only the flipped evidence
//!   variables' cones, bit-for-bit with a full pass,
//! * the emulated PE-precision layer ([`precision`]): a [`Precision`] names
//!   a (possibly custom reduced-precision) floating-point format and every
//!   execution backend quantizes each intermediate through its
//!   `precision::Quantizer`, reproducing the paper's accuracy-vs-bit-width
//!   trade-off in software,
//! * static analysis ([`analysis`]), the one model checker: structural
//!   lints (completeness, decomposability, normalization, dead nodes) and
//!   interval-propagation numeric range analysis per
//!   `(NumericMode, Precision)`, both reporting stable-coded
//!   [`Diagnostic`]s shared by the compiler's schedule verifier, the
//!   serving registry's load path and the `spn_lint` CI binary,
//! * the query-mode layer ([`query`]): joint, marginal, MAP and conditional
//!   queries ([`QueryBatch`]) lowered onto the same batched execution
//!   primitive, including the max-product program rewrite with argmax
//!   traceback ([`query::MaxProductProgram`]),
//! * approximate inference by sampling ([`sample`]): alias-table ancestral
//!   sampling, exact conditional draws, likelihood weighting and Gibbs
//!   resampling behind the `sample` / `expectation` query modes, every
//!   estimate paired with its standard error and every draw tied to a
//!   per-row PRNG stream for bit-for-bit reproducibility,
//! * the serving wire contract ([`wire`]): compact evidence rows and the
//!   framing-agnostic [`QueryRequest`] / [`QueryResponse`] pair used by the
//!   `spn-serve` front-ends,
//! * dependency-group decomposition ([`levelize`]) used by the GPU execution
//!   model,
//! * random SPN generators for tests and benchmarks ([`random`]),
//! * a plain-text serialisation format and serde support ([`io`]),
//! * graph statistics ([`stats`]).
//!
//! # Quick example
//!
//! ```
//! use spn_core::{SpnBuilder, VarId, Evidence};
//!
//! # fn main() -> Result<(), spn_core::SpnError> {
//! let mut b = SpnBuilder::new(2);
//! let x0 = b.indicator(VarId(0), true);
//! let nx0 = b.indicator(VarId(0), false);
//! let x1 = b.indicator(VarId(1), true);
//! let nx1 = b.indicator(VarId(1), false);
//! let p0 = b.product(vec![x0, x1])?;
//! let p1 = b.product(vec![nx0, nx1])?;
//! let root = b.sum(vec![(p0, 0.3), (p1, 0.7)])?;
//! let spn = b.finish(root)?;
//!
//! // Joint probability of (X0 = true, X1 = true).
//! let p = spn.evaluate(&Evidence::from_assignment(&[true, true]))?;
//! assert!((p - 0.3).abs() < 1e-12);
//! // Fully marginalised query sums to one for a normalised SPN.
//! let z = spn.evaluate(&Evidence::marginal(2))?;
//! assert!((z - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod error;
mod evidence;
mod graph;
mod value;

pub mod analysis;
pub mod batch;
pub mod eval;
pub mod flatten;
pub mod incremental;
pub mod io;
pub mod levelize;
pub mod numeric;
pub mod precision;
pub mod query;
pub mod random;
pub mod sample;
pub mod stats;
pub mod vectorized;
pub mod wire;

pub use analysis::{Diagnostic, Location, Severity};
pub use batch::{EvidenceBatch, InputRecipe};
pub use error::SpnError;
pub use eval::Evaluator;
pub use evidence::Evidence;
pub use graph::{Node, NodeId, Spn, SpnBuilder, VarId};
pub use incremental::{ConeAnalysis, DeltaOutcome, IncrementalState};
pub use numeric::NumericMode;
pub use precision::Precision;
pub use query::{reference_query, reference_query_with, ConditionalBatch, QueryBatch, QueryMode};
pub use sample::{SampleBatch, SampleMethod, SampleRun, SampleSpec, SamplerProgram};
pub use value::LogProb;
pub use wire::{QueryRequest, QueryResponse};

/// Convenience alias for results returned by this crate.
pub type Result<T, E = SpnError> = std::result::Result<T, E>;
