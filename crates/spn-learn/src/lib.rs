//! Datasets, structure learning and the benchmark suite.
//!
//! The paper evaluates its processor on SPNs learned (with LearnPSDD) from a
//! suite of standard binary benchmarks (UCI datasets and the density
//! estimation benchmarks of Lowd & Davis).  The original datasets and the
//! LearnPSDD toolchain are not redistributable here, so this crate rebuilds
//! the pipeline from scratch:
//!
//! * [`dataset`] — binary datasets, with the bit-column store every count
//!   the learners take comes from, and synthetic generators whose dimensions
//!   match the published benchmarks,
//! * [`chow_liu`] — Chow-Liu tree learning and its compilation to an SPN,
//! * [`learnspn`] — a LearnSPN-style recursive structure learner (instance
//!   clustering for sums, variable-independence partitioning for products),
//! * `benchmarks` — named configurations for the nine workloads of Fig. 4,
//!   producing circuits of the same variable counts and comparable sizes.
//!
//! The throughput experiments only depend on the circuit's size and topology
//! statistics, which this pipeline reproduces; the learned parameters are of
//! course not identical to the paper's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod benchmarks;
pub mod chow_liu;
pub mod dataset;
pub mod learnspn;

pub use benchmarks::{Benchmark, BenchmarkSpec, Generator};
pub use dataset::Dataset;
