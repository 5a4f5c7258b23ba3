//! The benchmark suite of the paper's Fig. 4.
//!
//! The paper evaluates nine workloads: SPNs trained on standard binary
//! density-estimation benchmarks (Lowd & Davis 2010) and UCI datasets.  The
//! original data and the LearnPSDD tool are not available here, so each
//! benchmark is reproduced as a *named configuration*: a synthetic dataset
//! with the published variable count and a matching dependency structure,
//! run through one of our own learners.  The narrow benchmarks use the
//! LearnSPN-style learner, the wide ones (hundreds of variables) use Chow-Liu
//! tree learning compiled to a circuit, which keeps benchmark construction
//! tractable while still producing the large irregular circuits that make
//! those workloads interesting for the accelerator.
//!
//! What matters for the throughput experiments is the circuit's operation
//! count, depth and fanout distribution, not its exact parameters, so this
//! substitution preserves the experiments' shape (see DESIGN.md).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use spn_core::Spn;

use crate::chow_liu::ChowLiuTree;
use crate::dataset::{synthetic, Structure};
use crate::learnspn::{learn_spn, LearnSpnOptions};

/// The nine benchmarks of Fig. 4, in the paper's plotting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Benchmark {
    Netflix,
    Bbc,
    BioResponse,
    Audio,
    Cpu,
    Msnbc,
    EegEye,
    KddCup2k,
    Banknote,
}

impl Benchmark {
    /// All nine benchmarks in the paper's order.
    pub fn all() -> [Benchmark; 9] {
        [
            Benchmark::Netflix,
            Benchmark::Bbc,
            Benchmark::BioResponse,
            Benchmark::Audio,
            Benchmark::Cpu,
            Benchmark::Msnbc,
            Benchmark::EegEye,
            Benchmark::KddCup2k,
            Benchmark::Banknote,
        ]
    }

    /// The benchmark's display name as used in the paper's figure.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Netflix => "Netflix",
            Benchmark::Bbc => "BBC",
            Benchmark::BioResponse => "Bio response",
            Benchmark::Audio => "Audio",
            Benchmark::Cpu => "CPU",
            Benchmark::Msnbc => "MSNBC",
            Benchmark::EegEye => "EEG-eye",
            Benchmark::KddCup2k => "KDDCup2k",
            Benchmark::Banknote => "Banknote",
        }
    }

    /// The specification used to reproduce this benchmark.
    pub fn spec(self) -> BenchmarkSpec {
        // Variable counts follow the published datasets; generator choice
        // keeps circuit construction tractable while matching the size regime.
        match self {
            Benchmark::Netflix => BenchmarkSpec::new(
                self,
                100,
                1500,
                Generator::ChowLiu,
                Structure::Clustered { clusters: 8 },
            ),
            Benchmark::Bbc => BenchmarkSpec::new(
                self,
                1058,
                400,
                Generator::ChowLiu,
                Structure::Clustered { clusters: 12 },
            ),
            Benchmark::BioResponse => {
                BenchmarkSpec::new(self, 500, 400, Generator::ChowLiu, Structure::Chain)
            }
            Benchmark::Audio => {
                BenchmarkSpec::new(self, 100, 1500, Generator::ChowLiu, Structure::Chain)
            }
            Benchmark::Cpu => BenchmarkSpec::new(
                self,
                8,
                1000,
                Generator::LearnSpn,
                Structure::Clustered { clusters: 3 },
            ),
            Benchmark::Msnbc => BenchmarkSpec::new(
                self,
                17,
                1500,
                Generator::LearnSpn,
                Structure::Clustered { clusters: 5 },
            ),
            Benchmark::EegEye => {
                BenchmarkSpec::new(self, 14, 1500, Generator::LearnSpn, Structure::Chain)
            }
            Benchmark::KddCup2k => BenchmarkSpec::new(
                self,
                64,
                1200,
                Generator::LearnSpn,
                Structure::Clustered { clusters: 6 },
            ),
            Benchmark::Banknote => BenchmarkSpec::new(
                self,
                4,
                800,
                Generator::LearnSpn,
                Structure::Clustered { clusters: 2 },
            ),
        }
    }

    /// Generates the benchmark's SPN (deterministic for a given benchmark).
    pub fn spn(self) -> Spn {
        self.spec().build()
    }
}

/// Which of our pipelines produces the benchmark circuit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Generator {
    /// The recursive LearnSPN-style learner (small/medium variable counts).
    LearnSpn,
    /// Chow-Liu tree learning compiled to an SPN (medium variable counts).
    ChowLiu,
}

/// Everything needed to reproduce one benchmark circuit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkSpec {
    /// Which benchmark this spec describes.
    pub benchmark: Benchmark,
    /// Number of binary variables (matches the published dataset).
    pub num_vars: usize,
    /// Synthetic training rows the learner sees.
    pub num_rows: usize,
    /// Circuit construction pipeline.
    pub generator: Generator,
    /// Dependency structure of the synthetic data.
    #[serde(skip, default = "default_structure")]
    pub structure: Structure,
}

#[allow(dead_code)] // referenced by the serde attribute above when serde is real
fn default_structure() -> Structure {
    Structure::Independent
}

impl BenchmarkSpec {
    fn new(
        benchmark: Benchmark,
        num_vars: usize,
        num_rows: usize,
        generator: Generator,
        structure: Structure,
    ) -> Self {
        BenchmarkSpec {
            benchmark,
            num_vars,
            num_rows,
            generator,
            structure,
        }
    }

    /// Deterministic seed derived from the benchmark's position.
    fn seed(&self) -> u64 {
        0x5EED_0000 + self.benchmark as u64
    }

    /// Builds the benchmark circuit.
    pub(crate) fn build(&self) -> Spn {
        let mut rng = StdRng::seed_from_u64(self.seed());
        match self.generator {
            Generator::LearnSpn => {
                let data = synthetic(self.num_vars, self.num_rows, self.structure, &mut rng);
                learn_spn(
                    &data,
                    &LearnSpnOptions {
                        seed: self.seed(),
                        ..Default::default()
                    },
                )
            }
            Generator::ChowLiu => {
                let data = synthetic(self.num_vars, self.num_rows, self.structure, &mut rng);
                ChowLiuTree::learn(&data).to_spn()
            }
        }
    }
}

// `Structure` lives in `dataset`; it intentionally does not implement serde,
// so the spec skips it during (de)serialisation and restores the default.

#[cfg(test)]
mod tests {
    use super::*;
    use spn_core::analysis::{lint_spn, max_severity};
    use spn_core::stats::SpnStats;
    use spn_core::{Evidence, Severity};

    #[test]
    fn all_benchmarks_are_listed_in_paper_order() {
        let names: Vec<&str> = Benchmark::all().iter().map(|b| b.name()).collect();
        assert_eq!(names[0], "Netflix");
        assert_eq!(names.len(), 9);
        assert!(names.contains(&"KDDCup2k"));
    }

    #[test]
    fn specs_match_published_variable_counts() {
        assert_eq!(Benchmark::Netflix.spec().num_vars, 100);
        assert_eq!(Benchmark::Msnbc.spec().num_vars, 17);
        assert_eq!(Benchmark::Banknote.spec().num_vars, 4);
        assert_eq!(Benchmark::Bbc.spec().num_vars, 1058);
    }

    #[test]
    fn small_benchmarks_build_valid_circuits() {
        for b in [Benchmark::Banknote, Benchmark::Cpu, Benchmark::EegEye] {
            let spn = b.spn();
            let diags = lint_spn(&spn);
            assert!(
                max_severity(&diags) < Some(Severity::Warn),
                "{}: {diags:?}",
                b.name()
            );
            let z = spn.evaluate(&Evidence::marginal(spn.num_vars())).unwrap();
            assert!((z - 1.0).abs() < 1e-6, "{}: z = {z}", b.name());
            assert_eq!(spn.num_vars(), b.spec().num_vars);
        }
    }

    #[test]
    fn benchmark_generation_is_deterministic() {
        let a = Benchmark::Banknote.spn();
        let b = Benchmark::Banknote.spn();
        assert_eq!(a, b);
    }

    #[test]
    fn wide_benchmarks_are_substantially_larger_than_narrow_ones() {
        let wide = SpnStats::from_spn(&Benchmark::BioResponse.spn());
        let narrow = SpnStats::from_spn(&Benchmark::Banknote.spn());
        assert!(wide.num_ops > narrow.num_ops * 10);
    }
}
