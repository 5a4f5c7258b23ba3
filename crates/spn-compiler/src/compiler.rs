//! Public compiler driver.

use spn_core::batch::{EvidenceBatch, InputRecipe};
use spn_core::flatten::{OpList, OperandRef, PartInput};
use spn_core::{Evidence, Spn};
use spn_processor::config::ProcessorConfig;
use spn_processor::isa::Program;
use spn_processor::multicore::{CoreProgram, PartitionedProgram, TransferSource};
use spn_processor::{CheckedProgram, Processor};

use crate::report::CompileReport;
use crate::schedule::schedule;
use crate::tile::extract_tiles;
use crate::Result;

/// Options controlling the whole compilation pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompilerOptions {
    /// Maximum tile depth; `None` uses the full tree depth of the target.
    pub max_tile_depth: Option<usize>,
}

/// The cacheable result of compiling one SPN: the handle an execution engine
/// holds on to for the execute-many half of compile-once / execute-many.
///
/// Besides the executable program and the compile statistics, the artifact
/// carries the pre-resolved [`InputRecipe`], so materialising input vectors
/// for fresh evidence (single queries or whole [`EvidenceBatch`]es) costs a
/// template copy plus one store per indicator slot — no per-query matching
/// or allocation.  Beside it sits that recipe restricted to the input slots
/// the program's replay reads ([`CompiledArtifact::lane_recipe`]), which
/// fills a lane tile for `CheckedProgram::run_block` without writing the
/// slots no load reaches.
#[derive(Debug, Clone)]
pub struct CompiledArtifact {
    /// The executable VLIW program, checked for the target configuration,
    /// costed and lowered to its dataflow list once, at compile time (it
    /// reads as a [`Program`] through `Deref`).
    pub program: CheckedProgram,
    /// Statistics about the compilation.
    pub report: CompileReport,
    /// The flattened operation list the program was compiled from.
    pub op_list: OpList,
    /// Pre-resolved mapping from evidence to the program's input vector.
    recipe: InputRecipe,
    /// `recipe` restricted to [`CheckedProgram::inputs_read`].
    lane_recipe: InputRecipe,
}

impl CompiledArtifact {
    /// Materialises the program's input vector for `evidence`.
    ///
    /// # Errors
    ///
    /// Returns an error when the evidence covers a different number of
    /// variables than the SPN the program was compiled from.
    pub fn input_values(&self, evidence: &Evidence) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.recipe.fill_evidence(evidence, &mut out)?;
        Ok(out)
    }

    /// The pre-resolved evidence-to-input-vector mapping.
    pub fn input_recipe(&self) -> &InputRecipe {
        &self.recipe
    }

    /// [`CompiledArtifact::input_recipe`] restricted to the input slots the
    /// program's replay reads ([`CheckedProgram::inputs_read`]): its
    /// lane-block fills write only those slots' lane groups, which is all
    /// [`CheckedProgram::run_block`] looks at.  The query-major vectors of
    /// [`CompiledArtifact::input_values`] and
    /// [`CompiledArtifact::fill_batch_inputs`] come from the full recipe.
    pub fn lane_recipe(&self) -> &InputRecipe {
        &self.lane_recipe
    }

    /// Fills `out` with the concatenated input vectors of every query in
    /// `batch` (query-major, ready for
    /// `MultiCoreProcessor::run_batch_sharded`), reusing the allocation.
    ///
    /// # Errors
    ///
    /// Returns an error when the batch covers a different number of
    /// variables than the SPN the program was compiled from.
    pub fn fill_batch_inputs(&self, batch: &EvidenceBatch, out: &mut Vec<f64>) -> Result<()> {
        Ok(self.recipe.fill_batch(batch, out)?)
    }
}

/// The cacheable result of partitioning one program across pipeline stages:
/// a [`PartitionedProgram`] ready for
/// `spn_processor::MultiCoreProcessor::run_partitioned`, plus the recipe
/// filling the *global* (unpartitioned) input vector — stage-to-stage
/// operands travel over the modelled interconnect, not through evidence.
#[derive(Debug, Clone)]
pub struct PartitionedArtifact {
    /// The compiled pipeline stages (stage `j` runs on core `j`).
    pub parts: PartitionedProgram,
    /// The unpartitioned operation list the stages were cut from.
    pub op_list: OpList,
    /// Pre-resolved mapping from evidence to the global input vector.
    recipe: InputRecipe,
}

impl PartitionedArtifact {
    /// Number of pipeline stages (≤ the core count requested).
    pub fn num_stages(&self) -> usize {
        self.parts.stages.len()
    }

    /// The pre-resolved evidence-to-global-input-vector mapping; its
    /// `fill_batch` output is query-major, ready for `run_partitioned`.
    pub fn input_recipe(&self) -> &InputRecipe {
        &self.recipe
    }
}

/// Compiler from SPNs to processor programs.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Compiler {
    config: ProcessorConfig,
    options: CompilerOptions,
}

impl Compiler {
    /// Creates a compiler targeting `config` with default options.
    pub fn new(config: ProcessorConfig) -> Self {
        Compiler {
            config,
            options: CompilerOptions::default(),
        }
    }

    /// Creates a compiler with explicit options.
    pub fn with_options(config: ProcessorConfig, options: CompilerOptions) -> Self {
        Compiler { config, options }
    }

    /// The processor configuration this compiler targets.
    pub fn config(&self) -> &ProcessorConfig {
        &self.config
    }

    /// Compiles an SPN into a cacheable executable artifact.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::CompileError`] when the target configuration is
    /// invalid or the program cannot be made to fit it.
    pub fn compile(&self, spn: &Spn) -> Result<CompiledArtifact> {
        self.compile_op_list(OpList::from_spn(spn))
    }

    /// Compiles an already-flattened operation list, then checks the
    /// emitted program on the target ([`CheckedProgram::new`]).
    ///
    /// # Errors
    ///
    /// Returns a [`crate::CompileError`] when the target configuration is
    /// invalid or the program cannot be made to fit it, and
    /// [`crate::CompileError::Processor`] when the simulator rejects what
    /// the scheduler emitted.
    pub fn compile_op_list(&self, op_list: OpList) -> Result<CompiledArtifact> {
        let (program, report) = self.compile_part(&op_list, &[])?;
        let program = CheckedProgram::new(&Processor::new(self.config.clone())?, program)?;
        let recipe = op_list.input_recipe();
        let lane_recipe = recipe.restricted_to(&program.inputs_read());
        Ok(CompiledArtifact {
            program,
            report,
            op_list,
            recipe,
            lane_recipe,
        })
    }

    /// Partitions an already-flattened operation list into at most `cores`
    /// pipeline stages ([`OpList::partition`]) and compiles each stage for
    /// this compiler's core configuration, wiring the stages' imports to
    /// their producers' exported locations.
    ///
    /// The result executes on an N-core machine via
    /// `spn_processor::MultiCoreProcessor::run_partitioned` and computes
    /// bit-for-bit what the unpartitioned program computes.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::CompileError`] when the target configuration is
    /// invalid or any stage cannot be made to fit it.
    pub fn compile_partitioned(
        &self,
        op_list: OpList,
        cores: usize,
    ) -> Result<PartitionedArtifact> {
        let parts = op_list.partition(cores);
        let mut stages = Vec::with_capacity(parts.len());
        for part in &parts {
            let exports: Vec<OperandRef> =
                part.exports.iter().map(|&i| OperandRef::Op(i)).collect();
            let (program, _) = self.compile_part(&part.ops, &exports)?;
            let inputs = part
                .inputs
                .iter()
                .map(|src| match *src {
                    PartInput::Global(i) => TransferSource::Input(i),
                    PartInput::Link { part, export } => TransferSource::Core { core: part, export },
                })
                .collect();
            stages.push(CoreProgram { program, inputs });
        }
        let recipe = op_list.input_recipe();
        let num_inputs = op_list.num_inputs();
        Ok(PartitionedArtifact {
            parts: PartitionedProgram { stages, num_inputs },
            op_list,
            recipe,
        })
    }

    /// Tiles and schedules one op list — a whole program, or one pipeline
    /// stage keeping `exports` live to its end.
    fn compile_part(
        &self,
        ops: &OpList,
        exports: &[OperandRef],
    ) -> Result<(Program, CompileReport)> {
        let tile_depth = self
            .options
            .max_tile_depth
            .unwrap_or(self.config.tree_levels)
            .min(self.config.tree_levels)
            .max(1);
        let tiles = extract_tiles(ops, tile_depth, exports);
        schedule(&self.config, ops, &tiles, exports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spn_core::random::{random_spn, RandomSpnConfig};
    use spn_processor::{Processor, SimState};

    #[test]
    fn compile_and_execute_round_trip() {
        let mut rng = StdRng::seed_from_u64(5);
        let spn = random_spn(&RandomSpnConfig::with_vars(14), &mut rng);
        let compiler = Compiler::new(ProcessorConfig::ptree());
        let compiled = compiler.compile(&spn).unwrap();
        assert_eq!(compiled.report.source_ops, compiled.op_list.num_ops());

        let evidence = Evidence::marginal(14);
        let inputs = compiled.input_values(&evidence).unwrap();
        let processor = Processor::new(ProcessorConfig::ptree()).unwrap();
        let run = processor.run(&compiled.program, &inputs).unwrap();
        let expected = spn.evaluate(&evidence).unwrap();
        assert!((run.output - expected).abs() < 1e-9 * expected.abs().max(1.0));
    }

    #[test]
    fn max_tile_depth_caps_packing() {
        let mut rng = StdRng::seed_from_u64(6);
        let spn = random_spn(&RandomSpnConfig::with_vars(16), &mut rng);
        let deep = Compiler::new(ProcessorConfig::ptree())
            .compile(&spn)
            .unwrap();
        let shallow = Compiler::with_options(
            ProcessorConfig::ptree(),
            CompilerOptions {
                max_tile_depth: Some(1),
            },
        )
        .compile(&spn)
        .unwrap();
        assert!(shallow.report.tiles >= deep.report.tiles);
        assert_eq!(shallow.report.tiles, shallow.op_list.num_ops());
    }

    #[test]
    fn evidence_mismatch_is_reported() {
        let mut rng = StdRng::seed_from_u64(7);
        let spn = random_spn(&RandomSpnConfig::with_vars(4), &mut rng);
        let compiled = Compiler::new(ProcessorConfig::pvect())
            .compile(&spn)
            .unwrap();
        assert!(compiled.input_values(&Evidence::marginal(9)).is_err());
    }

    #[test]
    fn config_accessor_returns_target() {
        let compiler = Compiler::new(ProcessorConfig::pvect());
        assert_eq!(compiler.config().name, "Pvect");
    }

    #[test]
    fn artifact_records_the_program_precision() {
        let mut rng = StdRng::seed_from_u64(8);
        let spn = random_spn(&RandomSpnConfig::with_vars(6), &mut rng);
        let p = spn_core::precision::Precision::E8M10;
        let ops = OpList::from_spn(&spn).with_precision(p);
        let compiled = Compiler::new(ProcessorConfig::ptree())
            .compile_op_list(ops)
            .unwrap();
        assert_eq!(compiled.op_list.precision(), p);
        assert_eq!(
            compiled.program.pe_precision,
            spn_processor::precision::Precision::Custom {
                exp_bits: 8,
                mant_bits: 10
            }
        );
    }

    #[test]
    fn partitioned_pipeline_matches_single_core_bit_for_bit() {
        use spn_processor::{MultiCoreConfig, MultiCoreProcessor, Processor};

        let mut rng = StdRng::seed_from_u64(21);
        let spn = random_spn(&RandomSpnConfig::with_vars(12), &mut rng);
        let compiler = Compiler::new(ProcessorConfig::ptree());
        let single = compiler.compile(&spn).unwrap();
        let processor = Processor::new(ProcessorConfig::ptree()).unwrap();

        for ops in [
            single.op_list.clone(),
            single.op_list.to_log_domain(),
            single
                .op_list
                .with_precision(spn_core::precision::Precision::E8M10),
        ] {
            let baseline = compiler.compile_op_list(ops.clone()).unwrap();
            for cores in [2usize, 3] {
                let parted = compiler.compile_partitioned(ops.clone(), cores).unwrap();
                assert!(parted.num_stages() >= 2);
                let mc =
                    MultiCoreProcessor::new(MultiCoreConfig::new(cores, ProcessorConfig::ptree()))
                        .unwrap();
                let mut states = Vec::new();
                let mut flat = Vec::new();
                let mut rows = EvidenceBatch::new(12);
                let mut expected = Vec::new();
                for assignment in [[false; 12], [true; 12]] {
                    rows.push_assignment(&assignment).unwrap();
                    let e = Evidence::from_assignment(&assignment);
                    let inputs = baseline.input_values(&e).unwrap();
                    let mut state = SimState::default();
                    expected.push(
                        processor
                            .run_with(&baseline.program, &inputs, &mut state)
                            .unwrap()
                            .output,
                    );
                }
                parted.input_recipe().fill_batch(&rows, &mut flat).unwrap();
                let batch = mc
                    .run_partitioned(&parted.parts, &flat, 2, &mut states)
                    .unwrap();
                let got: Vec<f64> = batch.outputs.clone();
                assert_eq!(got.len(), expected.len());
                for (g, e) in got.iter().zip(&expected) {
                    assert_eq!(g.to_bits(), e.to_bits(), "cores={cores}");
                }
                batch.cores.check_accounting().unwrap();
            }
        }
    }

    /// The `spn_core` and `spn_processor` quantizers are independent
    /// implementations (the crates share no dependency); the simulator only
    /// agrees with the interpreted reduced-precision oracle if they round
    /// identically.  Pin them against each other bit for bit across formats,
    /// magnitudes, signs, ties and the non-finite encodings.
    #[test]
    fn core_and_processor_quantizers_agree_bit_for_bit() {
        let formats = [
            (11u8, 52u8),
            (8, 23),
            (8, 10),
            (5, 2),
            (2, 1),
            (4, 30),
            (11, 1),
        ];
        let mut probes: Vec<f64> = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            1.125,
            1.375,
            0.1,
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for e in -320..=308 {
            probes.push(1.7 * (10.0f64).powi(e));
            probes.push(-2.3 * (10.0f64).powi(e));
        }
        for (exp_bits, mant_bits) in formats {
            let core = spn_core::precision::Precision::Custom {
                exp_bits,
                mant_bits,
            };
            let sim = spn_processor::precision::Precision::Custom {
                exp_bits,
                mant_bits,
            };
            for &x in &probes {
                let a = spn_core::precision::round_to(core, x);
                let b = spn_processor::precision::round_to(sim, x);
                assert_eq!(a.to_bits(), b.to_bits(), "e{exp_bits}m{mant_bits} x={x:e}");
            }
        }
        for &x in &probes {
            assert_eq!(
                spn_core::precision::round_to(spn_core::precision::Precision::F32, x).to_bits(),
                spn_processor::precision::round_to(spn_processor::precision::Precision::F32, x)
                    .to_bits()
            );
        }
    }

    /// The same arrangement for the log-domain sum: `spn_processor::tree`
    /// carries its own `log_sum_exp`, and `PeOp::Lse` only agrees with
    /// `OpKind::LogAdd` if the two round identically — on the `-inf`
    /// identity, on equal operands, and where the smaller term underflows
    /// (`exp` of a gap beyond 745 is zero).
    #[test]
    fn core_and_processor_log_sum_exp_agree_bit_for_bit() {
        let mut probes: Vec<f64> = vec![
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            -1e-308,
            -0.25,
            -3.0,
            -744.0,
            -745.2,
            -746.0,
            -1386.3,
            -1e6,
            1.5,
            709.0,
        ];
        for i in 0..40 {
            probes.push(-0.37 * f64::from(i) * f64::from(i));
        }
        for &a in &probes {
            for &b in &probes {
                assert_eq!(
                    spn_core::numeric::log_sum_exp(a, b).to_bits(),
                    spn_processor::tree::log_sum_exp(a, b).to_bits(),
                    "a={a:e} b={b:e}"
                );
            }
        }
    }
}
