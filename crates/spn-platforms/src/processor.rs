//! The custom SPN processor as a two-phase execution backend.
//!
//! Compilation runs the full `spn-compiler` pipeline (tiling, list
//! scheduling, bank allocation) once and caches the resulting
//! [`CompiledArtifact`], whose program is checked, costed and lowered to its
//! dataflow list once per plan ([`spn_processor::CheckedProgram`]), so the
//! VLIW program, schedule, legality, cost and input recipe are all amortised
//! across queries — the paper's deployment model.  A batch is cut into lane
//! blocks as the CPU and GPU models' are (`backend::execute_lane_blocks`),
//! but of at most eight queries (`PROCESSOR_LANES`), and each block's input
//! tile is filled from the artifact's lane recipe
//! ([`CompiledArtifact::lane_recipe`]): parameters once per batch and lane
//! width, indicators per block, both for the input slots the replay reads
//! alone, and the simulator replays each lane block from that tile.
//!
//! The backend defaults to one core.  With [`ProcessorBackend::with_cores`]
//! the same compiled program is sharded over N simulated cores behind a
//! shared parameter memory, and the reported perf takes the makespan (the
//! busiest core) as its cycle count.  Values do not depend on the shard
//! split, so the backend replays the whole batch in blocks and takes the
//! per-core attribution from [`MultiCoreProcessor::sharded_perf`]: values and
//! counters are bit for bit what [`MultiCoreProcessor::run_batch_sharded`]
//! returns for the same batch.

use spn_compiler::{CompiledArtifact, Compiler};
use spn_core::batch::EvidenceBatch;
use spn_core::flatten::OpList;
use spn_processor::{MultiCoreConfig, MultiCoreProcessor, ProcessorConfig, SimState};

use crate::backend::{
    execute_lane_blocks, widest_block, Backend, BackendError, BatchResult, ExecBuffers,
};

/// Widest lane block the simulator replays: its dataflow replay is
/// monomorphized for 1-8 lanes, and its tile is `inputs × lanes`, so it
/// keeps 8 while the CPU and GPU models' register files go wider.
const PROCESSOR_LANES: usize = 8;

/// Compiler plus cycle-accurate simulator for one processor configuration
/// (optionally replicated across N cores).
#[derive(Debug, Clone)]
pub struct ProcessorBackend {
    compiler: Compiler,
    processor: MultiCoreProcessor,
}

/// Reusable simulator storage of a [`ProcessorBackend`]: the replay's slot
/// scratch, grown on first use.  One serves every core count, because the
/// batch's values do not depend on its shard split.
#[derive(Debug, Clone, Default)]
pub struct ProcessorScratch {
    state: SimState,
}

impl ProcessorBackend {
    /// Creates a single-core backend targeting `config`.
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is structurally invalid.
    pub fn new(config: ProcessorConfig) -> Result<Self, BackendError> {
        ProcessorBackend::with_cores(config, 1)
    }

    /// Creates a backend simulating `cores` copies of `config` behind a
    /// default shared memory and interconnect.
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is structurally invalid or
    /// `cores` is zero.
    pub fn with_cores(config: ProcessorConfig, cores: usize) -> Result<Self, BackendError> {
        let config = MultiCoreConfig::new(cores, config);
        let processor = MultiCoreProcessor::new(config.clone())?;
        Ok(ProcessorBackend {
            compiler: Compiler::new(config.core),
            processor,
        })
    }

    /// The Ptree preset (2 trees × 4 levels, 30 PEs).
    ///
    /// # Panics
    ///
    /// Never panics: the preset configuration is valid by construction.
    pub fn ptree() -> Self {
        ProcessorBackend::new(ProcessorConfig::ptree()).expect("ptree preset is valid")
    }

    /// The Pvect preset (the lowest PE level only, 16 PEs).
    ///
    /// # Panics
    ///
    /// Never panics: the preset configuration is valid by construction.
    pub fn pvect() -> Self {
        ProcessorBackend::new(ProcessorConfig::pvect()).expect("pvect preset is valid")
    }

    /// The per-core processor configuration this backend targets.
    pub fn config(&self) -> &ProcessorConfig {
        self.compiler.config()
    }

    /// Number of simulated cores batches are sharded over.
    pub fn cores(&self) -> usize {
        self.processor.config().cores
    }
}

impl Backend for ProcessorBackend {
    type Compiled = CompiledArtifact;
    /// The simulator's reusable storage; empty until the first batch runs.
    type Scratch = ProcessorScratch;

    fn name(&self) -> String {
        self.processor.config().name()
    }

    fn compile(&self, ops: &OpList) -> Result<CompiledArtifact, BackendError> {
        Ok(self.compiler.compile_op_list(ops.clone())?)
    }

    fn execute_batch(
        &self,
        compiled: &CompiledArtifact,
        batch: &EvidenceBatch,
        buffers: &mut ExecBuffers,
        scratch: &mut ProcessorScratch,
    ) -> Result<BatchResult, BackendError> {
        let program = &compiled.program;
        // The cost, and the guard that the program was checked for this
        // machine, before any value.
        let cores = self.processor.sharded_perf(program, batch.len())?;
        let recipe = compiled.lane_recipe();
        recipe.check(batch)?;
        let num_inputs = recipe.num_inputs();
        let tile = &mut buffers.inputs;
        tile.resize(num_inputs * widest_block(PROCESSOR_LANES, batch.len()), 0.0);
        // The width whose parameters the tile holds (0: none yet).  Widths
        // only descend, so parameters are written once per batch and width,
        // and indicators once per block: no value of an earlier call,
        // program or width survives into a block.
        let mut params_lanes = 0;
        let values = execute_lane_blocks(PROCESSOR_LANES, batch, |start, lanes, out| {
            let tile = &mut tile[..num_inputs * lanes];
            if lanes != params_lanes {
                recipe.fill_params(lanes, tile);
                params_lanes = lanes;
            }
            recipe.fill_indicators(batch, start, lanes, tile);
            program.run_block(lanes, tile, out, &mut scratch.state);
        });
        Ok(BatchResult {
            values,
            perf: cores.merged(&self.name(), batch.len() as u64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spn_core::random::{random_spn, RandomSpnConfig};
    use spn_core::Evidence;

    #[test]
    fn compiles_once_and_serves_batches() {
        let mut rng = StdRng::seed_from_u64(46);
        let spn = random_spn(&RandomSpnConfig::with_vars(11), &mut rng);
        let ops = spn_core::flatten::OpList::from_spn(&spn);
        let backend = ProcessorBackend::ptree();
        let compiled = backend.compile(&ops).unwrap();
        let mut buffers = ExecBuffers::new();
        let mut scratch = ProcessorScratch::default();

        let mut batch = EvidenceBatch::new(11);
        batch.push_marginal();
        batch.push_assignment(&[true; 11]).unwrap();
        let mut partial = Evidence::marginal(11);
        partial.observe(3, false);
        batch.push(&partial).unwrap();

        let result = backend
            .execute_batch(&compiled, &batch, &mut buffers, &mut scratch)
            .unwrap();
        assert_eq!(result.perf.queries, 3);
        for (q, value) in result.values.iter().enumerate() {
            let expected = spn.evaluate(&batch.to_evidence(q)).unwrap();
            assert!(
                (value - expected).abs() <= 1e-9 * expected.abs().max(1e-12),
                "query {q}: {value} vs {expected}"
            );
        }
    }

    #[test]
    fn cached_sim_state_survives_batches_and_resizes_for_bigger_programs() {
        let backend = ProcessorBackend::ptree();
        let mut buffers = ExecBuffers::new();
        let mut scratch = ProcessorScratch::default();
        let mut rng = StdRng::seed_from_u64(47);
        let small = random_spn(&RandomSpnConfig::with_vars(6), &mut rng);
        let large = random_spn(&RandomSpnConfig::with_vars(40), &mut rng);
        // Alternate between two differently-sized programs through the SAME
        // buffers: the cached SimState must be reused when it fits and
        // transparently re-sized when it does not, never corrupting values.
        for spn in [&small, &large, &small, &large] {
            let ops = spn_core::flatten::OpList::from_spn(spn);
            let compiled = backend.compile(&ops).unwrap();
            let batch = EvidenceBatch::marginals(spn.num_vars(), 2);
            let result = backend
                .execute_batch(&compiled, &batch, &mut buffers, &mut scratch)
                .unwrap();
            let expected = spn.evaluate(&Evidence::marginal(spn.num_vars())).unwrap();
            for value in &result.values {
                assert!((value - expected).abs() <= 1e-9 * expected.abs().max(1e-12));
            }
        }
    }

    #[test]
    fn both_presets_expose_their_config() {
        assert_eq!(ProcessorBackend::ptree().config().name, "Ptree");
        assert_eq!(ProcessorBackend::pvect().config().name, "Pvect");
        assert_eq!(Backend::name(&ProcessorBackend::ptree()), "Ptree");
        assert_eq!(ProcessorBackend::ptree().cores(), 1);
    }

    #[test]
    fn multi_core_backend_matches_single_core_values() {
        let mut rng = StdRng::seed_from_u64(48);
        let spn = random_spn(&RandomSpnConfig::with_vars(10), &mut rng);
        let ops = spn_core::flatten::OpList::from_spn(&spn);
        let single = ProcessorBackend::ptree();
        let quad = ProcessorBackend::with_cores(ProcessorConfig::ptree(), 4).unwrap();
        assert_eq!(quad.cores(), 4);
        assert_eq!(Backend::name(&quad), "Ptreex4");

        let compiled_s = single.compile(&ops).unwrap();
        let compiled_q = quad.compile(&ops).unwrap();
        let batch = EvidenceBatch::marginals(10, 9);
        let mut buffers = ExecBuffers::new();
        let (mut ss, mut sq) = (ProcessorScratch::default(), ProcessorScratch::default());
        let rs = single
            .execute_batch(&compiled_s, &batch, &mut buffers, &mut ss)
            .unwrap();
        let rq = quad
            .execute_batch(&compiled_q, &batch, &mut buffers, &mut sq)
            .unwrap();
        assert_eq!(rs.values.len(), rq.values.len());
        for (a, b) in rs.values.iter().zip(&rq.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Four cores split nine queries by their wave-arbitrated pass costs,
        // the first cores taking the most, so the makespan is well under the
        // serial batch's.
        assert!(rq.perf.cycles < rs.perf.cycles);
        assert_eq!(rq.perf.queries, 9);
    }
}
