//! The two-phase execution interface every platform implements.
//!
//! The paper's deployment model separates *compilation* of an SPN into a
//! platform program from *repeated inference* over streams of evidence.  The
//! [`Backend`] trait encodes exactly that split:
//!
//! 1. [`Backend::compile`] runs once per circuit and produces an arbitrary
//!    platform-specific artifact (levelisations, bank assignments, VLIW
//!    programs, pre-modelled cycle counts, input recipes — whatever the
//!    platform wants to amortise),
//! 2. [`Backend::execute_batch`] runs per evidence batch against that
//!    artifact, using caller-owned [`ExecBuffers`] so the hot path performs
//!    no per-query allocation.
//!
//! On top of the serial per-batch path, [`Backend::execute_batch_parallel`]
//! shards one batch across a fixed pool of scoped worker threads — one
//! [`WorkerState`] (buffers + backend scratch) per worker, contiguous
//! shards, results stitched back in batch order — controlled by a
//! [`Parallelism`] configuration.  Sharding never changes results: every
//! query runs the identical kernel, so parallel output is bit-for-bit equal
//! to serial output.
//!
//! The [`crate::Engine`] wrapper pairs a shared [`crate::Plan`] with the
//! buffers, which is the API the benchmark harness and examples use.

use std::sync::Arc;

use spn_core::batch::EvidenceBatch;
use spn_core::flatten::OpList;
use spn_core::incremental::ConeAnalysis;
use spn_core::vectorized::{self, LaneProgram};
use spn_processor::{MultiCoreProcessor, PerfReport};

use crate::options::EngineOptions;

/// Errors surfaced by backends (compile- or execute-time).
pub type BackendError = Box<dyn std::error::Error + Send + Sync>;

/// Worker-pool configuration of the parallel sharded execution path.
///
/// A batch is split into at most [`Parallelism::workers`] contiguous shards,
/// each executed by one scoped worker thread with its own [`WorkerState`];
/// [`Parallelism::min_shard`] stops tiny batches from paying thread overhead
/// for a handful of queries (they fall back to the serial path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Maximum worker threads (shards) per batch; `1` means serial.
    pub workers: usize,
    /// Minimum queries per shard; batches shorter than `2 × min_shard` run
    /// serially.
    pub min_shard: usize,
}

impl Parallelism {
    /// Queries per shard below which splitting further is not worth a
    /// thread: at ~100 ns/query even the fastest backend amortises thread
    /// spawn only beyond a few dozen queries.
    pub const DEFAULT_MIN_SHARD: usize = 32;

    /// Serial execution (one worker, no threads spawned).
    pub fn serial() -> Self {
        Parallelism {
            workers: 1,
            min_shard: Self::DEFAULT_MIN_SHARD,
        }
    }

    /// A fixed pool of `workers` threads (clamped to at least one).
    pub fn workers(workers: usize) -> Self {
        Parallelism {
            workers: workers.max(1),
            min_shard: Self::DEFAULT_MIN_SHARD,
        }
    }

    /// One worker per hardware thread of the host
    /// ([`std::thread::available_parallelism`]; `1` when unknown).
    pub(crate) fn available() -> Self {
        Parallelism::workers(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Number of shards a `queries`-long batch is split into: capped by the
    /// worker count and by the minimum shard size, never zero.
    pub(crate) fn shards_for(&self, queries: usize) -> usize {
        let by_size = queries / self.min_shard.max(1);
        self.workers.min(by_size).max(1)
    }
}

impl Default for Parallelism {
    /// Defaults to `Parallelism::available`.
    fn default() -> Self {
        Parallelism::available()
    }
}

/// Per-worker reusable execution state of the parallel path: the generic
/// [`ExecBuffers`] plus the backend's statically-typed scratch.
///
/// One lives per worker slot and persists across batches (owned by the
/// [`crate::Engine`], or caller-managed for direct
/// [`Backend::execute_batch_parallel`] use), so repeated parallel batches
/// allocate nothing per query — the same amortisation story as the serial
/// path, replicated per worker.
pub struct WorkerState<B: Backend + ?Sized> {
    /// The worker's input/scratch arenas.
    pub buffers: ExecBuffers,
    /// The worker's backend-specific state (e.g. a simulator instance).
    pub scratch: B::Scratch,
}

impl<B: Backend + ?Sized> Default for WorkerState<B> {
    fn default() -> Self {
        WorkerState {
            buffers: ExecBuffers::new(),
            scratch: B::Scratch::default(),
        }
    }
}

/// Reusable scratch memory for the execute-many hot path.
///
/// Owned by the caller (typically an [`crate::Engine`]) and handed to every
/// [`Backend::execute_batch`] call; backends resize the vectors as needed and
/// the allocations persist across batches.  Backend-specific reusable state
/// (e.g. the processor simulator's slot scratch) lives in the
/// statically-typed [`Backend::Scratch`] instead.
#[derive(Debug, Clone, Default)]
pub struct ExecBuffers {
    /// Input-tile arena of the processor backend: one lane-blocked input
    /// tile reused across blocks.  The software models leave it empty.
    pub inputs: Vec<f64>,
    /// Register-file arena of the software models: one [`LaneProgram`]
    /// register file (`slots × lanes` values) reused across blocks.
    pub scratch: Vec<f64>,
}

impl ExecBuffers {
    /// Creates empty buffers (they grow on first use and are then reused).
    pub fn new() -> Self {
        ExecBuffers::default()
    }
}

/// Root values and accumulated counters of one batch execution.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// One SPN root value per query, in batch order.
    pub values: Vec<f64>,
    /// Accumulated performance counters ([`PerfReport::queries`] passes).
    pub perf: PerfReport,
}

/// The widest lane block a `queries`-long batch uses on a platform whose
/// blocks hold at most `max_lanes` queries: buffers are sized by it, so a
/// one-row request does not pay for a 32-lane block.
pub(crate) fn widest_block(max_lanes: usize, queries: usize) -> usize {
    vectorized::normalize_lanes(max_lanes.min(queries))
}

/// The block cut every platform's batches run through: `batch` is cut into
/// lane blocks of at most `max_lanes` queries — full blocks first, what is
/// left over in the next supported widths down to one, so widths only
/// descend — and `block(start, lanes, out)` computes the root values of
/// queries `start .. start + lanes` into `out`.  The three kernels are the
/// CPU and GPU models' [`LaneProgram::run_block`] (through
/// [`execute_op_list`]), which fills its register file from the batch
/// itself, and the simulator's [`spn_processor::CheckedProgram::run_block`],
/// whose caller fills an input tile per block.
pub(crate) fn execute_lane_blocks(
    max_lanes: usize,
    batch: &EvidenceBatch,
    mut block: impl FnMut(usize, usize, &mut [f64]),
) -> Vec<f64> {
    let widest = widest_block(max_lanes, batch.len());
    let mut values = vec![0.0; batch.len()];
    let mut start = 0;
    while start < batch.len() {
        let lanes = vectorized::normalize_lanes(widest.min(batch.len() - start));
        block(start, lanes, &mut values[start..start + lanes]);
        start += lanes;
    }
    values
}

/// The execute-many path of the two software models (CPU and GPU): every
/// value comes from the program's [`LaneProgram`], block by block through
/// [`execute_lane_blocks`], and the models differ only in the
/// `perf_per_query` they charge.  The register file is
/// [`ExecBuffers::scratch`], sized by the widest block of this batch;
/// [`ExecBuffers::inputs`] is not touched.
pub(crate) fn execute_op_list(
    program: &LaneProgram,
    perf_per_query: &PerfReport,
    max_lanes: usize,
    batch: &EvidenceBatch,
    buffers: &mut ExecBuffers,
) -> Result<BatchResult, BackendError> {
    program.check(batch)?;
    let registers = &mut buffers.scratch;
    registers.resize(program.slots() * widest_block(max_lanes, batch.len()), 0.0);
    let values = execute_lane_blocks(max_lanes, batch, |start, lanes, out| {
        program.run_block(batch, start, lanes, registers, out);
    });
    Ok(BatchResult {
        values,
        perf: perf_per_query.times(batch.len() as u64),
    })
}

/// A two-phase execution platform: compile once, execute many.
///
/// Implementations both *execute* the program (so results can be checked
/// against the reference evaluator) and *model* its cost in cycles; the
/// modelled counters land in [`BatchResult::perf`].
///
/// Backends and their artifacts are shared across threads — by the sharded
/// execution path within one batch and by serving fleets across engines —
/// so the trait requires `Send + Sync` of both once, here, rather than of
/// every caller.
pub trait Backend: Send + Sync {
    /// The platform-specific compiled artifact (cacheable, reusable across
    /// any number of batches).
    type Compiled: Send + Sync;

    /// Platform-specific reusable execution state (e.g. the simulator's
    /// slot scratch); `()` for stateless backends.  Created
    /// via `Default` by the caller and threaded through every
    /// [`Backend::execute_batch`] call so its allocations survive across
    /// batches.
    type Scratch: Default + Send;

    /// Short name used in tables and figures (e.g. `"CPU"`).
    fn name(&self) -> String;

    /// Applies the backend-tuning fields of `options` before compilation
    /// (called by [`crate::Engine::new`]); the default implementation
    /// ignores every knob.
    ///
    /// Each backend applies only the fields that concern it — the CPU model
    /// takes [`EngineOptions::lanes`] — and leaves its configuration
    /// untouched when the field is `None`.
    ///
    /// # Errors
    ///
    /// Returns an error when an option value is structurally invalid for
    /// this backend.
    fn configure(&mut self, _options: &EngineOptions) -> Result<(), BackendError> {
        Ok(())
    }

    /// Per-variable reachability of `compiled`'s program, when this backend
    /// supports incremental session evaluation; `None` (the default) makes
    /// [`crate::Engine`] sessions fall back to full passes.
    ///
    /// Backends that return `Some` must execute single-query batches with
    /// arithmetic bit-for-bit identical to one op at a time in op order,
    /// because session deltas interleave incremental cone re-execution with
    /// full passes and the two must agree exactly.
    fn cone_analysis(&self, _compiled: &Self::Compiled) -> Option<Arc<ConeAnalysis>> {
        None
    }

    /// Compiles `ops` into this platform's executable artifact.
    ///
    /// This is the expensive, once-per-circuit phase; everything derivable
    /// from the program alone (schedules, bank assignments, modelled cycle
    /// counts) belongs here, not in the per-batch path.
    ///
    /// # Errors
    ///
    /// Returns an error when the program cannot be compiled for this
    /// platform.
    fn compile(&self, ops: &OpList) -> Result<Self::Compiled, BackendError>;

    /// Executes every query of `batch` against `compiled`, reusing
    /// `buffers` and the platform-specific `scratch` for all storage.
    ///
    /// # Errors
    ///
    /// Returns an error when the batch does not match the compiled program
    /// or the platform fails structurally.
    fn execute_batch(
        &self,
        compiled: &Self::Compiled,
        batch: &EvidenceBatch,
        buffers: &mut ExecBuffers,
        scratch: &mut Self::Scratch,
    ) -> Result<BatchResult, BackendError>;

    /// Executes `batch` sharded across a fixed pool of scoped worker
    /// threads, each with its own [`WorkerState`].
    ///
    /// The batch is split into `Parallelism::shards_for` contiguous
    /// sub-batches; worker `i` runs shard `i` through the ordinary
    /// [`Backend::execute_batch`] hot loop, and the shard results are
    /// stitched back together in shard order.  Because every query is
    /// computed by the identical per-query kernel and the performance
    /// counters merge associatively, the result — values *and* counters — is
    /// bit-for-bit identical to the serial path regardless of the worker
    /// count.
    ///
    /// `workers` is the caller-owned pool of per-worker states; it is grown
    /// (never shrunk) to the shard count, so its allocations persist across
    /// batches.  Batches too small to shard (see [`Parallelism::min_shard`])
    /// run serially on the first worker's state without spawning threads.
    ///
    /// # Errors
    ///
    /// Returns the first failing shard's error (in shard order), or any
    /// error the serial path can produce.
    fn execute_batch_parallel(
        &self,
        compiled: &Self::Compiled,
        batch: &EvidenceBatch,
        parallelism: &Parallelism,
        workers: &mut Vec<WorkerState<Self>>,
    ) -> Result<BatchResult, BackendError> {
        let shards = parallelism.shards_for(batch.len());
        while workers.len() < shards.max(1) {
            workers.push(WorkerState::default());
        }
        if shards <= 1 {
            let worker = &mut workers[0];
            return self.execute_batch(compiled, batch, &mut worker.buffers, &mut worker.scratch);
        }

        // Evenly-sized contiguous shards — the simulator's own split, so
        // shard boundaries are a pure function of (batch length, shard
        // count) and the stitched order is the batch order.
        let sub_batches: Vec<EvidenceBatch> = MultiCoreProcessor::shard_ranges(shards, batch.len())
            .into_iter()
            .map(|range| batch.sub_batch(range.start, range.len()))
            .collect();

        let mut outcomes: Vec<Option<Result<BatchResult, BackendError>>> =
            (0..shards).map(|_| None).collect();
        std::thread::scope(|scope| {
            for ((worker, sub), outcome) in workers
                .iter_mut()
                .zip(&sub_batches)
                .zip(outcomes.iter_mut())
            {
                scope.spawn(move || {
                    *outcome = Some(self.execute_batch(
                        compiled,
                        sub,
                        &mut worker.buffers,
                        &mut worker.scratch,
                    ));
                });
            }
        });

        let mut values = Vec::with_capacity(batch.len());
        let mut perf = PerfReport::default();
        for outcome in outcomes {
            let shard_result = outcome.expect("every shard thread ran to completion")?;
            values.extend(shard_result.values);
            perf.merge(&shard_result.perf);
        }
        Ok(BatchResult { values, perf })
    }
}
