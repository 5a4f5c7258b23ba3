//! Execution backends for SPN inference: CPU model, GPU model, and the
//! custom processor, all behind one two-phase interface.
//!
//! # The compile / execute split
//!
//! Every platform implements the [`Backend`] trait, which separates the two
//! phases of the paper's deployment model:
//!
//! * **compile** (once per circuit): [`Backend::compile`] turns a flattened
//!   [`spn_core::flatten::OpList`] into a platform-specific artifact.  For
//!   the CPU and GPU models that means running the entire cycle model ahead
//!   of time (straight-line and SIMT schedules are evidence-independent);
//!   for the custom processor it is the full `spn-compiler` pipeline
//!   producing a cached VLIW program.
//! * **execute** (per evidence batch): [`Backend::execute_batch`] streams a
//!   dense [`spn_core::EvidenceBatch`] through the artifact, reusing
//!   caller-owned [`ExecBuffers`] so the hot path allocates nothing per
//!   query and reports batch-aware counters in [`BatchResult`].
//!
//! The [`Engine`] handle is a shared compiled [`Plan`] plus its own buffers
//! — construct it once with [`Engine::new`] and an [`EngineOptions`]
//! (numeric domain, emulated PE precision, backend tuning knobs), then call
//! [`Engine::execute_batch`] for each batch (or [`Engine::execute`] for the
//! occasional single query).
//!
//! Session-shaped workloads — one client flipping a few evidence variables
//! between consecutive queries — use [`Engine::open_session`] /
//! [`Engine::session_delta`]: on the CPU model deltas re-execute only the
//! flipped variables' reachable cones (bit-for-bit with a full pass, every
//! numeric mode and precision; see [`spn_core::incremental`]), and other
//! backends transparently fall back to full passes.
//!
//! # Scaling out and richer queries
//!
//! Two layers sit on top of the serial batched path:
//!
//! * **Parallel sharded execution** — [`Backend::execute_batch_parallel`] /
//!   [`Engine::execute_batch_parallel`] split one batch into contiguous
//!   shards executed by a fixed pool of scoped worker threads (one
//!   [`backend::WorkerState`] each, configured by a [`Parallelism`]), and
//!   stitch the results back in batch order — bit-for-bit identical to the
//!   serial path.
//! * **Query modes** — [`Engine::execute_query`] /
//!   [`Engine::execute_query_parallel`] answer
//!   [`spn_core::QueryBatch`]es: joint and marginal probabilities, MAP
//!   completions (max-product artifact with argmax traceback) and
//!   conditionals (ratio of two passes), all lowered onto the same batched
//!   kernels.
//!
//! # The modelled platforms
//!
//! The paper compares its processor against an Intel Core i5-7200U running
//! the SPN as a flat list of scalar operations (Algorithm 1) and against a
//! hand-optimised CUDA kernel on the Nvidia Jetson TX2 (Algorithm 3).  Those
//! physical platforms are not available here, so this crate models them
//! mechanistically: both models execute the *actual* flattened circuit and
//! count cycles from the microarchitectural bottlenecks the paper identifies
//! (scalar dependency chains and memory traffic on the CPU; thread
//! synchronisation, shared-memory bank conflicts and divergence on the GPU).
//! The custom processor is executed by the cycle-accurate simulator in
//! `spn-processor`.  All three report the same batch-aware [`PerfReport`],
//! so the benchmark harness can tabulate them side by side.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod backend;
mod cpu;
mod engine;
mod gpu;
mod options;
mod processor;

pub use backend::{Backend, BackendError, BatchResult, ExecBuffers, Parallelism, WorkerState};
pub use cpu::{CpuCompiled, CpuModel};
pub use engine::{Engine, EvalSession, MapArtifact, Plan, QueryOutput};
pub use gpu::{GpuCompiled, GpuConfig, GpuModel};
pub use options::EngineOptions;
pub use processor::{ProcessorBackend, ProcessorScratch};
pub use spn_core::incremental::DeltaOutcome;
pub use spn_processor::PerfReport;
