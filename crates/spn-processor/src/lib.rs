//! Cycle-accurate simulator of the custom SPN processor.
//!
//! The processor accelerates sum-product network inference with three ideas
//! (sec. IV of the paper):
//!
//! 1. **Trees of processing elements** keep intermediate values inside the
//!    datapath instead of bouncing them through the register file.  A PE can
//!    add, multiply or forward one of its inputs, and its output is
//!    registered, so a tree of depth `L` is an `L`-stage pipeline.
//! 2. **A banked register file with a crossbar** feeds the tree inputs: any
//!    input can read any bank, but a bank serves at most one read per cycle.
//!    PEs write back to a private register file of their tree, and a PE at
//!    level `l` can only reach `2^(l+1)` specific banks.
//! 3. **A vector-only data memory** holds program inputs and spilled values:
//!    one address loads or stores a whole row (one word per bank) at once.
//!
//! The simulator executes the VLIW [`isa::Program`] produced by
//! `spn-compiler`, enforcing every structural rule (read/write port limits,
//! write connectivity, pipeline latencies, address ranges) as hard errors,
//! and reports throughput in the paper's metric: SPN operations per cycle
//! ([`perf::PerfReport`]).
//!
//! Execution follows the compile-once / execute-many split: a program is
//! compiled once and then streamed over evidence.  The schedule is static
//! and the hardware has no interlocks, so the simulator answers three
//! questions from one function each, all taken once per plan: what a pass
//! costs is [`Program::perf`], whether a program is legal is
//! [`Processor::check`], and what it computes is one symbolic walk that
//! lowers the checked program to a dataflow list of PE operations over
//! value slots.  A [`CheckedProgram`] holds all three answers; its only
//! constructor runs the check.  Each block of up to eight queries then
//! replays the list side by side from a lane-minor input tile
//! ([`CheckedProgram::run_block`]), counting nothing and testing no rule,
//! and [`MultiCoreProcessor::sharded_perf`] costs the batch on N cores.
//! [`MultiCoreProcessor::run_batch_sharded`] is the same from query-major
//! input vectors and a bare [`Program`], which it checks, costs and lowers
//! once per call (reusable [`SimState`]s, no per-query allocation); one
//! core is the single-processor case.
//!
//! The two configurations evaluated in the paper are available as presets:
//! [`ProcessorConfig::ptree`] (2 trees × 4 levels = 30 PEs) and
//! [`ProcessorConfig::pvect`] (the lowest PE level only, 16 PEs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod dataflow;
mod error;
mod interconnect;
mod perf;
mod processor;
mod trace;

pub mod config;
pub mod isa;
pub mod multicore;
pub mod precision;
pub mod tree;

pub use config::{MultiCoreConfig, PePosition, ProcessorConfig};
pub use error::ProcessorError;
pub use interconnect::{InterconnectConfig, SharedMemoryConfig};
pub use isa::{Instruction, MemOp, PeOp, Program, ReadSel, TreeInstr, WriteCmd};
pub use multicore::{
    CoreProgram, MultiCoreBatch, MultiCoreProcessor, PartitionedProgram, TransferSource,
};
pub use perf::{CorePerf, MultiCorePerf, PerfReport};
pub use precision::Precision;
pub use processor::{CheckedProgram, ExecutionResult, Processor, SimState};
pub use trace::{diff_traces, TraceDivergence, TraceRecorder};

/// Convenience alias for results returned by this crate.
pub type Result<T, E = ProcessorError> = std::result::Result<T, E>;
