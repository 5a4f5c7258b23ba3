//! Compiler from sum-product networks to the custom SPN processor.
//!
//! The compiler implements the flow described in sec. IV of the paper:
//!
//! 1. the SPN is flattened and binarised into a scalar operation DAG
//!    ([`spn_core::flatten::OpList`]),
//! 2. operations are packed into **tiles** — sub-trees of the DAG that fit one
//!    pass through a PE tree, so intermediate values never leave the datapath
//!    (`tile`),
//! 3. tiles are list-scheduled cycle by cycle onto the trees, while register
//!    **banks are allocated in tandem with PE placement** (a PE can only write
//!    a subset of banks), crossbar **read-port conflicts are avoided**, and
//!    read-after-write hazards from the pipelined trees are respected
//!    (`schedule`),
//! 4. program inputs live in the vector data memory, where slots holding
//!    the same indicator or parameter may **share a word** (`layout`), and
//!    are loaded row by row; when register pressure demands it,
//!    intermediate values are **spilled** back to memory (`alloc`),
//! 5. the result is a [`spn_processor::Program`] of VLIW instructions plus a
//!    [`CompileReport`] describing what the compiler did.
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use spn_core::{random::{random_spn, RandomSpnConfig}, Evidence};
//! use spn_processor::{Processor, ProcessorConfig};
//! use spn_compiler::Compiler;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spn = random_spn(&RandomSpnConfig::with_vars(8), &mut StdRng::seed_from_u64(1));
//! let compiler = Compiler::new(ProcessorConfig::ptree());
//! let compiled = compiler.compile(&spn)?;
//!
//! let evidence = Evidence::marginal(8);
//! let inputs = compiled.input_values(&evidence)?;
//! let processor = Processor::new(ProcessorConfig::ptree())?;
//! let run = processor.run(&compiled.program, &inputs)?;
//! assert!((run.output - spn.evaluate(&evidence)?).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod alloc;
mod compiler;
mod error;
mod layout;
mod report;
mod schedule;
mod tile;

pub mod verify;

pub use compiler::{CompiledArtifact, Compiler, CompilerOptions, PartitionedArtifact};
pub use error::CompileError;
pub use report::CompileReport;
pub use verify::{verify_artifact, verify_partitioned, verify_program};

/// Convenience alias for results returned by this crate.
pub type Result<T, E = CompileError> = std::result::Result<T, E>;
