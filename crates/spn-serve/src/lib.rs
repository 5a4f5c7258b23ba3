//! A multi-model inference service over the two-phase engine.
//!
//! The paper's deployment story — compile an SPN once, then answer streams
//! of evidence queries fast — is a *serving* workload: many concurrent
//! clients, many models, throughput from batching.  This crate turns the
//! `spn-platforms` [`Engine`](spn_platforms::Engine) into that long-running
//! service, using only `std`:
//!
//! * [`ModelRegistry`] — named circuits compiled for one backend, keyed by
//!   [`ModelVariant`] (numeric mode × precision), with an LRU cache of
//!   [`Arc`](std::sync::Arc)-shared compiled
//!   [`Plan`](spn_platforms::Plan)s — the only model cache: each worker
//!   rebinds its one engine to the cached plan per dispatch, so
//!   [`ServiceConfig::artifact_capacity`] bounds the compiled plans kept
//!   (evicted variants recompile transparently on next use),
//! * [`Service`] — the in-process API: a submit queue, a pool of batcher
//!   workers, and a **dynamic micro-batcher** that coalesces concurrent
//!   same-`(model, mode)` requests into dense batches under a
//!   [`BatchPolicy`] (max batch size / max wait), dispatching through the
//!   engine's sharded query path (one shard is the serial call); every
//!   query mode is served, and coalescing is bit-for-bit invisible in the
//!   answers,
//! * sessions ([`SessionOpen`], [`SessionHandle`]) — per-connection
//!   evaluation sessions: open once under full evidence, then send only
//!   *deltas* (flipped variables), answered through the backend's
//!   incremental cone path where available (bit-for-bit with a full pass)
//!   and never coalesced across sessions,
//! * [`TcpServer`] — a line-delimited JSON front-end over `std::net` with
//!   graceful shutdown and versioned wire protocol (v2 envelopes adding
//!   session semantics; a v1 one-shot line is the `"query"` envelope with
//!   the type left implicit; see [`tcp`]),
//! * [`Metrics`] — per-model / per-mode throughput, batching and latency
//!   counters plus global session counters,
//! * [`json`] — the dependency-free JSON parser/writer backing the wire
//!   protocol.
//!
//! One-shot queries and session operations are one request path, not two:
//! one wire decoder, one [`Handle`] type (named [`ResponseHandle`] and
//! [`SessionHandle`] per response), one enqueue onto the worker queue, and
//! one crate-private LRU map behind the plan cache and the session table.
//!
//! # Quick example
//!
//! ```
//! use spn_core::{random::{random_spn, RandomSpnConfig}, QueryMode, QueryRequest};
//! use spn_platforms::CpuModel;
//! use spn_serve::{Service, ServiceConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), spn_serve::ServeError> {
//! let service = Service::new(CpuModel::new(), ServiceConfig::default());
//! let spn = random_spn(&RandomSpnConfig::with_vars(3), &mut StdRng::seed_from_u64(1));
//! service.register("demo", &spn);
//!
//! let request = QueryRequest::from_rows(1, "demo", QueryMode::Marginal, &["???"], None)?;
//! let response = service.query(request)?;
//! assert!((response.values[0] - 1.0).abs() < 1e-9);
//! service.shutdown();
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the readiness-polling front-end needs exactly
// one foreign call (`poll(2)`, see [`poll`]), which that module opts into
// with a narrowly scoped `allow`.  Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod error;
pub mod json;
mod lru;
mod metrics;
pub mod poll;
pub mod registry;
mod service;
mod session;
pub mod tcp;

pub use error::ServeError;
pub use metrics::{Metrics, MetricsRecord, ModeStats, SessionStats};
pub use registry::{ModelRegistry, ModelVariant};
pub use service::{BatchPolicy, Handle, ResponseHandle, Service, ServiceConfig};
pub use session::{SessionHandle, SessionOpen, SessionResponse};
pub use tcp::TcpServer;
