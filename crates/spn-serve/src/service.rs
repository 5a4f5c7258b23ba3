//! The in-process inference service: submit queue, dynamic micro-batcher and
//! worker pool.
//!
//! # Data flow
//!
//! ```text
//! submit() ──► pending queue ──► worker: pop oldest request
//!                 ▲  (Mutex +        │  coalesce same (model, mode)
//!                 │   Condvar)       │  requests, up to max_batch
//!            validation              │  queries or max_wait
//!                                    ▼
//!                  ModelRegistry::plan ──► Engine::rebind   (the one cache)
//!                                    ▼
//!                              Engine::execute_query_parallel
//!                                    │
//!                    slice values per request ──► response channels
//! ```
//!
//! The micro-batcher is *dynamic*: a worker takes the oldest pending
//! request, then keeps absorbing queued requests of the same
//! `(model, query mode, numeric mode, precision)` until the batch reaches [`BatchPolicy::max_batch_queries`] queries or
//! [`BatchPolicy::max_wait`] has elapsed — under load batches fill instantly
//! and the wait never triggers; when idle a single request pays at most
//! `max_wait` extra latency (`max_wait = 0` disables waiting entirely).
//!
//! The registry is the only model cache.  A worker owns one engine — one
//! set of execution buffers — and before every batch or session operation
//! rebinds it to the plan the registry holds for that `(model, variant)`
//! right now, so a hot swap or an eviction takes effect at the next
//! dispatch and a compiled plan is alive only while the registry caches it,
//! it is the plan a worker last ran, or a caller holds it.  Whatever is
//! compiled — the max-product program of the first MAP query included — is
//! compiled once, into the plan, for every worker.
//!
//! Coalescing never changes answers: every backend applies an identical
//! per-query kernel, so the values a request receives from a coalesced batch
//! are bit-for-bit those of executing it alone.  If a merged batch fails
//! (e.g. one request conditions on zero-probability evidence), the worker
//! re-executes each request separately so errors stay with the request that
//! caused them.
//!
//! # Sessions
//!
//! Alongside one-shot requests the service keeps per-connection
//! *evaluation sessions* (see [`crate::session`]): [`Service::session_open`]
//! primes a model variant under full evidence, and
//! [`Service::session_delta`] then re-evaluates under a handful of flipped
//! variables through the backend's incremental cone path.  Session
//! operations ride the same worker queue as tokens but are dispatched one
//! at a time under the session's own mutex — the micro-batcher never
//! coalesces them with query batches or with deltas of other sessions.
//!
//! One-shot requests and session operations share the submission path:
//! every caller gets the same [`Handle`] (under the names
//! [`ResponseHandle`] and [`SessionHandle`]), and all work enters the queue
//! through one `enqueue`, which re-checks the shutdown flag under the queue
//! lock — the lock the exiting workers read it under — so nothing can be
//! queued after the last worker left and then never be answered.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spn_core::wire::{QueryRequest, QueryResponse};
use spn_core::{QueryBatch, QueryMode, SampleSpec, Spn};
use spn_platforms::{Backend, Engine, Parallelism, QueryOutput};

use crate::error::ServeError;
use crate::metrics::{Metrics, MetricsRecord, SessionStats};
use crate::registry::{ModelRegistry, ModelVariant};
use crate::session::{
    evict_entry, SessionEntry, SessionHandle, SessionInner, SessionKey, SessionOp, SessionOpen,
    SessionPending, SessionResponse, SessionTable,
};

/// When and how hard the micro-batcher coalesces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Stop absorbing requests once a batch holds this many queries (a
    /// single oversized request still dispatches alone, unsplit).
    pub max_batch_queries: usize,
    /// How long a worker holding a non-full batch waits for more same-key
    /// requests; `ZERO` dispatches immediately.
    pub max_wait: Duration,
}

impl Default for BatchPolicy {
    /// 256-query batches, waiting at most 1 ms to fill them.
    fn default() -> Self {
        BatchPolicy {
            max_batch_queries: 256,
            max_wait: Duration::from_millis(1),
        }
    }
}

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Batcher worker threads (each owns one engine; clamped to ≥ 1).
    pub workers: usize,
    /// The coalescing policy.
    pub policy: BatchPolicy,
    /// Intra-batch sharding: how each dispatched batch is spread over
    /// threads *inside* `Engine::execute_query_parallel`.
    pub parallelism: Parallelism,
    /// How many compiled plans the service caches (clamped to ≥ 1): the
    /// capacity of the registry's LRU, which is the only model cache.
    /// Beyond it a plan stays alive only as the one a worker last ran (at
    /// most `workers` of those) or while a caller holds it.
    pub artifact_capacity: usize,
    /// Maximum live evaluation sessions across all connections (clamped to
    /// ≥ 1); the least-recently-used session is evicted beyond it.
    pub session_capacity: usize,
}

impl Default for ServiceConfig {
    /// Two workers, default policy, serial intra-batch execution, room for
    /// 16 compiled artifacts and 1024 evaluation sessions.
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            policy: BatchPolicy::default(),
            parallelism: Parallelism::serial(),
            artifact_capacity: 16,
            session_capacity: 1024,
        }
    }
}

/// One queued request plus its response channel and submit timestamp.
struct Pending {
    request: QueryRequest,
    tx: Responder<QueryResponse>,
    submitted: Instant,
}

/// One unit of queued work.
enum Item {
    /// A one-shot query request, eligible for micro-batch coalescing.
    Query(Pending),
    /// A token for a session with queued operations: the claiming worker
    /// locks the session and drains its private FIFO.  Tokens are opaque to
    /// the coalescing scan, so session operations are never merged — not
    /// with query batches and not across sessions.
    Session(Arc<SessionEntry>),
}

/// State shared between submitters and workers.
struct Shared {
    queue: Mutex<VecDeque<Item>>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// A waiting slot for one submitted request or session operation whose
/// response is a `T`.
pub struct Handle<T> {
    rx: mpsc::Receiver<Result<T, ServeError>>,
}

/// A waiting slot for one submitted request.
pub type ResponseHandle = Handle<QueryResponse>;

/// The sending half a worker answers a [`Handle`] through.
pub(crate) type Responder<T> = mpsc::Sender<Result<T, ServeError>>;

impl<T> Handle<T> {
    /// A connected responder / handle pair.
    fn channel() -> (Responder<T>, Handle<T>) {
        let (tx, rx) = mpsc::channel();
        (tx, Handle { rx })
    }

    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// Returns the request's error, or [`ServeError::ShuttingDown`] when the
    /// service stopped before answering.
    pub fn wait(self) -> Result<T, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    pub(crate) fn try_wait(&self) -> Option<Result<T, ServeError>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::ShuttingDown)),
        }
    }
}

/// A multi-model inference service over one backend type.
///
/// Construct with [`Service::new`], [`Service::register`] models, then call
/// [`Service::query`] (blocking) or [`Service::submit`] (returns a
/// [`ResponseHandle`]) from any thread.  Wrap in an [`Arc`] to share with a
/// TCP front-end.  [`Service::shutdown`] (also run on drop) stops the
/// workers after draining queued requests.
pub struct Service<B: Backend> {
    registry: Arc<ModelRegistry<B>>,
    shared: Arc<Shared>,
    metrics: Arc<Metrics>,
    sessions: Arc<SessionTable>,
    next_conn: AtomicU64,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<B: Backend + Clone + 'static> Service<B> {
    /// Starts the worker pool (no models registered yet).
    pub fn new(backend: B, config: ServiceConfig) -> Service<B> {
        let registry = Arc::new(ModelRegistry::new(backend, config.artifact_capacity));
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let metrics = Arc::new(Metrics::new());
        let sessions = Arc::new(SessionTable::new(config.session_capacity));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let registry = Arc::clone(&registry);
                let shared = Arc::clone(&shared);
                let metrics = Arc::clone(&metrics);
                let sessions = Arc::clone(&sessions);
                let policy = config.policy;
                let parallelism = config.parallelism;
                std::thread::spawn(move || {
                    worker_loop(&registry, &shared, &metrics, &sessions, policy, parallelism);
                })
            })
            .collect();
        Service {
            registry,
            shared,
            metrics,
            sessions,
            next_conn: AtomicU64::new(1),
            workers: Mutex::new(workers),
        }
    }

    /// The model registry (register and introspect models through this).
    pub fn registry(&self) -> &ModelRegistry<B> {
        &self.registry
    }

    /// Registers (or replaces) a named model without static verification.
    pub fn register(&self, name: impl Into<String>, spn: &Spn) {
        self.registry.register(name, spn);
    }

    /// A snapshot of the per-model / per-mode counters.
    pub fn metrics(&self) -> Vec<MetricsRecord> {
        self.metrics.snapshot()
    }

    /// Enqueues a request and returns a handle to wait on.
    ///
    /// Validation that needs no engine (model exists, variable counts match,
    /// batch non-empty) happens here, so malformed requests fail fast and
    /// can never poison a coalesced batch.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`], [`ServeError::Invalid`] or
    /// [`ServeError::ShuttingDown`] without enqueuing.
    pub fn submit(&self, request: QueryRequest) -> Result<ResponseHandle, ServeError> {
        self.check_running()?;
        if request.query.is_empty() {
            return Err(ServeError::Invalid(
                "a request needs at least one query row".to_string(),
            ));
        }
        request.query.validate()?;
        let num_vars = self.registry.num_vars(&request.model)?;
        if request.query.num_vars() != num_vars {
            return Err(ServeError::Invalid(format!(
                "model {:?} covers {} variables but the request rows cover {}",
                request.model,
                num_vars,
                request.query.num_vars()
            )));
        }

        let (tx, handle) = Handle::channel();
        self.enqueue(Item::Query(Pending {
            request,
            tx,
            submitted: Instant::now(),
        }))?;
        Ok(handle)
    }

    /// Submits `request` and blocks until its response arrives.
    ///
    /// # Errors
    ///
    /// As for [`Service::submit`], plus any execution error.
    pub fn query(&self, request: QueryRequest) -> Result<QueryResponse, ServeError> {
        self.submit(request)?.wait()
    }

    /// Allocates a connection id for session scoping.  Front-ends call this
    /// once per accepted connection and [`Service::drop_connection`] when it
    /// closes; in-process callers can treat the id as a client handle.
    pub fn allocate_connection(&self) -> u64 {
        self.next_conn.fetch_add(1, Ordering::Relaxed)
    }

    /// Drops every session of `conn` (answering queued operations with an
    /// eviction error).  A reconnecting client gets a fresh connection id,
    /// so its old sessions — and their cached evaluation state — are gone.
    pub fn drop_connection(&self, conn: u64) {
        for entry in self.sessions.take_connection(conn) {
            self.metrics.record_session_eviction();
            evict_entry(&entry);
        }
    }

    /// Opens an evaluation session: primes the model variant under the
    /// request's full evidence and pins the resulting state server-side so
    /// later [`Service::session_delta`] calls send only changed variables.
    ///
    /// Opening beyond [`ServiceConfig::session_capacity`] evicts the
    /// least-recently-used session.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`], [`ServeError::Invalid`] (arity
    /// mismatch, session id already open on `conn`) or
    /// [`ServeError::ShuttingDown`] without enqueuing.
    pub fn session_open(
        &self,
        conn: u64,
        request: SessionOpen,
    ) -> Result<SessionHandle, ServeError> {
        self.check_running()?;
        let num_vars = self.registry.num_vars(&request.model)?;
        if request.evidence.num_vars() != num_vars {
            return Err(ServeError::Invalid(format!(
                "model {:?} covers {} variables but the session evidence covers {}",
                request.model,
                num_vars,
                request.evidence.num_vars()
            )));
        }
        let key = SessionKey {
            conn,
            session: request.session,
        };
        let (tx, handle) = Handle::channel();
        let pending = SessionPending {
            id: request.id,
            op: SessionOp::Open(request.evidence),
            tx,
        };
        let (entry, evicted) = self
            .sessions
            .open(key, request.model, request.variant, pending)?;
        for victim in evicted {
            self.metrics.record_session_eviction();
            evict_entry(&victim);
        }
        self.enqueue(Item::Session(entry))?;
        Ok(handle)
    }

    /// Applies evidence flips to an open session and re-evaluates — through
    /// the incremental cone path on backends that support it.  Each flip is
    /// `(variable index, new observation)`; `None` marginalises the
    /// variable.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Invalid`] (unknown session, out-of-range
    /// variable) or [`ServeError::ShuttingDown`] without enqueuing.
    pub fn session_delta(
        &self,
        conn: u64,
        session: u64,
        id: u64,
        flips: Vec<(usize, Option<bool>)>,
    ) -> Result<SessionHandle, ServeError> {
        self.session_op(conn, session, id, SessionOp::Delta(flips))
    }

    /// Closes a session after its already queued operations have been
    /// answered, freeing its server-side state and its id for reuse.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Invalid`] for an unknown session or
    /// [`ServeError::ShuttingDown`].
    pub fn session_close(
        &self,
        conn: u64,
        session: u64,
        id: u64,
    ) -> Result<SessionHandle, ServeError> {
        self.session_op(conn, session, id, SessionOp::Close)
    }

    /// Appends `op` to an open session's private FIFO and queues a worker
    /// token for it — the shared body of [`Service::session_delta`] and
    /// [`Service::session_close`].
    fn session_op(
        &self,
        conn: u64,
        session: u64,
        id: u64,
        op: SessionOp,
    ) -> Result<SessionHandle, ServeError> {
        self.check_running()?;
        let key = SessionKey { conn, session };
        let entry = self.sessions.lookup(key)?;
        let (tx, handle) = Handle::channel();
        let closing = matches!(op, SessionOp::Close);
        {
            let mut inner = entry.inner.lock().expect("session lock");
            if inner.closed {
                return Err(ServeError::Invalid(format!("unknown session {session}")));
            }
            if let SessionOp::Delta(flips) = &op {
                let num_vars = self.registry.num_vars(&inner.model)?;
                for &(var, _) in flips {
                    if var >= num_vars {
                        return Err(ServeError::Invalid(format!(
                            "variable {var} is out of range for the session's {num_vars}-variable model"
                        )));
                    }
                }
            }
            inner.queue.push_back(SessionPending { id, op, tx });
        }
        if closing {
            // Free the key immediately: ordering is preserved by the
            // session's private FIFO, and a same-id re-open after close
            // must not race the worker that will drain it.
            self.sessions.remove(key, &entry);
        }
        self.enqueue(Item::Session(entry))?;
        Ok(handle)
    }

    /// Number of live evaluation sessions across all connections.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// A copy of the global session counters.
    pub fn session_stats(&self) -> SessionStats {
        self.metrics.session_stats()
    }

    /// Fails fast once [`Service::shutdown`] has begun.
    fn check_running(&self) -> Result<(), ServeError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        Ok(())
    }

    /// The one place work enters the queue.  The shutdown flag is checked
    /// again under the queue lock: a worker only exits after seeing, under
    /// that lock, the flag set and the queue empty, so an item pushed here
    /// is always seen by a live worker.
    fn enqueue(&self, item: Item) -> Result<(), ServeError> {
        let mut queue = self.shared.queue.lock().expect("service queue lock");
        self.check_running()?;
        queue.push_back(item);
        drop(queue);
        self.shared.available.notify_all();
        Ok(())
    }
}

impl<B: Backend> Service<B> {
    /// Stops accepting requests, lets the workers drain what is queued, and
    /// joins them.  Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Passing through the queue lock orders the store against a worker
        // that read the flag clear and has not begun to wait yet: by the
        // time the lock is free it is waiting (and woken below).
        drop(self.shared.queue.lock());
        self.shared.available.notify_all();
        // `Drop` runs this too and must not panic, so a poisoned lock is
        // recovered: the handle list is valid at every step.
        let mut workers = match self.workers.lock() {
            Ok(workers) => workers,
            Err(poisoned) => poisoned.into_inner(),
        };
        for worker in workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl<B: Backend> Drop for Service<B> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The sampling spec of an approximate-mode query (`None` for exact modes).
fn sample_spec(query: &QueryBatch) -> Option<SampleSpec> {
    match query {
        QueryBatch::Sample(batch) | QueryBatch::Expectation(batch) => Some(batch.spec()),
        _ => None,
    }
}

/// Everything that must agree for two one-shot requests to share a batch:
/// the model, the query mode, the `(numeric, precision)` variant and — for
/// approximate modes — the exact sampling spec, since merging rows drawn
/// with different seeds or sample counts is rejected by
/// `SampleBatch::try_extend`.
struct GroupKey {
    model: String,
    mode: QueryMode,
    variant: ModelVariant,
    spec: Option<SampleSpec>,
}

impl GroupKey {
    fn of(request: &QueryRequest) -> Self {
        GroupKey {
            model: request.model.clone(),
            mode: request.query.mode(),
            variant: ModelVariant::new(request.numeric, request.precision),
            spec: sample_spec(&request.query),
        }
    }

    fn matches(&self, request: &QueryRequest) -> bool {
        request.model == self.model
            && request.query.mode() == self.mode
            && ModelVariant::new(request.numeric, request.precision) == self.variant
            && sample_spec(&request.query) == self.spec
    }
}

/// Moves every queued request matching `key` into `group`, as long as the
/// batch stays within `max_queries` (requests that would overflow are left
/// queued for the next batch).  Session tokens are never candidates: deltas
/// are stateful and strictly ordered per session, so coalescing them —
/// least of all across sessions — would be unsound.
fn take_matching(
    queue: &mut VecDeque<Item>,
    key: &GroupKey,
    max_queries: usize,
    total: &mut usize,
    group: &mut Vec<Pending>,
) {
    let mut i = 0;
    while i < queue.len() {
        let Item::Query(candidate) = &queue[i] else {
            i += 1;
            continue;
        };
        let len = candidate.request.query.len();
        if key.matches(&candidate.request) && *total + len <= max_queries {
            let Some(Item::Query(pending)) = queue.remove(i) else {
                unreachable!("index was just observed to hold a query");
            };
            *total += len;
            group.push(pending);
        } else {
            i += 1;
        }
    }
}

/// One batcher worker: pop → coalesce → execute → respond, until shutdown
/// and the queue is drained.
fn worker_loop<B>(
    registry: &ModelRegistry<B>,
    shared: &Shared,
    metrics: &Metrics,
    sessions: &SessionTable,
    policy: BatchPolicy,
    parallelism: Parallelism,
) where
    B: Backend + Clone,
{
    // The worker's one engine, created by its first dispatch.
    let mut engine = None;

    loop {
        let mut queue = shared.queue.lock().expect("service queue lock");
        let first = loop {
            if let Some(first) = queue.pop_front() {
                break first;
            }
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            queue = shared
                .available
                .wait(queue)
                .expect("service queue lock poisoned");
        };
        let first = match first {
            Item::Query(first) => first,
            Item::Session(entry) => {
                drop(queue);
                handle_session(registry, sessions, metrics, &mut engine, &entry);
                continue;
            }
        };
        let key = GroupKey::of(&first.request);
        let mut total = first.request.query.len();
        let mut group = vec![first];
        take_matching(
            &mut queue,
            &key,
            policy.max_batch_queries,
            &mut total,
            &mut group,
        );
        let deadline = Instant::now() + policy.max_wait;
        while total < policy.max_batch_queries && !shared.shutdown.load(Ordering::Acquire) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (q, timeout) = shared
                .available
                .wait_timeout(queue, deadline - now)
                .expect("service queue lock poisoned");
            queue = q;
            take_matching(
                &mut queue,
                &key,
                policy.max_batch_queries,
                &mut total,
                &mut group,
            );
            if timeout.timed_out() {
                break;
            }
        }
        drop(queue);
        dispatch(registry, metrics, &mut engine, parallelism, group, total);
    }
}

/// Drains one session's private FIFO in submission order, holding the
/// session mutex throughout so its incremental state is never touched
/// concurrently (a sibling worker claiming a later token for the same
/// session blocks here and finds an empty queue).
fn handle_session<B>(
    registry: &ModelRegistry<B>,
    sessions: &SessionTable,
    metrics: &Metrics,
    engine: &mut Option<Engine<B>>,
    entry: &Arc<SessionEntry>,
) where
    B: Backend + Clone,
{
    let mut inner = entry.inner.lock().expect("session lock");
    while let Some(pending) = inner.queue.pop_front() {
        let SessionPending { id, op, tx, .. } = pending;
        let result = run_session_op(registry, engine, &mut inner, id, &op);
        match &op {
            SessionOp::Open(_) => {
                metrics.record_session_open();
                if result.is_err() {
                    metrics.record_session_error();
                    // A session that never primed holds nothing worth
                    // keeping; free its key so the client can retry.
                    inner.closed = true;
                }
            }
            SessionOp::Delta(_) => {
                let (recomputed, full_pass) = match &result {
                    Ok(response) => (response.recomputed_ops as u64, response.full_pass),
                    Err(_) => (0, false),
                };
                metrics.record_session_delta(recomputed, full_pass, result.is_ok());
            }
            SessionOp::Close => metrics.record_session_close(),
        }
        let _ = tx.send(result);
    }
    let closed = inner.closed;
    let key = inner.key;
    drop(inner);
    if closed {
        sessions.remove(key, entry);
    }
}

/// Executes one session operation on the worker's engine, bound to the
/// session's `(model, variant)`, transparently re-priming when the model
/// was re-registered since the session last ran.
fn run_session_op<B>(
    registry: &ModelRegistry<B>,
    engine: &mut Option<Engine<B>>,
    inner: &mut SessionInner,
    id: u64,
    op: &SessionOp,
) -> Result<SessionResponse, ServeError>
where
    B: Backend + Clone,
{
    let respond = |inner: &SessionInner, value: f64, recomputed_ops: usize, full_pass: bool| {
        SessionResponse {
            id,
            session: inner.key.session,
            model: inner.model.clone(),
            variant: inner.variant,
            value,
            recomputed_ops,
            full_pass,
            incremental: inner
                .eval
                .as_ref()
                .is_some_and(spn_platforms::EvalSession::is_incremental),
            closed: inner.closed,
        }
    };
    match op {
        SessionOp::Open(evidence) => {
            let (engine, version) = bind(registry, engine, &inner.model, inner.variant)?;
            let eval = engine
                .open_session(evidence)
                .map_err(ServeError::from_backend)?;
            inner.version = version;
            let (value, ops) = (eval.value(), engine.ops().num_ops());
            inner.eval = Some(eval);
            Ok(respond(inner, value, ops, true))
        }
        SessionOp::Delta(flips) => {
            let (engine, version) = bind(registry, engine, &inner.model, inner.variant)?;
            let eval = inner.eval.as_mut().ok_or_else(|| {
                ServeError::Invalid(format!("session {} was never opened", inner.key.session))
            })?;
            if version != inner.version {
                // The model was hot-swapped: re-prime the new program under
                // the session's current evidence, then apply the flips.
                let evidence = eval.evidence().clone();
                *eval = engine
                    .open_session(&evidence)
                    .map_err(ServeError::from_backend)?;
                inner.version = version;
            }
            let outcome = engine
                .session_delta(eval, flips)
                .map_err(ServeError::from_backend)?;
            Ok(respond(
                inner,
                outcome.value,
                outcome.recomputed_ops,
                outcome.full_pass,
            ))
        }
        SessionOp::Close => {
            let value = inner
                .eval
                .as_ref()
                .map_or(f64::NAN, spn_platforms::EvalSession::value);
            inner.closed = true;
            let response = respond(inner, value, 0, false);
            inner.eval = None;
            Ok(response)
        }
    }
}

/// Executes one coalesced group and distributes responses.
fn dispatch<B>(
    registry: &ModelRegistry<B>,
    metrics: &Metrics,
    engine: &mut Option<Engine<B>>,
    parallelism: Parallelism,
    group: Vec<Pending>,
    total: usize,
) where
    B: Backend + Clone,
{
    let model = group[0].request.model.clone();
    let mode = group[0].request.query.mode();
    let variant = ModelVariant::new(group[0].request.numeric, group[0].request.precision);
    metrics.record_batch(
        &model,
        mode,
        variant.numeric,
        variant.precision,
        group.len() as u64,
        total as u64,
    );

    let engine = match bind(registry, engine, &model, variant) {
        Ok((engine, _)) => engine,
        Err(err) => {
            for pending in group {
                respond(metrics, pending, Err(err.clone()));
            }
            return;
        }
    };
    // One shard (the default, serial `parallelism`) is the serial call.
    let mut run_query = |query: &QueryBatch| {
        engine
            .execute_query_parallel(query, &parallelism)
            .map_err(ServeError::from_backend)
    };

    // A lone request executes its own batch directly (no copy of the
    // evidence); a coalesced group is merged into one dense batch first.
    let output = if group.len() == 1 {
        run_query(&group[0].request.query)
    } else {
        let mut merged = group[0].request.query.clone();
        group[1..]
            .iter()
            .try_for_each(|p| merged.try_extend(&p.request.query))
            .map_err(ServeError::from)
            .and_then(|()| run_query(&merged))
    };

    match output {
        Ok(output) => {
            let mut offset = 0;
            for pending in group {
                let n = pending.request.query.len();
                let response = slice_output(&output, &pending.request, offset, n);
                offset += n;
                respond(metrics, pending, Ok(response));
            }
        }
        Err(_) if group.len() > 1 => {
            // One request in the batch poisoned it (e.g. zero-probability
            // conditioning evidence).  Re-run each request alone so the error
            // lands only on its owner.
            for pending in group {
                let result = run_query(&pending.request.query).map(|out| {
                    slice_output(&out, &pending.request, 0, pending.request.query.len())
                });
                respond(metrics, pending, result);
            }
        }
        Err(err) => {
            let pending = group.into_iter().next().expect("non-empty group");
            respond(metrics, pending, Err(err));
        }
    }
}

/// Binds the worker's engine to the plan the registry holds for `(model,
/// variant)` right now — a lookup and a reference-count bump when the plan
/// is cached, a compile when it is not — creating the engine on the
/// worker's first call.  Returns it beside the registration version the
/// plan was compiled from.
fn bind<'a, B>(
    registry: &ModelRegistry<B>,
    engine: &'a mut Option<Engine<B>>,
    model: &str,
    variant: ModelVariant,
) -> Result<(&'a mut Engine<B>, u64), ServeError>
where
    B: Backend + Clone,
{
    let (version, plan) = registry.plan(model, variant)?;
    let engine = engine.get_or_insert_with(|| Engine::from_plan(Arc::clone(&plan)));
    engine.rebind(plan);
    Ok((engine, version))
}

/// Cuts one request's window out of a batch output.  `offset` and `len`
/// count *queries*: sample-mode outputs carry `n_samples` values (and
/// assignments) per query, so their slices scale by the per-query width —
/// which is uniform across a coalesced group because [`take_matching`] only
/// merges requests sharing one [`SampleSpec`].  Standard errors are always
/// one per query.
fn slice_output(
    output: &QueryOutput,
    request: &QueryRequest,
    offset: usize,
    len: usize,
) -> QueryResponse {
    let spec = sample_spec(&request.query);
    let width = match &request.query {
        QueryBatch::Sample(batch) => batch.spec().n_samples as usize,
        _ => 1,
    };
    QueryResponse {
        id: request.id,
        model: request.model.clone(),
        mode: request.query.mode(),
        numeric: request.numeric,
        precision: request.precision,
        values: output.values[offset * width..(offset + len) * width].to_vec(),
        assignments: output
            .assignments
            .as_ref()
            .map(|a| a[offset * width..(offset + len) * width].to_vec()),
        std_err: output
            .std_err
            .as_ref()
            .map(|s| s[offset..offset + len].to_vec()),
        samples: spec.map_or(0, |spec| u64::from(spec.n_samples) * len as u64),
    }
}

/// Sends the result and records request-level metrics.
fn respond(metrics: &Metrics, pending: Pending, result: Result<QueryResponse, ServeError>) {
    let mode = pending.request.query.mode();
    let samples = match &result {
        Ok(response) => response.samples,
        Err(_) => 0,
    };
    metrics.record_request(
        &pending.request.model,
        mode,
        pending.request.numeric,
        pending.request.precision,
        pending.request.query.len() as u64,
        samples,
        pending.submitted.elapsed(),
        result.is_ok(),
    );
    // A dropped receiver just means the caller stopped waiting.
    let _ = pending.tx.send(result);
}
