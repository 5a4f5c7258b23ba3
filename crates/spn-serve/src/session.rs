//! Per-connection evaluation sessions for the wire-v2 delta path.
//!
//! A *session* pins one model variant's evidence vector server-side so a
//! client can send only the variables that changed between consecutive
//! queries (`delta` lines) instead of re-sending full evidence rows.  The
//! service answers deltas through [`spn_platforms::Engine::session_delta`],
//! which on cone-capable backends re-executes only the flipped variables'
//! reachable cones — bit-for-bit the value of a full pass.
//!
//! # Keying and lifecycle
//!
//! Sessions are keyed by `(connection id, client-chosen session id)`: ids
//! are scoped per connection, so two clients can both use session `1`
//! without colliding, and a dropped connection takes all of its sessions
//! with it (a reconnecting client re-opens and re-primes — there is
//! deliberately no cross-connection session resumption).  The table is
//! LRU-bounded (the crate's one `Lru` map, shared with the registry's plan
//! cache); opening a session beyond the capacity evicts the
//! least-recently-used one, whose owner sees an "evicted" error on its next
//! delta.
//!
//! # Ordering
//!
//! Each session owns a private FIFO of its pending operations plus a
//! mutex serialising their execution.  Submitting an operation appends to
//! that FIFO and pushes a *token* for the session onto the service's main
//! queue — through the same `enqueue` one-shot requests take, and answered
//! through the same [`Handle`] — and a worker popping the token locks the
//! session and drains its FIFO in order.  Session operations therefore
//! execute strictly in per-session submission order and are **never
//! coalesced** — not with one-shot query batches and not with deltas of any
//! other session, whose state they must not touch.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use spn_core::Evidence;
use spn_platforms::EvalSession;

use crate::error::ServeError;
use crate::lru::Lru;
use crate::registry::ModelVariant;
use crate::service::{Handle, Responder};

/// The table key of one session: the serving connection it belongs to and
/// the client-chosen session id (scoped per connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SessionKey {
    /// The owning connection (from `Service::allocate_connection`).
    pub conn: u64,
    /// The client-chosen session id.
    pub session: u64,
}

/// A decoded `session_open` request: full evidence for the priming pass
/// plus the model variant every later delta of the session executes in.
#[derive(Debug, Clone)]
pub struct SessionOpen {
    /// Client request id, echoed in the response.
    pub id: u64,
    /// The client-chosen session id.
    pub session: u64,
    /// The model the session evaluates.
    pub model: String,
    /// The numeric mode and precision the session executes in.
    pub variant: ModelVariant,
    /// The full starting evidence (primes the incremental state).
    pub evidence: Evidence,
}

/// The response of one session operation (open, delta or close).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResponse {
    /// Echo of the request id.
    pub id: u64,
    /// Echo of the session id.
    pub session: u64,
    /// The session's model.
    pub model: String,
    /// The session's execution variant.
    pub variant: ModelVariant,
    /// The circuit value under the session's current evidence (`NaN` when
    /// closing a session that never finished opening).
    pub value: f64,
    /// Operations re-executed to produce `value` (the whole program for an
    /// open or a fallback pass, the dirty cone for an incremental delta).
    pub recomputed_ops: usize,
    /// Whether the full program was re-executed.
    pub full_pass: bool,
    /// Whether the session runs on the incremental cone path (backends
    /// without cone metadata answer every delta with a full pass).
    pub incremental: bool,
    /// `true` only on the response to a `session_close`.
    pub closed: bool,
}

/// A waiting slot for one submitted session operation.
pub type SessionHandle = Handle<SessionResponse>;

/// One queued session operation.
pub(crate) enum SessionOp {
    /// Prime the session under full evidence.
    Open(Evidence),
    /// Apply evidence flips and re-evaluate.
    Delta(Vec<(usize, Option<bool>)>),
    /// Answer the current value one last time and free the session.
    Close,
}

/// One queued session operation plus its response channel.
pub(crate) struct SessionPending {
    pub id: u64,
    pub op: SessionOp,
    pub tx: Responder<SessionResponse>,
}

/// The mutable state of one session, serialised by the entry's mutex.
pub(crate) struct SessionInner {
    pub key: SessionKey,
    pub model: String,
    pub variant: ModelVariant,
    /// The registration version `eval` was primed against.  The worker
    /// takes the plan from the registry on every operation, so this is the
    /// one hot-swap check left: a different version re-primes the session
    /// on the new program before the next delta.
    pub version: u64,
    /// `None` until the `Open` operation has run (or after it failed).
    pub eval: Option<EvalSession>,
    /// Operations submitted but not yet executed, in submission order.
    pub queue: VecDeque<SessionPending>,
    /// Closed by the client, a failed open, eviction or connection drop;
    /// rejects further submissions and frees the table key.
    pub closed: bool,
}

/// One session: its state behind the mutex that serialises execution.
pub(crate) struct SessionEntry {
    pub inner: Mutex<SessionInner>,
}

/// The LRU-bounded session table shared by submitters and workers.
pub(crate) struct SessionTable {
    inner: Mutex<Lru<SessionKey, Arc<SessionEntry>>>,
}

impl SessionTable {
    pub(crate) fn new(capacity: usize) -> SessionTable {
        SessionTable {
            inner: Mutex::new(Lru::new(capacity)),
        }
    }

    /// Number of live sessions.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("session table lock").len()
    }

    /// Creates a session for `key` holding `pending` (the `Open` operation)
    /// as its first queued op.  Returns the new entry plus any entry the
    /// LRU evicted to stay within capacity; the caller must error-drain the
    /// victims *outside* the table lock.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Invalid`] when `key` is already open.
    pub(crate) fn open(
        &self,
        key: SessionKey,
        model: String,
        variant: ModelVariant,
        pending: SessionPending,
    ) -> Result<(Arc<SessionEntry>, Vec<Arc<SessionEntry>>), ServeError> {
        let mut inner = self.inner.lock().expect("session table lock");
        if inner.peek(&key).is_some() {
            return Err(ServeError::Invalid(format!(
                "session {} is already open on this connection",
                key.session
            )));
        }
        let entry = Arc::new(SessionEntry {
            inner: Mutex::new(SessionInner {
                key,
                model,
                variant,
                version: 0,
                eval: None,
                queue: VecDeque::from([pending]),
                closed: false,
            }),
        });
        let evicted = inner.insert(key, Arc::clone(&entry));
        Ok((
            entry,
            evicted.into_iter().map(|(_, victim)| victim).collect(),
        ))
    }

    /// Looks up `key`, refreshing its LRU timestamp.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Invalid`] when the session does not exist
    /// (never opened, closed, evicted, or owned by another connection).
    pub(crate) fn lookup(&self, key: SessionKey) -> Result<Arc<SessionEntry>, ServeError> {
        let mut inner = self.inner.lock().expect("session table lock");
        inner
            .get(&key)
            .map(|entry| Arc::clone(entry))
            .ok_or_else(|| ServeError::Invalid(format!("unknown session {}", key.session)))
    }

    /// Removes `key` if it still maps to `entry` (a closed session frees
    /// its key without racing a same-key successor).
    pub(crate) fn remove(&self, key: SessionKey, entry: &Arc<SessionEntry>) {
        let mut inner = self.inner.lock().expect("session table lock");
        if inner
            .peek(&key)
            .is_some_and(|held| Arc::ptr_eq(held, entry))
        {
            inner.remove(&key);
        }
    }

    /// Removes every session of `conn`, returning the entries for the
    /// caller to error-drain outside the table lock.
    pub(crate) fn take_connection(&self, conn: u64) -> Vec<Arc<SessionEntry>> {
        let mut inner = self.inner.lock().expect("session table lock");
        inner.remove_where(|key| key.conn == conn)
    }
}

/// Marks `entry` closed, frees its engine state and answers every queued
/// operation with an eviction error.  Call with no table or entry lock
/// held.
pub(crate) fn evict_entry(entry: &SessionEntry) {
    let mut inner = entry.inner.lock().expect("session lock");
    inner.closed = true;
    inner.eval = None;
    let session = inner.key.session;
    while let Some(pending) = inner.queue.pop_front() {
        let _ = pending.tx.send(Err(ServeError::Invalid(format!(
            "session {session} was evicted"
        ))));
    }
}
