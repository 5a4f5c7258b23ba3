//! Line-delimited JSON TCP front-end over a [`Service`].
//!
//! # Protocol
//!
//! One JSON object per `\n`-terminated line, one response line per request
//! line, in order.  Evidence rows use the compact `'0'`/`'1'`/`'?'` encoding
//! of [`spn_core::wire`]:
//!
//! ```text
//! → {"id": 1, "model": "weather", "mode": "marginal", "rows": ["1??", "??1"]}
//! ← {"id": 1, "ok": true, "model": "weather", "mode": "marginal", "values": [0.3, 0.47]}
//!
//! → {"id": 2, "model": "weather", "mode": "map", "rows": ["?1?"]}
//! ← {"id": 2, "ok": true, ..., "values": [0.168], "assignments": ["011"]}
//!
//! → {"id": 3, "model": "weather", "mode": "conditional", "targets": ["1??"], "givens": ["??1"]}
//! ← {"id": 3, "ok": true, ..., "values": [0.61...]}
//!
//! → {"id": 4, "model": "weather", "mode": "joint", "numeric": "log", "rows": ["101"]}
//! ← {"id": 4, "ok": true, ..., "numeric": "log", "values": [-1.89...]}
//!
//! → {"id": 5, "model": "weather", "mode": "expectation", "rows": ["1??"], "seed": 7, "n_samples": 4096, "method": "likelihood"}
//! ← {"id": 5, "ok": true, ..., "values": [0.2993], "std_err": [0.0071], "ci95": [0.0139], "samples": 4096}
//!
//! → {"id": 6, "model": "weather", "mode": "sample", "rows": ["?1?"], "seed": 1, "n_samples": 2}
//! ← {"id": 6, "ok": true, ..., "values": [1, 1], "assignments": ["011", "110"], "std_err": [0], "samples": 2}
//!
//! → {"cmd": "models"}
//! ← {"ok": true, "models": ["weather"]}
//!
//! → {"cmd": "metrics"}
//! ← {"ok": true, "metrics": [{"model": "weather", "mode": "marginal", ...}]}
//! ```
//!
//! The optional `"numeric"` field selects the execution domain: `"linear"`
//! (the default) answers with probabilities, `"log"` with natural-log
//! probabilities — finite on circuits deep enough that the linear values
//! underflow to `0.0`.  The optional `"precision"` field selects the
//! emulated PE arithmetic format: `"f64"` (the default, exact), `"f32"`, or
//! a custom `"e<exp>m<mant>"` format such as the paper's `"e8m10"`; the
//! response echoes the precision its values were computed in.  Both fields
//! must be strings — a number or other type is a protocol error, as is an
//! unknown name.
//!
//! The approximate modes `"sample"` and `"expectation"` accept three more
//! optional fields: `"seed"` (base PRNG seed, default 0; exact as a JSON
//! number up to 2^53), `"n_samples"` (draws per query row, default 1000)
//! and `"method"` (`"ancestral"`, `"likelihood"` or `"gibbs"`, default
//! ancestral).  Their responses carry a per-query `"std_err"` array (the
//! estimator's standard error, always linear-scale), the derived `"ci95"`
//! half-widths (1.96 standard errors), and the total `"samples"` drawn;
//! `"sample"` responses hold `n_samples` values (the per-draw importance
//! weights) and `n_samples` assignments per query row.  Determinism is
//! bit-for-bit per `(model, row, seed, n_samples, method)`: coalescing,
//! worker count and engine parallelism never change the draws.  JSON has no
//! `-Infinity` literal, so a log-domain
//! value of exactly `-inf` (a structural probability of zero) is encoded as
//! `null` in the `values` array and decoded back to `-inf` by
//! [`decode_response`].
//!
//! Failures answer `{"id": ..., "ok": false, "error": "..."}` and keep the
//! connection open.  Values are written in Rust's shortest-round-trip float
//! form, so a client parsing with standard `f64` semantics recovers them bit
//! for bit.
//!
//! # Protocol v2: sessions and deltas
//!
//! Lines carrying `"v": 2` use a typed envelope whose `"type"` field
//! selects the message.  `"type": "query"` is the one-shot request above
//! under the new envelope; the three session messages pin evidence
//! server-side so consecutive queries send only the variables that changed:
//!
//! ```text
//! → {"v": 2, "type": "session_open", "id": 1, "session": 7, "model": "weather", "row": "10?"}
//! ← {"id": 1, "ok": true, "session": 7, ..., "value": 0.21, "incremental": true, ...}
//!
//! → {"v": 2, "type": "delta", "id": 2, "session": 7, "flips": [[0, "0"], [2, "1"]]}
//! ← {"id": 2, "ok": true, "session": 7, "value": 0.08, "recomputed_ops": 11, "full_pass": false, ...}
//!
//! → {"v": 2, "type": "session_close", "id": 3, "session": 7}
//! ← {"id": 3, "ok": true, "session": 7, "closed": true, ...}
//! ```
//!
//! `session_open` takes one full evidence `"row"` plus the optional
//! `"numeric"` / `"precision"` fields, which then apply to every delta of
//! the session.  `"flips"` holds `[variable index, observation]` pairs with
//! the observation in the same `"0"` / `"1"` / `"?"` alphabet as rows
//! (`"?"` marginalises the variable).  Session ids are chosen by the client
//! and scoped to the connection; a dropped connection discards its sessions,
//! so a reconnecting client re-opens (and the server re-primes) rather than
//! resuming stale state.  Delta values are **bit-for-bit** the values a
//! full-evidence query under the session's current evidence would return —
//! the incremental path is a latency optimisation, never an approximation.
//!
//! A line without a `"v"` field is protocol v1, and *is* the
//! `"type": "query"` envelope with the type left implicit: one `decode`
//! maps every parsed line to one request enum, so a v1 line and the same
//! line under the v2 envelope are the same request from there on and get
//! byte-identical replies; v1 clients need no changes.  A `"v"` other than
//! 2 is a protocol error.
//!
//! # Connection handling
//!
//! The front-end is **readiness-driven**: one event-loop thread multiplexes
//! the listener and every connection over non-blocking sockets polled
//! through [`crate::poll`] (`poll(2)` on Unix).  Each connection owns a
//! read buffer with line-framing state (a partial line survives across
//! reads), a write buffer flushed as the socket drains, and a FIFO of
//! in-flight requests submitted to the shared [`Service`] — responses of
//! queries and session operations alike are collected non-blockingly
//! (`Handle::try_wait`) and written
//! back in request order.  No thread is spawned per connection, so one process
//! holds thousands of mostly-idle connections; the [`Service`]'s fixed
//! worker fleet drains the micro-batcher, and concurrency across
//! connections is what feeds it.
//!
//! [`TcpServer::shutdown`] stops accepting, discards buffered *partial*
//! request lines, drains in-flight responses and flushes write buffers
//! (bounded by a drain deadline), then joins the event loop.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spn_core::wire::{self, QueryRequest, QueryResponse};
use spn_core::{Evidence, NumericMode, Precision, QueryMode, SampleMethod, SampleSpec};
use spn_platforms::Backend;

use crate::error::ServeError;
use crate::json::{self, Value};
use crate::metrics::{MetricsRecord, SessionStats};
use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::registry::ModelVariant;
use crate::service::{ResponseHandle, Service};
use crate::session::{SessionHandle, SessionOpen, SessionResponse};

/// Poll timeout when every connection is idle: bounds shutdown-flag latency.
const IDLE_POLL: Duration = Duration::from_millis(50);
/// Poll timeout while responses are in flight: bounds added response
/// latency without spinning (the service answers on its own threads).
const INFLIGHT_POLL: Duration = Duration::from_millis(1);
/// Longest accepted request line; a peer exceeding it gets a protocol error
/// and its connection closed (protects the buffer from unframed floods).
const MAX_LINE_BYTES: usize = 4 * 1024 * 1024;
/// How long shutdown keeps draining in-flight responses and unflushed
/// write buffers before dropping the remaining connections.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(5);
/// Per-event-loop read scratch size (shared by all connections).
const READ_CHUNK: usize = 64 * 1024;

/// A running TCP front-end.  Dropping it shuts it down.
pub struct TcpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// accepting connections against `service`.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn spawn<B>(service: Arc<Service<B>>, addr: &str) -> std::io::Result<TcpServer>
    where
        B: Backend + Clone + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let loop_shutdown = Arc::clone(&shutdown);
        let accept_thread =
            std::thread::spawn(move || event_loop(&service, &listener, &loop_shutdown));
        Ok(TcpServer {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (query this for the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains in-flight responses, closes every connection
    /// and joins the event loop.  Idempotent; also runs on drop.  The
    /// underlying [`Service`] keeps running — shut it down separately.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Nudge the event loop out of its poll wait with one last
        // connection to ourselves (it would notice within `IDLE_POLL`
        // anyway; this just makes shutdown prompt).
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The raw descriptor handed to the poller.
#[cfg(unix)]
fn fd_of(socket: &impl std::os::unix::io::AsRawFd) -> i32 {
    socket.as_raw_fd()
}

/// Non-Unix hosts use the degraded always-ready poller, which never looks
/// at the descriptor.
#[cfg(not(unix))]
fn fd_of<T>(_socket: &T) -> i32 {
    -1
}

/// One request whose response the connection still owes, in request order.
enum InFlight {
    /// The response line is already known (commands, protocol errors).
    Ready(String),
    /// Submitted to the service under request id `id`.
    Pending { id: u64, reply: Reply },
}

/// What a submitted request is waiting on: the two handle types differ only
/// in the encoder their response goes through.
enum Reply {
    Query(ResponseHandle),
    Session(SessionHandle),
}

impl Reply {
    /// The encoded response line (or the request's error), once it is in;
    /// `None` while the request is still in flight.
    fn poll(&self) -> Option<Result<String, ServeError>> {
        match self {
            Reply::Query(handle) => handle
                .try_wait()
                .map(|result| result.map(|response| encode_response(&response))),
            Reply::Session(handle) => handle
                .try_wait()
                .map(|result| result.map(|response| encode_session_response(&response))),
        }
    }
}

/// Per-connection state of the event loop.
struct Connection {
    stream: TcpStream,
    /// The service-allocated connection id scoping this connection's
    /// sessions; dropped (with its sessions) when the connection closes.
    conn: u64,
    /// Bytes read but not yet framed into a line (at most one partial line).
    read_buf: Vec<u8>,
    /// Encoded response lines not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// How much of `write_buf` the socket has accepted.
    write_pos: usize,
    /// Requests whose responses are still owed, in request order.
    inflight: VecDeque<InFlight>,
    /// No more reads (peer EOF, read error, oversize line, or shutdown);
    /// the connection closes once `inflight` and `write_buf` drain.
    eof: bool,
    /// The write side failed; drop the connection regardless of state.
    dead: bool,
}

impl Connection {
    fn new(stream: TcpStream, conn: u64) -> Connection {
        Connection {
            stream,
            conn,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            inflight: VecDeque::new(),
            eof: false,
            dead: false,
        }
    }

    /// Whether any submitted request is still waiting on the service.
    fn has_pending(&self) -> bool {
        self.inflight
            .iter()
            .any(|f| matches!(f, InFlight::Pending { .. }))
    }

    /// Everything owed has been handed to the socket.
    fn drained(&self) -> bool {
        self.inflight.is_empty() && self.write_pos >= self.write_buf.len()
    }

    /// The connection has no further purpose and can be dropped.
    fn finished(&self) -> bool {
        self.dead || (self.eof && self.drained())
    }

    /// Drains the socket's receive buffer and frames complete lines.
    fn read_ready<B>(&mut self, service: &Service<B>, scratch: &mut [u8])
    where
        B: Backend + Clone + 'static,
    {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.eof = true;
                    // A trailing partial line can never complete; drop it.
                    self.read_buf.clear();
                    return;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&scratch[..n]);
                    self.frame_lines(service);
                    if self.eof {
                        return;
                    }
                    if n < scratch.len() {
                        return; // receive buffer drained (next poll catches more)
                    }
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.eof = true;
                    self.read_buf.clear();
                    return;
                }
            }
        }
    }

    /// Cuts every complete line out of `read_buf` and enqueues its request;
    /// at most one partial line remains buffered.
    fn frame_lines<B>(&mut self, service: &Service<B>)
    where
        B: Backend + Clone + 'static,
    {
        let mut start = 0usize;
        while let Some(nl) = self.read_buf[start..].iter().position(|&b| b == b'\n') {
            let line = &self.read_buf[start..start + nl];
            start += nl + 1;
            let Ok(text) = std::str::from_utf8(line) else {
                self.inflight.push_back(InFlight::Ready(encode_error(
                    0,
                    &ServeError::Protocol("request line is not UTF-8".to_string()),
                )));
                continue;
            };
            let trimmed = text.trim();
            if !trimmed.is_empty() {
                self.inflight
                    .push_back(process_line(service, trimmed, self.conn));
            }
        }
        self.read_buf.drain(..start);
        if self.read_buf.len() > MAX_LINE_BYTES {
            self.inflight.push_back(InFlight::Ready(encode_error(
                0,
                &ServeError::Protocol(format!("request line exceeds {MAX_LINE_BYTES} bytes")),
            )));
            self.read_buf.clear();
            self.eof = true;
        }
    }

    /// Moves every response that is ready — preserving request order, so a
    /// still-pending head blocks later (even already-known) replies — into
    /// the write buffer.
    fn collect_responses(&mut self) {
        loop {
            let reply = match self.inflight.front() {
                None => return,
                Some(InFlight::Ready(_)) => {
                    let Some(InFlight::Ready(reply)) = self.inflight.pop_front() else {
                        unreachable!("front was just observed Ready");
                    };
                    reply
                }
                Some(InFlight::Pending { id, reply }) => match reply.poll() {
                    None => return,
                    Some(result) => {
                        let line = result.unwrap_or_else(|err| encode_error(*id, &err));
                        self.inflight.pop_front();
                        line
                    }
                },
            };
            self.write_buf.extend_from_slice(reply.as_bytes());
            self.write_buf.push(b'\n');
        }
    }

    /// Writes as much of the write buffer as the socket accepts.
    fn flush_ready(&mut self) {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.write_pos += n,
                Err(err) if err.kind() == ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.write_buf.clear();
        self.write_pos = 0;
    }
}

/// The readiness-driven front-end: one thread multiplexing the listener and
/// every connection, submitting requests to `service` and writing responses
/// back in request order.
fn event_loop<B>(service: &Arc<Service<B>>, listener: &TcpListener, shutdown: &AtomicBool)
where
    B: Backend + Clone + 'static,
{
    let mut connections: Vec<Connection> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut fds: Vec<PollFd> = Vec::new();
    let mut draining_since: Option<Instant> = None;

    loop {
        if shutdown.load(Ordering::Acquire) && draining_since.is_none() {
            draining_since = Some(Instant::now());
            // Stop reading; buffered partial lines can never complete now
            // and are deliberately discarded, not panicked over.
            for conn in &mut connections {
                conn.eof = true;
                conn.read_buf.clear();
            }
        }
        let draining = draining_since.is_some();
        if let Some(since) = draining_since {
            let all_drained = connections.iter().all(Connection::drained);
            if all_drained || since.elapsed() > SHUTDOWN_DRAIN {
                for conn in &connections {
                    service.drop_connection(conn.conn);
                }
                return;
            }
        }

        // One pollfd per live socket: the listener first (while accepting),
        // then every connection with its current interest set.
        fds.clear();
        let conn_base = usize::from(!draining);
        if !draining {
            fds.push(PollFd::new(fd_of(listener), POLLIN));
        }
        for conn in &connections {
            let mut events = 0i16;
            if !conn.eof {
                events |= POLLIN;
            }
            if conn.write_pos < conn.write_buf.len() {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(fd_of(&conn.stream), events));
        }
        let timeout = if connections.iter().any(Connection::has_pending) {
            INFLIGHT_POLL
        } else {
            IDLE_POLL
        };
        if poll::wait(&mut fds, timeout).is_err() {
            // A failing poll would spin the loop; back off instead.
            std::thread::sleep(IDLE_POLL);
        }

        // Service existing connections first — their indices line up with
        // the pollfd set built above; connections accepted below are polled
        // from the next tick on.
        for (i, conn) in connections.iter_mut().enumerate() {
            if fds[conn_base + i].readable() && !conn.eof {
                conn.read_ready(service, &mut scratch);
            }
            conn.collect_responses();
            conn.flush_ready();
        }
        connections.retain(|conn| {
            if conn.finished() {
                // Closing a connection invalidates its sessions: a
                // reconnecting client must re-open (and re-prime), never
                // resume another connection's state.
                service.drop_connection(conn.conn);
                false
            } else {
                true
            }
        });

        if !draining && fds[0].readable() {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_ok() {
                            // Responses are written as soon as they are
                            // collected, often in sub-MSS pieces; without
                            // nodelay, Nagle + the client's delayed ACK can
                            // stall every pipelined chunk by ~40 ms.
                            let _ = stream.set_nodelay(true);
                            connections
                                .push(Connection::new(stream, service.allocate_connection()));
                        }
                    }
                    Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                    Err(err) if err.kind() == ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
        }
    }
}

/// One decoded request line.  A line without `"v"` *is* the v2
/// `"type": "query"` envelope, so both dialects decode into the same
/// variants and share everything downstream.
enum Request {
    /// `{"cmd": "models"}`.
    Models,
    /// `{"cmd": "metrics"}`.
    Metrics,
    /// A one-shot query (a v1 line, or `"type": "query"`).
    Query(QueryRequest),
    /// `"type": "session_open"`.
    SessionOpen(SessionOpen),
    /// `"type": "delta"`: the session id and its evidence flips.
    Delta(u64, Vec<(usize, Option<bool>)>),
    /// `"type": "session_close"`: the session id.
    SessionClose(u64),
}

/// Parses one request line and either answers it immediately (commands,
/// malformed requests) or submits it to the service.
fn process_line<B>(service: &Service<B>, line: &str, conn: u64) -> InFlight
where
    B: Backend + Clone + 'static,
{
    let doc = match json::parse(line) {
        Ok(doc) => doc,
        Err(err) => return InFlight::Ready(encode_error(0, &ServeError::Protocol(err))),
    };
    let id = lenient_id(&doc);
    let dispatch = |request| {
        let reply = match request {
            Request::Models => return Ok(InFlight::Ready(models_reply(service))),
            Request::Metrics => return Ok(InFlight::Ready(metrics_reply(service))),
            Request::Query(request) => Reply::Query(service.submit(request)?),
            Request::SessionOpen(open) => Reply::Session(service.session_open(conn, open)?),
            Request::Delta(session, flips) => {
                Reply::Session(service.session_delta(conn, session, id, flips)?)
            }
            Request::SessionClose(session) => {
                Reply::Session(service.session_close(conn, session, id)?)
            }
        };
        Ok(InFlight::Pending { id, reply })
    };
    decode(&doc)
        .and_then(dispatch)
        .unwrap_or_else(|err| InFlight::Ready(encode_error(id, &err)))
}

/// Decodes one parsed line into the request it carries: a `{"cmd": ...}`
/// introspection line, or an envelope dispatched on `"type"` — which a
/// line without `"v"` (protocol v1) leaves implicit as `"query"`.
fn decode(doc: &Value) -> Result<Request, ServeError> {
    if let Some(cmd) = doc.get("cmd") {
        return match as_str(cmd, "cmd")? {
            "models" => Ok(Request::Models),
            "metrics" => Ok(Request::Metrics),
            other => Err(ServeError::Protocol(format!("unknown command {other:?}"))),
        };
    }
    let kind = match doc.get("v") {
        None => "query",
        Some(Value::Num(v)) if *v == 2.0 => str_field(doc, "type")?,
        Some(_) => {
            return Err(ServeError::Protocol(
                "field \"v\" must be the number 2".to_string(),
            ))
        }
    };
    match kind {
        "query" => decode_request(doc).map(Request::Query),
        "session_open" => decode_session_open(doc).map(Request::SessionOpen),
        "delta" => Ok(Request::Delta(
            u64_field(doc, "session")?,
            decode_flips(doc)?,
        )),
        "session_close" => u64_field(doc, "session").map(Request::SessionClose),
        other => Err(ServeError::Protocol(format!(
            "unknown message type {other:?}"
        ))),
    }
}

/// The reply to `{"cmd": "models"}`.
fn models_reply<B: Backend + Clone + 'static>(service: &Service<B>) -> String {
    Value::Obj(vec![
        ("ok".to_string(), Value::Bool(true)),
        (
            "models".to_string(),
            Value::Arr(
                service
                    .registry()
                    .models()
                    .into_iter()
                    .map(Value::Str)
                    .collect(),
            ),
        ),
    ])
    .to_json()
}

/// The reply to `{"cmd": "metrics"}`.
fn metrics_reply<B: Backend + Clone + 'static>(service: &Service<B>) -> String {
    Value::Obj(vec![
        ("ok".to_string(), Value::Bool(true)),
        (
            "metrics".to_string(),
            Value::Arr(service.metrics().iter().map(metrics_value).collect()),
        ),
        (
            "sessions".to_string(),
            session_stats_value(&service.session_stats()),
        ),
    ])
    .to_json()
}

/// The request id echoed in replies, read leniently: a missing or
/// non-numeric `"id"` is 0, so even a malformed line gets an answer.
fn lenient_id(doc: &Value) -> u64 {
    doc.get("id")
        .and_then(Value::as_f64)
        .map(|n| n as u64)
        .unwrap_or(0)
}

fn field<'a>(doc: &'a Value, key: &str) -> Result<&'a Value, ServeError> {
    doc.get(key)
        .ok_or_else(|| ServeError::Protocol(format!("missing field {key:?}")))
}

fn as_str<'a>(value: &'a Value, key: &str) -> Result<&'a str, ServeError> {
    value
        .as_str()
        .ok_or_else(|| ServeError::Protocol(format!("field {key:?} must be a string")))
}

fn str_field<'a>(doc: &'a Value, key: &str) -> Result<&'a str, ServeError> {
    as_str(field(doc, key)?, key)
}

/// An optional string field: `None` when absent, a protocol error when
/// present with any other type.
fn opt_str_field<'a>(doc: &'a Value, key: &str) -> Result<Option<&'a str>, ServeError> {
    doc.get(key).map(|value| as_str(value, key)).transpose()
}

fn u64_field(doc: &Value, key: &str) -> Result<u64, ServeError> {
    let n = field(doc, key)?
        .as_f64()
        .ok_or_else(|| ServeError::Protocol(format!("field {key:?} must be a number")))?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(ServeError::Protocol(format!(
            "field {key:?} must be a non-negative integer"
        )));
    }
    Ok(n as u64)
}

/// Decodes the optional `"numeric"` / `"precision"` fields into the model
/// variant they select (defaults: linear, f64).
fn variant_fields(doc: &Value) -> Result<ModelVariant, ServeError> {
    let numeric = match opt_str_field(doc, "numeric")? {
        None => NumericMode::Linear,
        Some(name) => NumericMode::from_name(name)?,
    };
    let precision = match opt_str_field(doc, "precision")? {
        None => Precision::F64,
        Some(name) => Precision::from_name(name)?,
    };
    Ok(ModelVariant::new(numeric, precision))
}

/// Decodes a v2 `session_open` envelope (see the module docs).
fn decode_session_open(doc: &Value) -> Result<SessionOpen, ServeError> {
    let id = u64_field(doc, "id")?;
    let session = u64_field(doc, "session")?;
    let model = str_field(doc, "model")?.to_string();
    let variant = variant_fields(doc)?;
    let evidence = wire::parse_row(str_field(doc, "row")?)?;
    Ok(SessionOpen {
        id,
        session,
        model,
        variant,
        evidence,
    })
}

/// Decodes the `"flips"` of a v2 `delta` envelope: `[variable,
/// observation]` pairs in the `'0'`/`'1'`/`'?'` row alphabet.
fn decode_flips(doc: &Value) -> Result<Vec<(usize, Option<bool>)>, ServeError> {
    let items = field(doc, "flips")?
        .as_arr()
        .ok_or_else(|| ServeError::Protocol("field \"flips\" must be an array".to_string()))?;
    let mut flips = Vec::with_capacity(items.len());
    for item in items {
        let pair = item
            .as_arr()
            .filter(|pair| pair.len() == 2)
            .ok_or_else(|| {
                ServeError::Protocol(
                    "field \"flips\" must hold [variable, observation] pairs".to_string(),
                )
            })?;
        let var = pair[0].as_f64().filter(|n| *n >= 0.0 && n.fract() == 0.0);
        let var = var.ok_or_else(|| {
            ServeError::Protocol("flip variable must be a non-negative integer".to_string())
        })? as usize;
        let obs = match pair[1].as_str() {
            Some("0") => Some(false),
            Some("1") => Some(true),
            Some("?") => None,
            _ => {
                return Err(ServeError::Protocol(
                    "flip observation must be \"0\", \"1\" or \"?\"".to_string(),
                ))
            }
        };
        flips.push((var, obs));
    }
    Ok(flips)
}

fn rows_field(doc: &Value, key: &str) -> Result<Vec<Evidence>, ServeError> {
    let items = field(doc, key)?
        .as_arr()
        .ok_or_else(|| ServeError::Protocol(format!("field {key:?} must be an array")))?;
    items
        .iter()
        .map(|item| {
            let row = item
                .as_str()
                .ok_or_else(|| ServeError::Protocol(format!("field {key:?} must hold strings")))?;
            wire::parse_row(row).map_err(ServeError::from)
        })
        .collect()
}

/// Decodes one request object (see the module docs for the schema).
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] for structural problems and
/// [`ServeError::Invalid`] for semantic ones (bad rows, bad mode).
pub fn decode_request(doc: &Value) -> Result<QueryRequest, ServeError> {
    let id = lenient_id(doc);
    let model = str_field(doc, "model")?.to_string();
    let mode = QueryMode::from_name(str_field(doc, "mode")?)?;
    let (rows, givens) = if mode == QueryMode::Conditional {
        (
            rows_field(doc, "targets")?,
            Some(rows_field(doc, "givens")?),
        )
    } else {
        (rows_field(doc, "rows")?, None)
    };
    let variant = variant_fields(doc)?;
    let mut spec = SampleSpec::default();
    if doc.get("seed").is_some() {
        spec.seed = u64_field(doc, "seed")?;
    }
    if doc.get("n_samples").is_some() {
        let n = u64_field(doc, "n_samples")?;
        spec.n_samples = u32::try_from(n).map_err(|_| {
            ServeError::Protocol("field \"n_samples\" must fit in 32 bits".to_string())
        })?;
    }
    if let Some(method) = opt_str_field(doc, "method")? {
        spec.method = SampleMethod::from_name(method)?;
    }
    let query = wire::build_query_with_spec(mode, &rows, givens.as_deref(), spec)?;
    Ok(QueryRequest {
        id,
        model,
        query,
        numeric: variant.numeric,
        precision: variant.precision,
    })
}

/// Encodes one request as a protocol line (without the trailing newline) —
/// the client-side counterpart of [`decode_request`].
pub fn encode_request(request: &QueryRequest) -> String {
    let mut fields = vec![
        ("id".to_string(), Value::Num(request.id as f64)),
        ("model".to_string(), Value::Str(request.model.clone())),
        (
            "mode".to_string(),
            Value::Str(request.query.mode().name().to_string()),
        ),
        (
            "numeric".to_string(),
            Value::Str(request.numeric.name().to_string()),
        ),
        (
            "precision".to_string(),
            Value::Str(request.precision.name()),
        ),
    ];
    let row_strings = |batch: &spn_core::EvidenceBatch| {
        Value::Arr(
            (0..batch.len())
                .map(|q| Value::Str(wire::format_evidence(&batch.to_evidence(q))))
                .collect(),
        )
    };
    match &request.query {
        spn_core::QueryBatch::Joint(b)
        | spn_core::QueryBatch::Marginal(b)
        | spn_core::QueryBatch::Map(b) => fields.push(("rows".to_string(), row_strings(b))),
        spn_core::QueryBatch::Conditional(c) => {
            // The numerator rows are target-merged-over-given; sending them
            // as targets with the same givens reproduces the identical
            // ConditionalBatch server-side (target wins on overlap).
            fields.push(("targets".to_string(), row_strings(c.numerator())));
            fields.push(("givens".to_string(), row_strings(c.denominator())));
        }
        spn_core::QueryBatch::Sample(s) | spn_core::QueryBatch::Expectation(s) => {
            fields.push(("rows".to_string(), row_strings(s.rows())));
            let spec = s.spec();
            // Seeds travel as JSON numbers, exact up to 2^53 (like ids).
            fields.push(("seed".to_string(), Value::Num(spec.seed as f64)));
            fields.push((
                "n_samples".to_string(),
                Value::Num(f64::from(spec.n_samples)),
            ));
            fields.push((
                "method".to_string(),
                Value::Str(spec.method.name().to_string()),
            ));
        }
    }
    Value::Obj(fields).to_json()
}

/// Encodes a successful response line.
pub fn encode_response(response: &QueryResponse) -> String {
    let mut fields = vec![
        ("id".to_string(), Value::Num(response.id as f64)),
        ("ok".to_string(), Value::Bool(true)),
        ("model".to_string(), Value::Str(response.model.clone())),
        (
            "mode".to_string(),
            Value::Str(response.mode.name().to_string()),
        ),
        (
            "numeric".to_string(),
            Value::Str(response.numeric.name().to_string()),
        ),
        (
            "precision".to_string(),
            Value::Str(response.precision.name()),
        ),
        (
            // Value::Num writes non-finite values as null, which is exactly
            // the protocol's encoding of a log-domain -inf (see module docs).
            "values".to_string(),
            Value::Arr(response.values.iter().map(|&v| Value::Num(v)).collect()),
        ),
    ];
    if let Some(assignments) = &response.assignments {
        fields.push((
            "assignments".to_string(),
            Value::Arr(
                assignments
                    .iter()
                    .map(|a| Value::Str(wire::format_assignment(a)))
                    .collect(),
            ),
        ));
    }
    if let Some(std_err) = &response.std_err {
        // Standard errors (and the derived 95% interval half-widths) are
        // always linear-scale, one per query — even under log numerics.
        fields.push((
            "std_err".to_string(),
            Value::Arr(std_err.iter().map(|&se| Value::Num(se)).collect()),
        ));
        fields.push((
            "ci95".to_string(),
            Value::Arr(std_err.iter().map(|&se| Value::Num(1.96 * se)).collect()),
        ));
        fields.push(("samples".to_string(), Value::Num(response.samples as f64)));
    }
    Value::Obj(fields).to_json()
}

/// Encodes an error response line.
pub(crate) fn encode_error(id: u64, err: &ServeError) -> String {
    Value::Obj(vec![
        ("id".to_string(), Value::Num(id as f64)),
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::Str(err.message())),
    ])
    .to_json()
}

/// Encodes a successful session-operation response line (open, delta or
/// close — they share one shape; see the module docs).
pub(crate) fn encode_session_response(response: &SessionResponse) -> String {
    Value::Obj(vec![
        ("id".to_string(), Value::Num(response.id as f64)),
        ("ok".to_string(), Value::Bool(true)),
        ("session".to_string(), Value::Num(response.session as f64)),
        ("model".to_string(), Value::Str(response.model.clone())),
        (
            "numeric".to_string(),
            Value::Str(response.variant.numeric.name().to_string()),
        ),
        (
            "precision".to_string(),
            Value::Str(response.variant.precision.name()),
        ),
        // Value::Num writes non-finite values as null — same convention as
        // the v1 `values` array (log-domain -inf, or the NaN of closing a
        // never-opened session).
        ("value".to_string(), Value::Num(response.value)),
        (
            "recomputed_ops".to_string(),
            Value::Num(response.recomputed_ops as f64),
        ),
        ("full_pass".to_string(), Value::Bool(response.full_pass)),
        ("incremental".to_string(), Value::Bool(response.incremental)),
        ("closed".to_string(), Value::Bool(response.closed)),
    ])
    .to_json()
}

/// Renders the global session counters for the `metrics` command reply.
fn session_stats_value(stats: &SessionStats) -> Value {
    Value::Obj(vec![
        ("opens".to_string(), Value::Num(stats.opens as f64)),
        ("deltas".to_string(), Value::Num(stats.deltas as f64)),
        ("closes".to_string(), Value::Num(stats.closes as f64)),
        ("evictions".to_string(), Value::Num(stats.evictions as f64)),
        ("errors".to_string(), Value::Num(stats.errors as f64)),
        (
            "full_pass_deltas".to_string(),
            Value::Num(stats.full_pass_deltas as f64),
        ),
        (
            "recomputed_ops".to_string(),
            Value::Num(stats.recomputed_ops as f64),
        ),
    ])
}

/// Decodes a response line back into a [`QueryResponse`] — the client-side
/// counterpart of [`encode_response`].
///
/// # Errors
///
/// Returns [`ServeError::Remote`] when the server answered `ok: false`, and
/// [`ServeError::Protocol`] when the line is not a valid response.
pub fn decode_response(line: &str) -> Result<QueryResponse, ServeError> {
    let doc = json::parse(line).map_err(ServeError::Protocol)?;
    let id = lenient_id(&doc);
    let ok = matches!(doc.get("ok"), Some(Value::Bool(true)));
    if !ok {
        let message = doc
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("unknown server error")
            .to_string();
        return Err(ServeError::Remote(message));
    }
    let model = str_field(&doc, "model")?.to_string();
    let mode = QueryMode::from_name(str_field(&doc, "mode")?)?;
    let ModelVariant { numeric, precision } = variant_fields(&doc)?;
    let values = field(&doc, "values")?
        .as_arr()
        .ok_or_else(|| ServeError::Protocol("field \"values\" must be an array".to_string()))?
        .iter()
        .map(|v| match v {
            // A log-domain structural zero travels as null (JSON has no
            // -Infinity literal).
            Value::Null if numeric == NumericMode::Log => Ok(f64::NEG_INFINITY),
            v => v
                .as_f64()
                .ok_or_else(|| ServeError::Protocol("non-numeric value".to_string())),
        })
        .collect::<Result<Vec<f64>, ServeError>>()?;
    let assignments = match doc.get("assignments") {
        None => None,
        Some(value) => {
            let rows = value.as_arr().ok_or_else(|| {
                ServeError::Protocol("field \"assignments\" must be an array".to_string())
            })?;
            Some(
                rows.iter()
                    .map(|row| {
                        let row = row.as_str().ok_or_else(|| {
                            ServeError::Protocol("assignments must hold strings".to_string())
                        })?;
                        let evidence = wire::parse_row(row)?;
                        (0..evidence.num_vars())
                            .map(|var| {
                                evidence.value(var).ok_or_else(|| {
                                    ServeError::Protocol(
                                        "assignments must be fully observed".to_string(),
                                    )
                                })
                            })
                            .collect::<Result<Vec<bool>, ServeError>>()
                    })
                    .collect::<Result<Vec<Vec<bool>>, ServeError>>()?,
            )
        }
    };
    let std_err = match doc.get("std_err") {
        None => None,
        Some(value) => Some(
            value
                .as_arr()
                .ok_or_else(|| {
                    ServeError::Protocol("field \"std_err\" must be an array".to_string())
                })?
                .iter()
                .map(|v| {
                    v.as_f64().ok_or_else(|| {
                        ServeError::Protocol("non-numeric standard error".to_string())
                    })
                })
                .collect::<Result<Vec<f64>, ServeError>>()?,
        ),
    };
    let samples = match doc.get("samples") {
        None => 0,
        Some(value) => value
            .as_f64()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .map(|n| n as u64)
            .ok_or_else(|| {
                ServeError::Protocol("field \"samples\" must be a non-negative integer".to_string())
            })?,
    };
    Ok(QueryResponse {
        id,
        model,
        mode,
        numeric,
        precision,
        values,
        assignments,
        std_err,
        samples,
    })
}

/// Renders one metrics record as a JSON object.
fn metrics_value(record: &MetricsRecord) -> Value {
    let s = &record.stats;
    Value::Obj(vec![
        ("model".to_string(), Value::Str(record.model.clone())),
        (
            "mode".to_string(),
            Value::Str(record.mode.name().to_string()),
        ),
        (
            "numeric".to_string(),
            Value::Str(record.numeric.name().to_string()),
        ),
        ("precision".to_string(), Value::Str(record.precision.name())),
        ("requests".to_string(), Value::Num(s.requests as f64)),
        ("errors".to_string(), Value::Num(s.errors as f64)),
        ("queries".to_string(), Value::Num(s.queries as f64)),
        ("samples".to_string(), Value::Num(s.samples as f64)),
        ("batches".to_string(), Value::Num(s.batches as f64)),
        (
            "coalesced_batches".to_string(),
            Value::Num(s.coalesced_batches as f64),
        ),
        (
            "max_batch_requests".to_string(),
            Value::Num(s.max_batch_requests as f64),
        ),
        (
            "max_batch_queries".to_string(),
            Value::Num(s.max_batch_queries as f64),
        ),
        (
            "mean_batch_queries".to_string(),
            Value::Num(s.mean_batch_queries()),
        ),
        (
            "mean_latency_ms".to_string(),
            Value::Num(s.mean_latency().as_secs_f64() * 1e3),
        ),
        (
            "max_latency_ms".to_string(),
            Value::Num(s.max_latency.as_secs_f64() * 1e3),
        ),
    ])
}
