//! Per-model / per-mode serving counters.
//!
//! Every dispatched micro-batch and every completed request lands in a
//! [`Metrics`] sink keyed by `(model, query mode, numeric mode, precision)`
//! — the same key the micro-batcher coalesces on, so linear and log traffic
//! of one model (whose kernels differ ~2x in cost), and full- versus
//! reduced-precision traffic, never blur into one row.  The
//! counters answer the two operational questions of a batching server: *is
//! coalescing happening* (batches, coalesced batches, mean/max batch size)
//! and *what latency are requests paying for it* (total/max wall-clock from
//! submit to response).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use spn_core::{NumericMode, Precision, QueryMode};

/// Counters of one `(model, query mode, numeric mode, precision)` key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModeStats {
    /// Requests answered (successfully or not).
    pub requests: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Individual queries answered (a request may carry many rows).
    pub queries: u64,
    /// Monte-Carlo samples drawn answering approximate-mode requests
    /// (`sample` / `expectation`); zero on exact-mode rows.
    pub samples: u64,
    /// Micro-batches dispatched to an engine.
    pub batches: u64,
    /// Micro-batches that coalesced more than one request.
    pub coalesced_batches: u64,
    /// Largest number of requests coalesced into one batch.
    pub max_batch_requests: u64,
    /// Largest number of queries dispatched in one batch.
    pub max_batch_queries: u64,
    /// Summed submit-to-response latency over all requests.
    pub total_latency: Duration,
    /// Largest single-request submit-to-response latency.
    pub max_latency: Duration,
}

impl ModeStats {
    /// Mean queries per dispatched batch (0 when nothing ran).
    pub(crate) fn mean_batch_queries(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.queries as f64 / self.batches as f64
        }
    }

    /// Mean submit-to-response latency (zero when nothing ran).
    pub fn mean_latency(&self) -> Duration {
        if self.requests == 0 {
            Duration::ZERO
        } else {
            self.total_latency / u32::try_from(self.requests).unwrap_or(u32::MAX)
        }
    }
}

/// One `(model, query mode, numeric mode, precision)` row of a metrics
/// snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRecord {
    /// Model name.
    pub model: String,
    /// Query mode.
    pub mode: QueryMode,
    /// Numeric execution domain.
    pub numeric: NumericMode,
    /// Emulated PE arithmetic format.
    pub precision: Precision,
    /// The counters.
    pub stats: ModeStats,
}

/// Counter rows keyed by the full `(model, mode, numeric, precision)`
/// variant — the enums' derived `Ord` gives snapshots a stable sort without
/// allocating key strings on the per-request hot path.
type StatsMap = BTreeMap<(String, QueryMode, NumericMode, Precision), ModeStats>;

/// Global counters of the per-session delta path (wire v2 `session_open` /
/// `delta` traffic).  Sessions are keyed per connection, so unlike the
/// batched counters these aggregate across models: the operational
/// questions they answer — *are deltas actually taking the incremental
/// path* and *how much of the circuit do they re-execute* — are properties
/// of the serving process, not of one model row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sessions opened (each pays one full priming pass).
    pub opens: u64,
    /// Delta requests answered (successfully or not).
    pub deltas: u64,
    /// Sessions closed by the client.
    pub closes: u64,
    /// Sessions evicted (capacity pressure or connection drop).
    pub evictions: u64,
    /// Session operations that answered with an error.
    pub errors: u64,
    /// Deltas that fell back to a full re-evaluation (dense flip sets or a
    /// backend without cone support).
    pub full_pass_deltas: u64,
    /// Total operations re-executed by delta requests (full passes
    /// included); divide by `deltas` for the mean incremental cone size.
    pub recomputed_ops: u64,
}

/// Lock-free accumulator behind [`SessionStats`].
#[derive(Debug, Default)]
struct SessionCounters {
    opens: AtomicU64,
    deltas: AtomicU64,
    closes: AtomicU64,
    evictions: AtomicU64,
    errors: AtomicU64,
    full_pass_deltas: AtomicU64,
    recomputed_ops: AtomicU64,
}

/// Thread-safe metrics sink shared by the batcher workers and front-ends.
#[derive(Debug, Default)]
pub struct Metrics {
    inner: Mutex<StatsMap>,
    sessions: SessionCounters,
}

impl Metrics {
    /// Creates an empty sink.
    pub(crate) fn new() -> Metrics {
        Metrics::default()
    }

    fn with_stats(
        &self,
        model: &str,
        mode: QueryMode,
        numeric: NumericMode,
        precision: Precision,
        update: impl FnOnce(&mut ModeStats),
    ) {
        let mut inner = self.inner.lock().expect("metrics lock");
        let entry = inner
            .entry((model.to_string(), mode, numeric, precision))
            .or_default();
        update(entry);
    }

    /// Records one dispatched micro-batch of `requests` requests holding
    /// `queries` queries in total.
    pub(crate) fn record_batch(
        &self,
        model: &str,
        mode: QueryMode,
        numeric: NumericMode,
        precision: Precision,
        requests: u64,
        queries: u64,
    ) {
        self.with_stats(model, mode, numeric, precision, |stats| {
            stats.batches += 1;
            if requests > 1 {
                stats.coalesced_batches += 1;
            }
            stats.max_batch_requests = stats.max_batch_requests.max(requests);
            stats.max_batch_queries = stats.max_batch_queries.max(queries);
        });
    }

    /// Records one answered request: its query count, how many Monte-Carlo
    /// samples answering it drew (zero for exact modes), submit-to-response
    /// latency, and whether it failed.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_request(
        &self,
        model: &str,
        mode: QueryMode,
        numeric: NumericMode,
        precision: Precision,
        queries: u64,
        samples: u64,
        latency: Duration,
        ok: bool,
    ) {
        self.with_stats(model, mode, numeric, precision, |stats| {
            stats.requests += 1;
            stats.queries += queries;
            stats.samples += samples;
            if !ok {
                stats.errors += 1;
            }
            stats.total_latency += latency;
            stats.max_latency = stats.max_latency.max(latency);
        });
    }

    /// Records one opened session.
    pub(crate) fn record_session_open(&self) {
        self.sessions.opens.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one answered delta: how many operations it re-executed,
    /// whether it ran a full pass, and whether it failed.
    pub(crate) fn record_session_delta(&self, recomputed_ops: u64, full_pass: bool, ok: bool) {
        self.sessions.deltas.fetch_add(1, Ordering::Relaxed);
        self.sessions
            .recomputed_ops
            .fetch_add(recomputed_ops, Ordering::Relaxed);
        if full_pass {
            self.sessions
                .full_pass_deltas
                .fetch_add(1, Ordering::Relaxed);
        }
        if !ok {
            self.sessions.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one client-closed session.
    pub(crate) fn record_session_close(&self) {
        self.sessions.closes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one evicted session (capacity pressure or connection drop).
    pub(crate) fn record_session_eviction(&self) {
        self.sessions.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one failed session open (counted under both opens and
    /// errors).
    pub(crate) fn record_session_error(&self) {
        self.sessions.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A copy of the global session counters.
    pub(crate) fn session_stats(&self) -> SessionStats {
        SessionStats {
            opens: self.sessions.opens.load(Ordering::Relaxed),
            deltas: self.sessions.deltas.load(Ordering::Relaxed),
            closes: self.sessions.closes.load(Ordering::Relaxed),
            evictions: self.sessions.evictions.load(Ordering::Relaxed),
            errors: self.sessions.errors.load(Ordering::Relaxed),
            full_pass_deltas: self.sessions.full_pass_deltas.load(Ordering::Relaxed),
            recomputed_ops: self.sessions.recomputed_ops.load(Ordering::Relaxed),
        }
    }

    /// A consistent copy of every `(model, query mode, numeric mode,
    /// precision)` row, sorted by model name, then mode, then numeric mode,
    /// then precision (each in declaration order).
    pub(crate) fn snapshot(&self) -> Vec<MetricsRecord> {
        let inner = self.inner.lock().expect("metrics lock");
        inner
            .iter()
            .map(|((model, mode, numeric, precision), stats)| MetricsRecord {
                model: model.clone(),
                mode: *mode,
                numeric: *numeric,
                precision: *precision,
                stats: stats.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_and_requests_accumulate() {
        let lin = NumericMode::Linear;
        let f64p = Precision::F64;
        let metrics = Metrics::new();
        metrics.record_batch("m", QueryMode::Marginal, lin, f64p, 3, 12);
        metrics.record_batch("m", QueryMode::Marginal, lin, f64p, 1, 4);
        metrics.record_request(
            "m",
            QueryMode::Marginal,
            lin,
            f64p,
            12,
            0,
            Duration::from_millis(2),
            true,
        );
        metrics.record_request(
            "m",
            QueryMode::Marginal,
            lin,
            f64p,
            4,
            0,
            Duration::from_millis(6),
            false,
        );
        metrics.record_batch("m", QueryMode::Map, lin, f64p, 1, 1);
        // Approximate-mode rows accumulate their drawn sample counts.
        metrics.record_request(
            "m",
            QueryMode::Expectation,
            lin,
            f64p,
            2,
            2000,
            Duration::from_millis(1),
            true,
        );
        // Log-domain traffic of the same (model, query mode) gets its own row.
        metrics.record_batch("m", QueryMode::Marginal, NumericMode::Log, f64p, 1, 2);
        // Reduced-precision traffic of the same (model, mode, numeric) does
        // too.
        metrics.record_batch("m", QueryMode::Marginal, lin, Precision::E8M10, 1, 5);

        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.len(), 5);
        let approximate = snapshot
            .iter()
            .find(|r| r.mode == QueryMode::Expectation)
            .unwrap();
        assert_eq!(approximate.stats.samples, 2000);
        assert_eq!(approximate.stats.queries, 2);
        let reduced = snapshot
            .iter()
            .find(|r| r.precision == Precision::E8M10)
            .unwrap();
        assert_eq!(reduced.numeric, lin);
        assert_eq!(reduced.stats.batches, 1);
        assert_eq!(reduced.stats.max_batch_queries, 5);
        let log = snapshot
            .iter()
            .find(|r| r.numeric == NumericMode::Log)
            .unwrap();
        assert_eq!(log.mode, QueryMode::Marginal);
        assert_eq!(log.stats.batches, 1);
        let marginal = snapshot
            .iter()
            .find(|r| r.mode == QueryMode::Marginal && r.numeric == lin && r.precision == f64p)
            .unwrap();
        assert_eq!(marginal.model, "m");
        assert_eq!(marginal.stats.batches, 2);
        assert_eq!(marginal.stats.coalesced_batches, 1);
        assert_eq!(marginal.stats.max_batch_requests, 3);
        assert_eq!(marginal.stats.max_batch_queries, 12);
        assert_eq!(marginal.stats.requests, 2);
        assert_eq!(marginal.stats.errors, 1);
        assert_eq!(marginal.stats.queries, 16);
        assert_eq!(marginal.stats.mean_batch_queries(), 8.0);
        assert_eq!(marginal.stats.mean_latency(), Duration::from_millis(4));
        assert_eq!(marginal.stats.max_latency, Duration::from_millis(6));
    }
}
