//! What every workload shares: the run's arguments and report, repeated
//! set-up timing, and the equal-work slice loop the offline workloads
//! measure with.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::stats::{self, SliceRate};
use crate::trace::Tracer;

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run found.  Operations are engine calls, simulated
/// batches, TCP requests and the output checks around them; a mismatch is a
/// failed operation.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable context printed above the metrics.
    pub notes: Vec<String>,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Third over first quartile of the run's slice times.
    pub slice_spread: Option<f64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// Builds the workload's state.  The untraced run builds it several times
/// and reports the median as `setup_s` (one cold build says little on a
/// shared box); the traced run, which reports no set-up time, builds once.
pub fn setup<S>(
    args: &Args,
    report: &mut Report,
    budget: Duration,
    mut build: impl FnMut() -> S,
) -> S {
    if args.trace {
        return build();
    }
    let (state, seconds) = measure_setup(budget, build);
    report.set("setup_s", seconds);
    state
}

/// Repeats `build` at least `MIN_REPS` times and until `budget` is spent or
/// `MAX_REPS` reached; returns the last state built and the median time.
fn measure_setup<S>(budget: Duration, mut build: impl FnMut() -> S) -> (S, f64) {
    const MIN_REPS: usize = 3;
    const MAX_REPS: usize = 31;
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let state = build();
        times.push(t.elapsed().as_secs_f64());
        let reps = times.len();
        if reps >= MAX_REPS || (reps >= MIN_REPS && started.elapsed() >= budget) {
            return (state, stats::median(&times));
        }
        drop(state);
    }
}

/// One operation of a component (an engine call over a fixed batch, one
/// delta, one simulated batch): takes the tracer and the operation's id,
/// says whether its output checked out.
pub type Operation<'a> = Box<dyn FnMut(&mut Tracer, u64) -> bool + 'a>;

/// One independently rated part of an offline workload.
pub struct Component<'a> {
    pub name: String,
    /// Queries one operation answers.
    pub queries_per_op: f64,
    pub run: Operation<'a>,
}

/// Slice times of one component.
#[derive(Debug, Clone)]
pub struct ComponentResult {
    pub name: String,
    pub queries_per_op: f64,
    pub ops_per_slice: u64,
    pub slice_seconds: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
}

impl ComponentResult {
    pub fn rate(&self) -> SliceRate {
        stats::slice_rate(
            self.ops_per_slice as f64 * self.queries_per_op,
            &self.slice_seconds,
        )
    }
}

/// Measured slices per component in the untraced run, after one discarded
/// warm-up slice; the traced run's two halves take a third as many each.
pub const SLICES: usize = 30;
pub const TRACED_SLICES: usize = SLICES / 3;

/// Runs the components round-robin as `slices` equal-work slices each (plus
/// one discarded warm-up round) for about `seconds`, once per tracer:
/// rounds alternate between the tracers and each gets its own result set,
/// so a traced and an untraced measurement of the same components see the
/// same stretch of wall time and their ratio is the tracing overhead, not
/// the box's drift.
///
/// Each component is first rated for a moment to size its slice: a slice is
/// a fixed operation count, so slices of one component are equal work.  A
/// component whose single operation outlasts an even share of a round gets
/// one operation per slice and the others share what is left.  Round-robin
/// order makes every component sample the whole window — a slow spell on
/// the box lands on all of them rather than on whichever ran at the time.
pub fn run_slices(
    components: &mut [Component<'_>],
    seconds: f64,
    slices: usize,
    tracers: &mut [&mut Tracer],
) -> Vec<Vec<ComponentResult>> {
    let rounds = (slices + 1) * tracers.len();
    let round = seconds / rounds as f64;
    let even = round / components.len() as f64;
    let calibrate = Duration::from_secs_f64((even / 4.0).clamp(0.002, 0.05));
    let per_op: Vec<f64> = components
        .iter_mut()
        .map(|c| {
            let (start, mut ops) = (Instant::now(), 0u64);
            let mut silent = Tracer::new(false);
            while start.elapsed() < calibrate {
                (c.run)(&mut silent, 0);
                ops += 1;
            }
            start.elapsed().as_secs_f64() / ops as f64
        })
        .collect();
    let long: f64 = per_op.iter().filter(|&&t| t > even).sum();
    let short = per_op.iter().filter(|&&t| t <= even).count().max(1);
    let target = ((round - long) / short as f64).max(0.0);
    let arm: Vec<ComponentResult> = components
        .iter()
        .zip(&per_op)
        .map(|(c, per_op)| ComponentResult {
            name: c.name.clone(),
            queries_per_op: c.queries_per_op,
            ops_per_slice: ((target / per_op).round() as u64).max(1),
            slice_seconds: Vec::with_capacity(slices),
            ops: 0,
            failed: 0,
        })
        .collect();
    let mut results = vec![arm; tracers.len()];
    let mut op_id = 0u64;
    for round in 0..rounds {
        let arm = round % tracers.len();
        for (c, r) in components.iter_mut().zip(&mut results[arm]) {
            let mut failed = 0;
            let start = Instant::now();
            for _ in 0..r.ops_per_slice {
                op_id += 1;
                failed += u64::from(!(c.run)(tracers[arm], op_id));
            }
            let elapsed = start.elapsed().as_secs_f64();
            r.failed += failed;
            r.ops += r.ops_per_slice;
            // Each arm's first round is warm-up: checked, not timed.
            if round >= tracers.len() {
                r.slice_seconds.push(elapsed);
            }
        }
    }
    results
}

/// A workload's measurement, folded into the report.  Untraced: [`SLICES`]
/// slices without spans, giving the end-to-end figures.  Traced:
/// [`TRACED_SLICES`] slices with spans beside as many without, giving the
/// loadgen layer's view and the share of the rate the spans cost.  Returns
/// the component results the figures came from.
pub fn measure(
    args: &Args,
    components: &mut [Component<'_>],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Vec<ComponentResult> {
    let mut silent = Tracer::new(false);
    let results = if args.trace {
        let mut arms = run_slices(
            components,
            args.seconds,
            TRACED_SLICES,
            &mut [&mut silent, tracer],
        );
        let traced = arms.remove(1);
        report.set(
            "loadgen.trace_overhead_share",
            1.0 - summarize(&traced).queries_per_s / summarize(&arms[0]).queries_per_s,
        );
        traced
    } else {
        run_slices(components, args.seconds, SLICES, &mut [&mut silent]).remove(0)
    };
    report_offline(report, &results, args.trace);
    results
}

/// The end-to-end figures of an offline workload from its components, all
/// at fast-quartile speed.  An offline workload's "request" is one engine
/// call, whatever its batch size.
#[derive(Debug, Clone, Copy)]
pub struct OfflineSummary {
    /// Geometric mean of the components' query rates.
    pub queries_per_s: f64,
    /// Geometric mean of the components' call rates.
    pub requests_per_s: f64,
    /// Mean over the components of the time one call takes: what one call
    /// of each costs, so the slowest component weighs most (the geometric
    /// means above weigh all alike).
    pub latency_ms: f64,
    /// Share of slices that ran within twice their component's
    /// fast-quartile slice time: how much of the run was not stalled.
    pub within_limit_share: f64,
    /// Geometric mean of the median-slice query rates (diagnostic).
    pub rate_median: f64,
    /// Geometric mean of the components' q3/q1 slice-time ratios.
    pub slice_spread: f64,
}

pub fn summarize(results: &[ComponentResult]) -> OfflineSummary {
    let rates: Vec<SliceRate> = results.iter().map(ComponentResult::rate).collect();
    let calls_per_s = || {
        results
            .iter()
            .zip(&rates)
            .map(|(r, rate)| rate.fast / r.queries_per_op)
    };
    let slices: f64 = results.iter().map(|r| r.slice_seconds.len() as f64).sum();
    let within: f64 = results
        .iter()
        .zip(&rates)
        .map(|(r, rate)| rate.within_2x * r.slice_seconds.len() as f64)
        .sum();
    OfflineSummary {
        queries_per_s: stats::geomean(rates.iter().map(|r| r.fast)),
        requests_per_s: stats::geomean(calls_per_s()),
        latency_ms: calls_per_s().map(|c| 1e3 / c).sum::<f64>() / results.len() as f64,
        within_limit_share: within / slices,
        rate_median: stats::geomean(rates.iter().map(|r| r.median)),
        slice_spread: stats::geomean(rates.iter().map(|r| r.spread)),
    }
}

/// Folds slice results into the report: operation counts, the end-to-end
/// figures (untraced run) or the loadgen layer's view of them (traced run).
fn report_offline(report: &mut Report, results: &[ComponentResult], traced: bool) {
    for r in results {
        report.attempted += r.ops;
        if r.failed > 0 {
            report.failed += r.failed;
            report
                .failures
                .push(format!("{}: {} operations mismatched", r.name, r.failed));
        }
        let rate = r.rate();
        report.note(format!(
            "{:<16} {:>12.1} q/s fast-quartile  {:>12.1} q/s median  slice spread {:.3}  ({} ops/slice)",
            r.name, rate.fast, rate.median, rate.spread, r.ops_per_slice
        ));
    }
    let s = summarize(results);
    report.slice_spread = Some(s.slice_spread);
    if traced {
        report.set("loadgen.rate_median", s.rate_median);
        report.set("loadgen.slice_spread", s.slice_spread);
        let ops: u64 = results.iter().map(|r| r.ops).sum();
        let failed: u64 = results.iter().map(|r| r.failed).sum();
        report.set("loadgen.sent", ops as f64);
        report.set("loadgen.ok", (ops - failed) as f64);
        report.set("loadgen.failed", failed as f64);
        report.set(
            "loadgen.samples",
            results.iter().map(|r| r.slice_seconds.len()).sum::<usize>() as f64,
        );
    } else {
        report.set("queries_per_s", s.queries_per_s);
        report.set("requests_per_s", s.requests_per_s);
        report.set("latency_p50_ms", s.latency_ms);
        report.set("within_limit_share", s.within_limit_share);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_are_equal_work_and_the_warm_up_round_is_discarded() {
        let mut calls = [0u64; 2];
        let (a, b) = calls.split_at_mut(1);
        let mut components = vec![
            Component {
                name: "a".to_string(),
                queries_per_op: 4.0,
                run: Box::new(|_, _| {
                    a[0] += 1;
                    std::hint::black_box((0..2000).sum::<u64>()) > 0
                }),
            },
            Component {
                name: "b".to_string(),
                queries_per_op: 1.0,
                run: Box::new(|_, op| {
                    b[0] += 1;
                    op % 7 != 0
                }),
            },
        ];
        let args = Args {
            workload: "test".to_string(),
            seed: 0,
            seconds: 0.2,
            trace: false,
        };
        let mut report = Report::default();
        let results = measure(&args, &mut components, &mut Tracer::new(false), &mut report);
        drop(components);
        for r in &results {
            assert_eq!(r.slice_seconds.len(), SLICES);
            assert_eq!(r.ops, r.ops_per_slice * (SLICES as u64 + 1));
        }
        assert!(calls[0] > results[0].ops, "calibration calls come on top");
        assert_eq!(results[0].failed, 0);
        assert!(results[1].failed > 0);
        assert_eq!(report.attempted, results[0].ops + results[1].ops);
        assert_eq!(report.failed, results[1].failed);
        assert!(report.metrics["queries_per_s"] > 0.0);
        assert!((0.0..=1.0).contains(&report.metrics["within_limit_share"]));
    }

    #[test]
    fn setup_is_repeated_and_the_median_reported() {
        let mut builds = 0;
        let (state, seconds) = measure_setup(Duration::ZERO, || {
            builds += 1;
            builds
        });
        assert_eq!((state, builds), (3, 3));
        assert!(seconds >= 0.0);
    }
}
