//! Cycle-accurate execution traces: the hook, the recorder and the differ.
//!
//! A perf-model regression that shifts one commit by one cycle is invisible
//! to end-value tests — the program still computes the right number.  The
//! trace subsystem makes such regressions testable bit-for-bit:
//!
//! * [`TraceHook`] is the observation interface of the simulator's value
//!   replay.  The replay is generic over the hook and [`NoTrace`] (the
//!   default) has `ENABLED = false` with empty inline methods, so the
//!   untraced path records no events and runs eight queries side by side —
//!   zero cost when off.
//! * [`TraceRecorder`] implements the hook by recording one [`TraceEvent`]
//!   per active PE and per memory operation, tagged with a core id and a
//!   cycle offset so multi-core schedules interleave on a global timeline.
//! * [`TraceRecorder::render_into`] serialises events into a stable line-based
//!   text format (operands and results as exact `f64` bit patterns), which
//!   is committed under `tests/golden_traces/` and re-generated with
//!   `cargo run -p spn-bench --bin record_traces -- --bless`.
//! * [`diff_traces`] compares two renderings and reports the **first
//!   divergent line** with its cycle and surrounding context, so a schedule
//!   change is pinpointed to the cycle where it first manifests.
//!
//! Trace line grammar (one event per line):
//!
//! ```text
//! Q core=<c> q=<n>                                  query marker
//! C<cycle:05> core=<c> t<tree> pe<level>.<index> <Op> occ=<n> \
//!     a=<hex64> b=<hex64> r=<hex64> # <r as decimal>
//! C<cycle:05> core=<c> mem <load|store> row=<r> reg=<g>
//! ```

use crate::isa::PeOp;

/// Observation interface of the simulator's value replay.
///
/// `ENABLED` gates every observation site: when `false` (the [`NoTrace`]
/// implementation) the compiler removes the recording code entirely, so
/// tracing costs nothing unless a recorder is attached.
pub(crate) trait TraceHook {
    /// Whether observation sites should record anything at all.
    const ENABLED: bool;

    /// One PE executed `op` on operands `a`, `b` producing `result` in
    /// `cycle`.  `occupancy` is the number of active (non-`Nop`) PEs across
    /// the whole instruction that issued this operation.
    #[allow(clippy::too_many_arguments)]
    fn on_pe(
        &mut self,
        cycle: u64,
        tree: usize,
        level: usize,
        index: usize,
        op: PeOp,
        a: f64,
        b: f64,
        result: f64,
        occupancy: u32,
    );

    /// A data-memory row operation issued in `cycle` (`store = false` for
    /// loads).
    fn on_mem(&mut self, cycle: u64, store: bool, row: u32, reg: u16);

    /// Events that follow belong to batch query `index` (multi-core runners
    /// call this once per query; the default does nothing).
    fn on_query(&mut self, _index: u64) {}

    /// The simulator's local cycle 0 now corresponds to global cycle `cycle`
    /// (multi-core runners call this to place pipeline stages on the global
    /// timeline; the default does nothing).
    fn rebase(&mut self, _cycle: u64) {}
}

/// The default hook: observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NoTrace;

impl TraceHook for NoTrace {
    const ENABLED: bool = false;

    #[inline(always)]
    fn on_pe(
        &mut self,
        _cycle: u64,
        _tree: usize,
        _level: usize,
        _index: usize,
        _op: PeOp,
        _a: f64,
        _b: f64,
        _result: f64,
        _occupancy: u32,
    ) {
    }

    #[inline(always)]
    fn on_mem(&mut self, _cycle: u64, _store: bool, _row: u32, _reg: u16) {}
}

/// One recorded observation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TraceEvent {
    /// Start of a new query on this recorder's core.
    Query {
        /// Batch index of the query.
        index: u64,
    },
    /// A PE operation.
    Pe {
        /// Global cycle (recorder offset + simulator cycle).
        cycle: u64,
        /// Core the PE belongs to.
        core: u32,
        /// Tree within the core.
        tree: usize,
        /// PE level within the tree.
        level: usize,
        /// PE index within the level.
        index: usize,
        /// Opcode executed.
        op: PeOp,
        /// Left operand.
        a: f64,
        /// Right operand.
        b: f64,
        /// PE output (after precision quantization).
        result: f64,
        /// Active PEs in the issuing instruction.
        occupancy: u32,
    },
    /// A data-memory row operation.
    Mem {
        /// Global cycle.
        cycle: u64,
        /// Core issuing the operation.
        core: u32,
        /// `true` for stores, `false` for loads.
        store: bool,
        /// Row address.
        row: u32,
        /// Register index (same in every bank).
        reg: u16,
    },
}

/// Records per-cycle `TraceEvent`s for one core.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    core: u32,
    cycle_offset: u64,
    events: Vec<TraceEvent>,
}

impl TraceRecorder {
    /// A recorder tagging its events with `core`, starting at cycle 0.
    pub fn new(core: u32) -> Self {
        TraceRecorder {
            core,
            cycle_offset: 0,
            events: Vec::new(),
        }
    }

    /// The core id this recorder tags events with.
    pub fn core(&self) -> u32 {
        self.core
    }

    /// Sets the offset added to simulator-local cycles, placing subsequent
    /// events on the global multi-core timeline (e.g. the scheduled start
    /// cycle of a pipeline stage).
    pub(crate) fn set_cycle_offset(&mut self, offset: u64) {
        self.cycle_offset = offset;
    }

    /// Records a query marker: events that follow belong to batch query
    /// `index`.
    pub(crate) fn mark_query(&mut self, index: u64) {
        self.events.push(TraceEvent::Query { index });
    }

    /// The recorded events in issue order.
    #[cfg(test)]
    pub(crate) fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Renders the recorded events into `out`, one line per event.
    pub fn render_into(&self, out: &mut String) {
        use std::fmt::Write;
        for event in &self.events {
            match *event {
                TraceEvent::Query { index } => {
                    let _ = writeln!(out, "Q core={} q={}", self.core, index);
                }
                TraceEvent::Pe {
                    cycle,
                    core,
                    tree,
                    level,
                    index,
                    op,
                    a,
                    b,
                    result,
                    occupancy,
                } => {
                    let _ = writeln!(
                        out,
                        "C{cycle:05} core={core} t{tree} pe{level}.{index} {op:?} \
                         occ={occupancy:02} a={:016x} b={:016x} r={:016x} # {result}",
                        a.to_bits(),
                        b.to_bits(),
                        result.to_bits(),
                    );
                }
                TraceEvent::Mem {
                    cycle,
                    core,
                    store,
                    row,
                    reg,
                } => {
                    let kind = if store { "store" } else { "load" };
                    let _ = writeln!(
                        out,
                        "C{cycle:05} core={core} mem {kind} row={row} reg={reg}"
                    );
                }
            }
        }
    }

    /// Renders the recorded events as trace text.
    #[cfg(test)]
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }
}

impl TraceHook for TraceRecorder {
    const ENABLED: bool = true;

    fn on_pe(
        &mut self,
        cycle: u64,
        tree: usize,
        level: usize,
        index: usize,
        op: PeOp,
        a: f64,
        b: f64,
        result: f64,
        occupancy: u32,
    ) {
        self.events.push(TraceEvent::Pe {
            cycle: cycle + self.cycle_offset,
            core: self.core,
            tree,
            level,
            index,
            op,
            a,
            b,
            result,
            occupancy,
        });
    }

    fn on_mem(&mut self, cycle: u64, store: bool, row: u32, reg: u16) {
        self.events.push(TraceEvent::Mem {
            cycle: cycle + self.cycle_offset,
            core: self.core,
            store,
            row,
            reg,
        });
    }

    fn on_query(&mut self, index: u64) {
        self.mark_query(index);
    }

    fn rebase(&mut self, cycle: u64) {
        self.set_cycle_offset(cycle);
    }
}

/// First point where two trace texts disagree (see [`diff_traces`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDivergence {
    /// 1-based line number of the first differing line.
    pub line: usize,
    /// Cycle parsed from the divergent line, when it carries one.
    pub cycle: Option<u64>,
    /// The golden line (`"<end of trace>"` when the golden text is shorter).
    pub golden: String,
    /// The actual line (`"<end of trace>"` when the actual text is shorter).
    pub actual: String,
    /// Up to three matching lines preceding the divergence, for context.
    pub context: Vec<String>,
}

impl std::fmt::Display for TraceDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.cycle {
            Some(cycle) => writeln!(
                f,
                "traces diverge at line {} (first divergent cycle {}):",
                self.line, cycle
            )?,
            None => writeln!(f, "traces diverge at line {}:", self.line)?,
        }
        for ctx in &self.context {
            writeln!(f, "    {ctx}")?;
        }
        writeln!(f, "  - golden: {}", self.golden)?;
        write!(f, "  + actual: {}", self.actual)
    }
}

/// Parses the cycle number of a `C<cycle> ...` trace line.
fn line_cycle(line: &str) -> Option<u64> {
    let rest = line.strip_prefix('C')?;
    let digits: &str = &rest[..rest.find(' ').unwrap_or(rest.len())];
    digits.parse().ok()
}

/// Compares two trace texts line by line and returns the first divergence,
/// or `None` when they are identical.
pub fn diff_traces(golden: &str, actual: &str) -> Option<TraceDivergence> {
    const END: &str = "<end of trace>";
    let mut golden_lines = golden.lines();
    let mut actual_lines = actual.lines();
    let mut context: Vec<String> = Vec::new();
    let mut line = 0usize;
    loop {
        line += 1;
        let g = golden_lines.next();
        let a = actual_lines.next();
        match (g, a) {
            (None, None) => return None,
            (g, a) if g == a => {
                if let Some(g) = g {
                    if context.len() == 3 {
                        context.remove(0);
                    }
                    context.push(g.to_string());
                }
            }
            (g, a) => {
                let golden = g.unwrap_or(END).to_string();
                let actual = a.unwrap_or(END).to_string();
                let cycle = line_cycle(&golden).or_else(|| line_cycle(&actual));
                return Some(TraceDivergence {
                    line,
                    cycle,
                    golden,
                    actual,
                    context,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_recorder() -> TraceRecorder {
        let mut rec = TraceRecorder::new(1);
        rec.mark_query(0);
        rec.on_mem(0, false, 3, 0);
        rec.on_pe(1, 0, 0, 2, PeOp::Mul, 0.5, 2.0, 1.0, 4);
        rec
    }

    #[test]
    fn renders_stable_lines() {
        let text = sample_recorder().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "Q core=1 q=0");
        assert_eq!(lines[1], "C00000 core=1 mem load row=3 reg=0");
        assert_eq!(
            lines[2],
            format!(
                "C00001 core=1 t0 pe0.2 Mul occ=04 a={:016x} b={:016x} r={:016x} # 1",
                0.5f64.to_bits(),
                2.0f64.to_bits(),
                1.0f64.to_bits()
            )
        );
    }

    #[test]
    fn cycle_offset_shifts_recorded_cycles() {
        let mut rec = TraceRecorder::new(0);
        rec.set_cycle_offset(100);
        rec.on_mem(2, true, 1, 5);
        assert_eq!(rec.render(), "C00102 core=0 mem store row=1 reg=5\n");
    }

    #[test]
    fn identical_traces_do_not_diverge() {
        let text = sample_recorder().render();
        assert_eq!(diff_traces(&text, &text), None);
    }

    #[test]
    fn divergence_reports_first_differing_cycle_with_context() {
        let golden = sample_recorder().render();
        let mut other = sample_recorder();
        other.on_pe(2, 0, 1, 0, PeOp::Add, 1.0, 1.0, 2.0, 1);
        let longer = other.render();

        // Extra trailing line: divergence at the end of the golden text.
        let div = diff_traces(&golden, &longer).expect("must diverge");
        assert_eq!(div.line, 4);
        assert_eq!(div.golden, "<end of trace>");
        assert_eq!(div.cycle, Some(2));
        assert_eq!(div.context.len(), 3);

        // A changed operand diverges at its line, not at the end.
        let perturbed = golden.replace("row=3", "row=4");
        let div = diff_traces(&golden, &perturbed).expect("must diverge");
        assert_eq!(div.line, 2);
        assert_eq!(div.cycle, Some(0));
        assert!(div.to_string().contains("first divergent cycle 0"));
        assert!(div.to_string().contains("- golden"));
    }

    #[test]
    fn no_trace_is_a_zero_sized_no_op() {
        assert_eq!(std::mem::size_of::<NoTrace>(), 0);
        fn enabled<H: TraceHook>() -> bool {
            H::ENABLED
        }
        assert!(!enabled::<NoTrace>());
        assert!(enabled::<TraceRecorder>());
        let mut hook = NoTrace;
        hook.on_pe(0, 0, 0, 0, PeOp::Add, 1.0, 2.0, 3.0, 1);
        hook.on_mem(0, false, 0, 0);
    }
}
