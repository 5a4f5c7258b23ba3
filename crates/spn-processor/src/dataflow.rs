//! The value half of the simulator: a checked program replayed as a
//! dataflow list.
//!
//! The processor has no interlocks, so once [`crate::Processor::check`] has
//! accepted a program, which value every register read sees is fixed by the
//! instruction stream, whatever the inputs.  [`Dataflow::lower`] finds out
//! once per plan (a [`crate::CheckedProgram`] keeps the result) by walking
//! the instructions in the order the machine executes a cycle — the load,
//! the crossbar reads and PE levels of each tree, the write-backs (of two
//! writes in flight to one register the later commit stays), the copies,
//! the store — while tracking which *slot* each register and memory word
//! holds:
//!
//! * slot 0 holds `0.0`: `Nop` outputs, `None`/`Zero` reads, unwritten
//!   registers and words;
//! * slot 1 holds `1.0`;
//! * input `i` has slot `2 + i`;
//! * every arithmetic PE gets a fresh slot, and `PassA`/`PassB` alias their
//!   operand's (forwarding is exact in every format).
//!
//! What is left is a list of steps `(op, a, b, dst)` — [`apply_pe`] on two
//! slots into a third — plus the slots of the output and the exports.
//! [`Dataflow::recycle`] then puts the steps in an order that keeps one
//! opcode for as long as a step of it is ready ([`run_order`]) and cuts
//! that order into *runs* of one opcode, so the replay matches an opcode
//! once per run instead of once per step.  It also renames the slots so
//! that the scratch holds the values live at once instead of one word per
//! input and PE: the inputs a run reads are scattered together, as one
//! input run just before it, and a slot whose value has been read for the
//! last time takes the next value.  An input no step, output or export
//! reads is never scattered, so [`Dataflow::inputs_read`] names every input
//! a replay looks at, and a lane tile only needs those filled.
//! [`Dataflow::run_block`] replays the runs for `L` queries side by side
//! (`L` of 1, 2, 4 or 8), reading their inputs from a lane-minor tile
//! (`tile[input * L + lane]`, the layout of `spn_core`'s lane-block fill),
//! so a query costs the circuit's arithmetic rather than the machine's
//! width and each input step is one `L`-wide copy.  [`Dataflow::run`]
//! takes query-major input vectors instead, and its input steps gather
//! each input's `L` values from them.
//!
//! Traced and untraced runs replay the same list.  A traced run goes at
//! `L = 1`, writes each step's result at its slot of the walk as it is
//! computed, and after the query emits the events the walk recorded from
//! those values.

use crate::config::ProcessorConfig;
use crate::isa::{MemOp, PeOp, Program, ReadSel, TreeInstr, ValueLocation};
use crate::precision::Precision;
use crate::processor::{Processor, SimState};
use crate::trace::{NoTrace, TraceHook};
use crate::tree::apply_pe;
use crate::Result;

/// The widest block a replay runs side by side; what is left over runs in
/// the next narrower powers of two.
const LANES: usize = 8;

/// The widest block for `remaining` (at least one) queries: the largest
/// power of two up to [`LANES`].
fn block_width(remaining: usize) -> usize {
    (1 << remaining.ilog2()).min(LANES)
}

/// The slot holding `0.0`.
const ZERO: u32 = 0;
/// The slot holding `1.0`.
const ONE: u32 = 1;
/// The slot of input 0.
const FIRST_INPUT: usize = 2;

/// The inputs of the `L` queries a replay runs side by side, `inputs × L`
/// values either way.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Inputs<'a> {
    /// A lane-minor tile: input `i` of lane `l` at `tile[i * L + l]`, the
    /// layout of `spn_core`'s lane-block fill.
    Tile(&'a [f64]),
    /// Query-major input vectors: input `i` of lane `l` at
    /// `rows[l * inputs + i]`.
    Rows(&'a [f64]),
}

/// What the steps of a [`Run`] write into their slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// The query's input `a`.
    Input,
    /// An arithmetic PE on the values of slots `a` and `b`.
    Pe(PeOp),
}

/// One value of a query: its run's [`Op`] on `a` and `b` into slot `dst`.
#[derive(Debug, Clone, Copy)]
struct Step {
    a: u32,
    b: u32,
    dst: u32,
}

/// Consecutive steps with one [`Op`]: those from the previous run's `end`
/// up to this one's.
#[derive(Debug, Clone, Copy)]
struct Run {
    op: Op,
    end: u32,
}

/// An arithmetic step of the walk: `op` on the walk's slots `a` and `b`.
/// The `k`-th writes the walk's slot `2 + inputs + k`.
#[derive(Debug, Clone, Copy)]
struct Walked {
    op: PeOp,
    a: u32,
    b: u32,
}

/// What [`Dataflow::lower`] collects while it walks the instructions.
struct Walk {
    /// The walk's slot of the first arithmetic step: `2 + inputs`.
    first: u32,
    steps: Vec<Walked>,
    events: Vec<Event>,
}

/// An observation a traced run reports, with slots in place of values.
#[derive(Debug, Clone, Copy)]
enum Event {
    Pe {
        cycle: u64,
        tree: usize,
        level: usize,
        index: usize,
        op: PeOp,
        a: u32,
        b: u32,
        result: u32,
        occupancy: u32,
    },
    Mem {
        cycle: u64,
        store: bool,
        row: u32,
        reg: u16,
    },
}

/// A checked program as straight-line arithmetic over value slots.
#[derive(Debug, Clone)]
pub(crate) struct Dataflow {
    /// The replay's steps, run after run.
    steps: Vec<Step>,
    /// The runs `steps` is cut into, in replay order.
    runs: Vec<Run>,
    inputs: usize,
    output: u32,
    exports: Vec<u32>,
    /// Slots the replay writes: the constants and the values live at once.
    slots: usize,
    /// Slots of the walk: the constants, the inputs and one per arithmetic
    /// step.  The events name these.
    walk_slots: usize,
    /// One per non-`Nop` PE and per memory operation, in issue order, with
    /// the slots of the walk; empty unless lowered for a trace.
    events: Vec<Event>,
    /// Per step, the slot of the walk holding its value, where a traced
    /// replay keeps it; empty unless lowered for a trace.
    walk: Vec<u32>,
    precision: Precision,
}

impl Dataflow {
    /// The dataflow of `program` once `processor` has accepted it
    /// ([`Processor::check`]): the only way to a `Dataflow`, so no lowering
    /// meets an illegal program.  `traced` also records the events a
    /// [`TraceHook`] sees; the steps are the same either way.
    ///
    /// # Errors
    ///
    /// The first [`crate::ProcessorError`] of the check.
    pub(crate) fn checked(processor: &Processor, program: &Program, traced: bool) -> Result<Self> {
        processor.check(program)?;
        Ok(Dataflow::lower(program, traced))
    }

    /// The one symbolic walk over a checked program (see
    /// [`Dataflow::checked`]).
    fn lower(program: &Program, traced: bool) -> Dataflow {
        let config = &program.config;
        let banks = config.total_banks();
        let regs_per_bank = config.regs_per_bank;
        let inputs = program.input_layout.len();
        let mut walk = Walk {
            first: (FIRST_INPUT + inputs) as u32,
            steps: Vec::with_capacity(program.num_source_ops),
            events: Vec::new(),
        };
        // Per register: its slot and the commit cycle of the write that
        // left it there.
        let mut regs = vec![(ZERO, 0u64); config.total_registers()];
        let mut memory = vec![ZERO; program.memory_rows_used * banks];
        for (i, slot) in program.input_layout.iter().enumerate() {
            memory[slot.row as usize * banks + slot.lane as usize] = (FIRST_INPUT + i) as u32;
        }
        let write = |regs: &mut [(u32, u64)], bank: usize, reg: u16, slot: u32, commit: u64| {
            let held = &mut regs[bank * regs_per_bank + reg as usize];
            if commit >= held.1 {
                *held = (slot, commit);
            }
        };
        let pes = config.num_pes() / config.num_trees;
        let mut crossbar = vec![ZERO; config.tree_inputs_per_tree()];
        let mut outputs = vec![ZERO; config.num_pes()];

        for (cycle, instr) in program.instructions.iter().enumerate() {
            let cycle = cycle as u64;
            if let MemOp::Load { row, reg } = instr.mem {
                if traced {
                    walk.events.push(Event::Mem {
                        cycle,
                        store: false,
                        row,
                        reg,
                    });
                }
                let words = &memory[row as usize * banks..][..banks];
                for (bank, &slot) in words.iter().enumerate() {
                    write(&mut regs, bank, reg, slot, cycle);
                }
            }

            // All reads of the cycle come before its write-backs.  An idle
            // tree writes nothing back, so its outputs are never looked at.
            let occupancy = if traced {
                let active = instr.trees.iter().flat_map(|t| &t.pe_ops);
                active.filter(|&&op| op != PeOp::Nop).count() as u32
            } else {
                0
            };
            let trees = instr.trees.iter().zip(outputs.chunks_exact_mut(pes));
            for (tree_idx, (tree, out)) in trees.enumerate() {
                if tree.is_nop() {
                    continue;
                }
                for (slot, sel) in crossbar.iter_mut().zip(&tree.reads) {
                    *slot = match *sel {
                        ReadSel::None | ReadSel::Zero => ZERO,
                        ReadSel::One => ONE,
                        ReadSel::Reg { bank, reg } => {
                            regs[bank as usize * regs_per_bank + reg as usize].0
                        }
                    };
                }
                let at = (cycle, tree_idx, occupancy);
                walk.tree(config, &tree.pe_ops, &crossbar, out, traced.then_some(at));
            }

            let trees = instr.trees.iter().zip(outputs.chunks_exact(pes));
            for (tree, out) in trees {
                for w in &tree.writes {
                    let level = w.level as usize;
                    let slot = out[TreeInstr::pe_flat_index(config, level, w.pe as usize)];
                    let commit = cycle + config.commit_latency(level);
                    write(&mut regs, w.bank as usize, w.reg, slot, commit);
                }
            }
            for copy in &instr.copies {
                let bank = copy.bank as usize;
                let slot = regs[bank * regs_per_bank + copy.src as usize].0;
                write(&mut regs, bank, copy.dst, slot, cycle);
            }
            if let MemOp::Store { row, reg } = instr.mem {
                if traced {
                    walk.events.push(Event::Mem {
                        cycle,
                        store: true,
                        row,
                        reg,
                    });
                }
                let words = &mut memory[row as usize * banks..][..banks];
                for (bank, word) in words.iter_mut().enumerate() {
                    *word = regs[bank * regs_per_bank + reg as usize].0;
                }
            }
        }

        let slot_at = |loc: &ValueLocation| match *loc {
            ValueLocation::Register { bank, reg } => {
                regs[bank as usize * regs_per_bank + reg as usize].0
            }
            ValueLocation::Memory { row, lane } => memory[row as usize * banks + lane as usize],
        };
        let mut flow = Dataflow {
            steps: Vec::new(),
            runs: Vec::new(),
            inputs,
            output: slot_at(&program.output),
            exports: program.exports.iter().map(&slot_at).collect(),
            slots: 0,
            walk_slots: walk.first as usize + walk.steps.len(),
            events: walk.events,
            walk: Vec::new(),
            precision: program.pe_precision,
        };
        flow.recycle(&walk.steps, walk.first, traced);
        flow
    }

    /// Renames the walk's slots so that the scratch holds only the values
    /// live at once, in the order of [`run_order`] cut into runs of one
    /// opcode.  The inputs a run reads first are scattered together, as
    /// one input run just before it (an input nothing reads is never
    /// scattered), and a slot whose value has been read for the last time
    /// takes the next value.  The constants keep their slots; the output
    /// and the exports are read after the last step, so an input among
    /// them is scattered in a last input run.  `traced` keeps each step's
    /// slot of the walk.
    fn recycle(&mut self, walk: &[Walked], first: u32, traced: bool) {
        const UNSET: u32 = u32::MAX;
        /// Per slot of the walk, its slot in the replay once it has one;
        /// the slots free for the next value; the slots handed out.
        struct Renamed {
            to: Vec<u32>,
            free: Vec<u32>,
            slots: u32,
        }
        impl Renamed {
            fn take(&mut self) -> u32 {
                self.free.pop().unwrap_or_else(|| {
                    self.slots += 1;
                    self.slots - 1
                })
            }

            /// Scatters `slot`, a constant or an input, into a slot of its
            /// own unless it has one.
            fn scatter(&mut self, slot: u32, flow: &mut Dataflow) {
                if self.to[slot as usize] == UNSET {
                    let dst = self.take();
                    self.to[slot as usize] = dst;
                    let a = slot - FIRST_INPUT as u32;
                    flow.steps.push(Step { a, b: 0, dst });
                    flow.walk.push(slot);
                }
            }
        }
        let order = run_order(walk, first);
        // Per slot of the walk: one past the position in `order` of the step
        // that reads it last (0: never read; `UNSET`: read after the last
        // step).
        let mut last = vec![0u32; self.walk_slots];
        for (position, &k) in (1..).zip(&order) {
            let step = walk[k as usize];
            last[step.a as usize] = position;
            last[step.b as usize] = position;
        }
        for &slot in std::iter::once(&self.output).chain(&self.exports) {
            last[slot as usize] = UNSET;
        }
        let mut renamed = Renamed {
            to: vec![UNSET; self.walk_slots],
            free: Vec::new(),
            slots: FIRST_INPUT as u32,
        };
        renamed.to[ZERO as usize] = ZERO;
        renamed.to[ONE as usize] = ONE;
        self.steps = Vec::with_capacity(walk.len() + self.inputs);
        self.walk = Vec::with_capacity(self.steps.capacity());
        let mut at = 0;
        while at < order.len() {
            let op = walk[order[at] as usize].op;
            let len = order[at..]
                .iter()
                .take_while(|&&k| walk[k as usize].op == op)
                .count();
            let run = &order[at..at + len];
            // A step's result has its slot by the time a later step reads
            // it, so only the inputs are left to scatter.
            let reads = run
                .iter()
                .flat_map(|&k| [walk[k as usize].a, walk[k as usize].b]);
            for slot in reads.filter(|&slot| slot < first) {
                renamed.scatter(slot, self);
            }
            self.end_run(Op::Input);
            for (position, &k) in (at as u32 + 1..).zip(run) {
                let step = walk[k as usize];
                let (a, b) = (renamed.to[step.a as usize], renamed.to[step.b as usize]);
                for (read, slot) in [(step.a as usize, a), (step.b as usize, b)] {
                    if read >= FIRST_INPUT && last[read] == position {
                        // Once per slot, however many of the two reads it is.
                        last[read] = 0;
                        renamed.free.push(slot);
                    }
                }
                let walked = first + k;
                let dst = renamed.take();
                renamed.to[walked as usize] = dst;
                if last[walked as usize] == 0 {
                    renamed.free.push(dst);
                }
                self.steps.push(Step { a, b, dst });
                self.walk.push(walked);
            }
            self.end_run(Op::Pe(op));
            at += len;
        }
        let results: Vec<u32> = std::iter::once(self.output)
            .chain(self.exports.iter().copied())
            .collect();
        for slot in results {
            renamed.scatter(slot, self);
        }
        self.end_run(Op::Input);
        self.output = renamed.to[self.output as usize];
        for slot in &mut self.exports {
            *slot = renamed.to[*slot as usize];
        }
        // The steps stay for the plan's life: they need not hold room for
        // the inputs left unread.
        self.steps.shrink_to_fit();
        if traced {
            self.walk.shrink_to_fit();
        } else {
            self.walk = Vec::new();
        }
        self.slots = renamed.slots as usize;
    }

    /// Closes the run of `op` that the steps since the last run make, if
    /// there are any.
    fn end_run(&mut self, op: Op) {
        let end = self.steps.len() as u32;
        if self.runs.last().map_or(0, |run| run.end) < end {
            self.runs.push(Run { op, end });
        }
    }

    /// The runs in replay order, each with its steps and (traced) their
    /// slots of the walk.
    fn runs(&self) -> impl Iterator<Item = (Op, &[Step], &[u32])> {
        let starts = std::iter::once(0).chain(self.runs.iter().map(|run| run.end));
        self.runs.iter().zip(starts).map(|(run, start)| {
            let range = start as usize..run.end as usize;
            let walk = self.walk.get(range.clone()).unwrap_or_default();
            (run.op, &self.steps[range], walk)
        })
    }

    /// The inputs a replay reads, ascending: those of its input steps.  A
    /// lane tile needs no other filled.
    pub(crate) fn inputs_read(&self) -> Vec<u32> {
        let mut read: Vec<u32> = self
            .runs()
            .filter(|&(op, _, _)| op == Op::Input)
            .flat_map(|(_, steps, _)| steps.iter().map(|step| step.a))
            .collect();
        read.sort_unstable();
        read
    }

    /// The number of runs the replay is cut into, input runs included.
    pub(crate) fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Replays the queries of `inputs` (query-major, one input vector
    /// each): their root values into `outputs` (one per query) and their
    /// exports into `exports` (query-major, one row of exports each).
    /// Untraced, blocks of [`LANES`] queries and then of the next narrower
    /// widths are replayed by [`Dataflow::run_block`], whose input steps
    /// gather straight from the block's input vectors.  A traced run goes
    /// one query at a time, calling `start` before each query and reporting
    /// its events to `hook` after it.
    pub(crate) fn run<H: TraceHook>(
        &self,
        inputs: &[f64],
        outputs: &mut [f64],
        exports: &mut [f64],
        state: &mut SimState,
        hook: &mut H,
        mut start: impl FnMut(&mut H, usize),
    ) {
        let (n, e) = (self.inputs, self.exports.len());
        let queries = outputs.len();
        // A traced query's values in the walk's slots: the constants, the
        // inputs, then one per arithmetic step.
        let mut values = Vec::new();
        let mut q = 0;
        while q < queries {
            let lanes = if H::ENABLED {
                1
            } else {
                block_width(queries - q)
            };
            let block = &inputs[q * n..(q + lanes) * n];
            let outputs = &mut outputs[q..q + lanes];
            let exports = &mut exports[q * e..(q + lanes) * e];
            if H::ENABLED {
                start(hook, q);
                values.clear();
                values.extend([0.0, 1.0]);
                values.extend_from_slice(block);
                values.resize(self.walk_slots, 0.0);
                let rows = Inputs::Rows(block);
                self.replay::<1, H>(rows, outputs, exports, &mut state.slots, &mut values);
                self.emit(&values, hook);
            } else {
                let rows = Inputs::Rows(block);
                self.run_block(lanes, rows, outputs, exports, &mut state.slots);
            }
            q += lanes;
        }
    }

    /// Replays the `lanes` queries of `inputs` (only the inputs of
    /// [`Dataflow::inputs_read`] are read): their root values into
    /// `outputs` and their exports into `exports` (query-major; rows past
    /// its length are not written).  `slots` is the replay's scratch, grown
    /// when this list needs more.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is not 1, 2, 4 or 8, `inputs` does not hold
    /// `inputs × lanes` values or `outputs` is not `lanes` long.
    pub(crate) fn run_block(
        &self,
        lanes: usize,
        inputs: Inputs<'_>,
        outputs: &mut [f64],
        exports: &mut [f64],
        slots: &mut Vec<f64>,
    ) {
        match lanes {
            1 => self.replay::<1, NoTrace>(inputs, outputs, exports, slots, &mut []),
            2 => self.replay::<2, NoTrace>(inputs, outputs, exports, slots, &mut []),
            4 => self.replay::<4, NoTrace>(inputs, outputs, exports, slots, &mut []),
            8 => self.replay::<8, NoTrace>(inputs, outputs, exports, slots, &mut []),
            other => panic!("unsupported lane width {other} (expected 1, 2, 4 or 8)"),
        }
    }

    /// The replay proper: one pass over the runs for the `L` queries of
    /// `inputs`, then their results; a traced pass writes each step's
    /// result at its slot of the walk in `values`.
    fn replay<const L: usize, H: TraceHook>(
        &self,
        inputs: Inputs<'_>,
        outputs: &mut [f64],
        exports: &mut [f64],
        slots: &mut Vec<f64>,
        values: &mut [f64],
    ) {
        let (Inputs::Tile(held) | Inputs::Rows(held)) = inputs;
        assert_eq!(held.len(), self.inputs * L, "inputs must be inputs x lanes");
        let need = self.slots * L;
        if slots.len() < need {
            slots.resize(need, 0.0);
        }
        let (slots, _) = slots[..need].as_chunks_mut::<L>();
        slots[ZERO as usize] = [0.0; L];
        slots[ONE as usize] = [1.0; L];
        if self.precision == Precision::F64 {
            self.pass::<L, false, H>(inputs, slots, values);
        } else {
            self.pass::<L, true, H>(inputs, slots, values);
        }
        self.results(slots, outputs, exports);
    }

    /// One pass over the runs, matching each run's opcode once.  Each arm
    /// hands [`apply_pe`] a constant opcode, and a full-precision program
    /// (`ROUND = false`) a constant format, so every arm compiles to a
    /// loop over its steps of a fixed-trip lane loop with no branch inside
    /// (a per-lane `match` on either runs several times slower).
    fn pass<const L: usize, const ROUND: bool, H: TraceHook>(
        &self,
        inputs: Inputs<'_>,
        slots: &mut [[f64; L]],
        values: &mut [f64],
    ) {
        let n = self.inputs;
        let precision = if ROUND {
            self.precision
        } else {
            Precision::F64
        };
        /// `write` for each step of a run; a traced pass keeps each result
        /// at the step's slot of the walk.
        #[inline(always)]
        fn each<const L: usize, H: TraceHook>(
            (steps, walk): (&[Step], &[u32]),
            slots: &mut [[f64; L]],
            values: &mut [f64],
            write: impl Fn(&mut [[f64; L]], &Step),
        ) {
            for (k, step) in steps.iter().enumerate() {
                write(slots, step);
                if H::ENABLED {
                    values[walk[k] as usize] = slots[step.dst as usize][0];
                }
            }
        }
        #[inline(always)]
        fn lanes<const L: usize>(
            op: PeOp,
            slots: &mut [[f64; L]],
            step: &Step,
            precision: Precision,
        ) {
            let (a, b) = (slots[step.a as usize], slots[step.b as usize]);
            for ((d, &x), &y) in slots[step.dst as usize].iter_mut().zip(&a).zip(&b) {
                *d = apply_pe(op, x, y, precision);
            }
        }
        for (op, steps, walk) in self.runs() {
            let steps = (steps, walk);
            match op {
                Op::Input => match inputs {
                    Inputs::Tile(tile) => each::<L, H>(steps, slots, values, |slots, step| {
                        let group = &tile[step.a as usize * L..][..L];
                        slots[step.dst as usize].copy_from_slice(group);
                    }),
                    Inputs::Rows(rows) => each::<L, H>(steps, slots, values, |slots, step| {
                        let input = step.a as usize;
                        slots[step.dst as usize] =
                            std::array::from_fn(|lane| rows[lane * n + input]);
                    }),
                },
                Op::Pe(PeOp::Add) => each::<L, H>(steps, slots, values, |slots, step| {
                    lanes(PeOp::Add, slots, step, precision);
                }),
                Op::Pe(PeOp::Mul) => each::<L, H>(steps, slots, values, |slots, step| {
                    lanes(PeOp::Mul, slots, step, precision);
                }),
                Op::Pe(PeOp::Max) => each::<L, H>(steps, slots, values, |slots, step| {
                    lanes(PeOp::Max, slots, step, precision);
                }),
                Op::Pe(PeOp::Lse) => each::<L, H>(steps, slots, values, |slots, step| {
                    lanes(PeOp::Lse, slots, step, precision);
                }),
                Op::Pe(op) => each::<L, H>(steps, slots, values, |slots, step| {
                    lanes(op, slots, step, precision);
                }),
            }
        }
    }

    /// The root values and exports of the `L` queries just replayed.
    fn results<const L: usize>(
        &self,
        slots: &[[f64; L]],
        outputs: &mut [f64],
        exports: &mut [f64],
    ) {
        outputs.copy_from_slice(&slots[self.output as usize]);
        if self.exports.is_empty() {
            return;
        }
        for (lane, row) in exports.chunks_exact_mut(self.exports.len()).enumerate() {
            for (value, &slot) in row.iter_mut().zip(&self.exports) {
                *value = slots[slot as usize][lane];
            }
        }
    }

    /// Reports one replayed query's events to `hook`, given its `values`
    /// in the walk's slots.
    fn emit<H: TraceHook>(&self, values: &[f64], hook: &mut H) {
        let value = |slot: u32| values[slot as usize];
        for event in &self.events {
            match *event {
                Event::Pe {
                    cycle,
                    tree,
                    level,
                    index,
                    op,
                    a,
                    b,
                    result,
                    occupancy,
                } => hook.on_pe(
                    cycle,
                    tree,
                    level,
                    index,
                    op,
                    value(a),
                    value(b),
                    value(result),
                    occupancy,
                ),
                Event::Mem {
                    cycle,
                    store,
                    row,
                    reg,
                } => hook.on_mem(cycle, store, row, reg),
            }
        }
    }
}

impl Walk {
    /// Lowers one tree: the slot of every PE output into `out`
    /// (level-major, as [`TreeInstr::pe_ops`]), a step per
    /// arithmetic PE.  A level-0 PE reads two crossbar inputs, a PE above
    /// the outputs of the two PEs directly below it.  `trace` — the
    /// cycle, the tree's index and the instruction's active PEs — records
    /// an event per non-`Nop` PE.
    fn tree(
        &mut self,
        config: &ProcessorConfig,
        pe_ops: &[PeOp],
        crossbar: &[u32],
        out: &mut [u32],
        trace: Option<(u64, usize, u32)>,
    ) {
        let (mut start, mut below) = (0, 0);
        for level in 0..config.tree_levels {
            let width = config.pes_at_level(level);
            for index in 0..width {
                let (a, b) = if level == 0 {
                    (crossbar[2 * index], crossbar[2 * index + 1])
                } else {
                    (out[below + 2 * index], out[below + 2 * index + 1])
                };
                let op = pe_ops[start + index];
                let result = match op {
                    PeOp::Nop => ZERO,
                    PeOp::PassA => a,
                    PeOp::PassB => b,
                    _ => {
                        self.steps.push(Walked { op, a, b });
                        self.first + self.steps.len() as u32 - 1
                    }
                };
                out[start + index] = result;
                if let Some((cycle, tree, occupancy)) = trace {
                    if op != PeOp::Nop {
                        self.events.push(Event::Pe {
                            cycle,
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
                }
            }
            below = start;
            start += width;
        }
    }
}

/// The order a replay computes the walk's steps in (indices into `walk`,
/// whose `k`-th step writes slot `first + k`): a topological order that
/// stays on one opcode while a step of it is ready, taking the smallest
/// index among those, and otherwise goes on with the opcode whose ready
/// step has the smallest index.  Any topological order computes the same
/// bits, since a step's value depends on its operands alone; this one cuts
/// the list into few runs of one opcode.  Built from flat arrays: each
/// step's consumers in one CSR list and, per opcode, a heap of the ready
/// steps.
fn run_order(walk: &[Walked], first: u32) -> Vec<u32> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let producer = |slot: u32| slot.checked_sub(first).map(|k| k as usize);
    // Per step: its operand reads not yet computed; the CSR offsets of its
    // consumers (one entry per read, so a step reading one value twice is
    // listed twice).
    let mut waiting = vec![0u8; walk.len()];
    let mut offsets = vec![0u32; walk.len() + 1];
    for (k, step) in walk.iter().enumerate() {
        for j in [step.a, step.b].into_iter().filter_map(producer) {
            waiting[k] += 1;
            offsets[j + 1] += 1;
        }
    }
    for j in 0..walk.len() {
        offsets[j + 1] += offsets[j];
    }
    let mut consumers = vec![0u32; offsets[walk.len()] as usize];
    let mut filled = offsets.clone();
    for (k, step) in (0..).zip(walk) {
        for j in [step.a, step.b].into_iter().filter_map(producer) {
            consumers[filled[j] as usize] = k;
            filled[j] += 1;
        }
    }

    let opcode = |k: u32| walk[k as usize].op as usize;
    let mut ready: Vec<BinaryHeap<Reverse<u32>>> =
        vec![BinaryHeap::new(); PeOp::PassB as usize + 1];
    for k in (0..walk.len() as u32).filter(|&k| waiting[k as usize] == 0) {
        ready[opcode(k)].push(Reverse(k));
    }
    let mut order = Vec::with_capacity(walk.len());
    let mut current = 0;
    loop {
        if ready[current].is_empty() {
            // Go on with the opcode whose ready step comes first in the walk.
            let heads = ready.iter().enumerate();
            let first_ready = heads
                .filter_map(|(op, heap)| heap.peek().map(|&Reverse(k)| (k, op)))
                .min();
            let Some((_, op)) = first_ready else { break };
            current = op;
        }
        let Reverse(k) = ready[current].pop().expect("a ready step of this opcode");
        order.push(k);
        let span = offsets[k as usize] as usize..offsets[k as usize + 1] as usize;
        for &consumer in &consumers[span] {
            waiting[consumer as usize] -= 1;
            if waiting[consumer as usize] == 0 {
                ready[opcode(consumer)].push(Reverse(consumer));
            }
        }
    }
    debug_assert_eq!(order.len(), walk.len(), "the walk's steps form a DAG");
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProcessorConfig;
    use crate::isa::{InputSlot, Instruction, WriteCmd};
    use crate::trace::{TraceEvent, TraceRecorder};

    /// `body` after a load of row 0 into register 0 of every bank, with
    /// `inputs` in the first lanes of row 0.
    fn after_load(
        config: &ProcessorConfig,
        inputs: usize,
        body: Vec<Instruction>,
        output: ValueLocation,
    ) -> Program {
        let mut load = Instruction::nop(config);
        load.mem = MemOp::Load { row: 0, reg: 0 };
        Program {
            config: config.clone(),
            instructions: std::iter::once(load).chain(body).collect(),
            input_layout: (0..inputs as u16)
                .map(|lane| InputSlot { row: 0, lane })
                .collect(),
            memory_rows_used: 2,
            output,
            exports: Vec::new(),
            num_source_ops: 0,
            pe_precision: Precision::F64,
        }
    }

    /// A traced PE: its `(level, index)` and its `(a, b, result)`.
    type TracedPe = ((usize, usize), (f64, f64, f64));

    /// The traced result and operands of every active PE of tree 0 when
    /// `pe_ops` runs on crossbar inputs `inputs` (input `k` reads bank `k`).
    fn tree_run(
        config: &ProcessorConfig,
        pe_ops: &[(usize, usize, PeOp)],
        inputs: &[f64],
    ) -> Vec<TracedPe> {
        let mut compute = Instruction::nop(config);
        let tree = &mut compute.trees[0];
        for (k, sel) in tree.reads.iter_mut().enumerate().take(inputs.len()) {
            *sel = ReadSel::Reg {
                bank: k as u16,
                reg: 0,
            };
        }
        for &(level, index, op) in pe_ops {
            tree.pe_ops[TreeInstr::pe_flat_index(config, level, index)] = op;
        }
        let r0 = ValueLocation::Register { bank: 0, reg: 0 };
        let program = after_load(config, inputs.len(), vec![compute], r0);
        let processor = Processor::new(config.clone()).unwrap();
        let mut recorder = TraceRecorder::new(0);
        let mut state = SimState::default();
        processor
            .run_with_hook(&program, inputs, &mut state, &mut recorder)
            .unwrap();
        recorder
            .events()
            .iter()
            .filter_map(|event| match *event {
                TraceEvent::Pe {
                    level,
                    index,
                    a,
                    b,
                    result,
                    ..
                } => Some(((level, index), (a, b, result))),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn full_tree_reduction() {
        // Sum of 16 inputs through a 4-level adder tree.
        let cfg = ProcessorConfig::ptree();
        let all: Vec<(usize, usize, PeOp)> = (0..cfg.tree_levels)
            .flat_map(|l| (0..cfg.pes_at_level(l)).map(move |i| (l, i, PeOp::Add)))
            .collect();
        let inputs: Vec<f64> = (1..=16).map(f64::from).collect();
        let run = tree_run(&cfg, &all, &inputs);
        assert_eq!(run.len(), 15);
        let at = |pe| run.iter().find(|(at, _)| *at == pe).unwrap().1;
        assert_eq!(at((3, 0)).2, 136.0);
        assert_eq!(at((0, 0)).2, 3.0);
        assert_eq!(at((1, 0)).2, 10.0);
        // The root adds the two level-2 sums; leaf 7 adds the last input pair.
        assert_eq!(at((3, 0)), (36.0, 100.0, 136.0));
        assert_eq!(at((0, 7)), (15.0, 16.0, 31.0));
    }

    #[test]
    fn mixed_tree_with_pass_through() {
        // (a * b) forwarded up through passes: root = a * b.
        let cfg = ProcessorConfig::ptree();
        let mut ops = vec![(0, 0, PeOp::Mul)];
        ops.extend((1..4).map(|level| (level, 0, PeOp::PassA)));
        let mut inputs = vec![0.0; 16];
        inputs[0] = 3.0;
        inputs[1] = 4.0;
        let run = tree_run(&cfg, &ops, &inputs);
        assert_eq!(run.len(), 4);
        assert_eq!(run[3], ((3, 0), (12.0, 0.0, 12.0)));
    }

    #[test]
    fn pvect_tree_is_single_level() {
        let cfg = ProcessorConfig::pvect();
        let mut inputs = vec![0.0; 16];
        inputs[0] = 2.0;
        inputs[1] = 5.0;
        inputs[14] = 1.0;
        inputs[15] = 7.0;
        let run = tree_run(&cfg, &[(0, 0, PeOp::Mul), (0, 7, PeOp::Add)], &inputs);
        // Idle PEs compute nothing and report nothing.
        assert_eq!(
            run,
            vec![((0, 0), (2.0, 5.0, 10.0)), ((0, 7), (1.0, 7.0, 8.0))]
        );
        // Idle PEs drive zero, whatever their inputs: a write-back from idle
        // leaf 3 (it reads the loaded value and 1.0, and reaches banks 6
        // and 7) clears the loaded value it lands on.
        let mut idle = Instruction::nop(&cfg);
        idle.trees[0].reads[6] = ReadSel::Reg { bank: 6, reg: 0 };
        idle.trees[0].reads[7] = ReadSel::One;
        idle.trees[0].writes.push(WriteCmd {
            level: 0,
            pe: 3,
            bank: 6,
            reg: 0,
        });
        let held = ValueLocation::Register { bank: 6, reg: 0 };
        let processor = Processor::new(cfg.clone()).unwrap();
        let inputs = vec![3.0; 16];
        let loaded = after_load(&cfg, 16, Vec::new(), held);
        assert_eq!(processor.run(&loaded, &inputs).unwrap().output, 3.0);
        let cleared = after_load(&cfg, 16, vec![idle], held);
        let run = processor.run(&cleared, &inputs).unwrap();
        assert_eq!(run.output.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn store_and_reload_row() {
        // Row 0 → register 0 → row 1 → register 3: every lane round-trips.
        let cfg = ProcessorConfig::ptree();
        let mut store = Instruction::nop(&cfg);
        store.mem = MemOp::Store { row: 1, reg: 0 };
        let mut reload = Instruction::nop(&cfg);
        reload.mem = MemOp::Load { row: 1, reg: 3 };
        let processor = Processor::new(cfg.clone()).unwrap();
        let inputs: Vec<f64> = (0..32).map(|i| f64::from(i) * 2.0).collect();
        for bank in [0u16, 17, 31] {
            let out = ValueLocation::Register { bank, reg: 3 };
            let program = after_load(&cfg, 32, vec![store.clone(), reload.clone()], out);
            let run = processor.run(&program, &inputs).unwrap();
            assert_eq!(run.output, inputs[bank as usize]);
            assert_eq!((run.perf.memory_loads, run.perf.memory_stores), (2, 1));
        }
    }

    #[test]
    fn recycling_bounds_the_scratch_by_the_live_values() {
        // Ten products of lane 0 and lanes 1..=10 overwrite one register:
        // only the last is ever read.
        let cfg = ProcessorConfig::ptree();
        let products: Vec<Instruction> = (1..=10)
            .map(|lane| {
                let mut product = Instruction::nop(&cfg);
                product.trees[0].reads[0] = ReadSel::Reg { bank: 0, reg: 0 };
                product.trees[0].reads[1] = ReadSel::Reg { bank: lane, reg: 0 };
                product.trees[0].pe_ops[0] = PeOp::Mul;
                product.trees[0].writes.push(WriteCmd {
                    level: 0,
                    pe: 0,
                    bank: 0,
                    reg: 1,
                });
                product
            })
            .collect();
        let out = ValueLocation::Register { bank: 0, reg: 1 };
        let program = after_load(&cfg, 32, products, out);
        let traced = Dataflow::lower(&program, true);
        let untraced = Dataflow::lower(&program, false);
        // The ten products are one run of `Mul`, so the eleven lanes they
        // read are scattered together just before it: beside the constants,
        // a slot per read lane, which the products then take in turn.  The
        // 21 unread lanes get none.
        assert_eq!(untraced.slots, FIRST_INPUT + 11);
        assert_eq!(untraced.num_runs(), 2);
        assert_eq!(untraced.inputs_read(), (0..=10).collect::<Vec<u32>>());
        // A trace adds events, not steps.
        let steps = |flow: &Dataflow| format!("{:?} {:?}", flow.steps, flow.runs);
        assert_eq!(steps(&traced), steps(&untraced));
        assert_eq!(traced.slots, untraced.slots);
        assert_eq!(traced.events.len(), 1 + 10);
        assert!(untraced.events.is_empty());
        // Every product reports its own value, though all share one slot.
        let processor = Processor::new(cfg).unwrap();
        let inputs: Vec<f64> = (0..32).map(|i| f64::from(i) + 0.5).collect();
        let mut recorder = TraceRecorder::new(0);
        let mut state = SimState::default();
        let run = processor
            .run_with_hook(&program, &inputs, &mut state, &mut recorder)
            .unwrap();
        assert_eq!(run.output, 0.5 * 10.5);
        let results: Vec<f64> = recorder
            .events()
            .iter()
            .filter_map(|event| match *event {
                TraceEvent::Pe { result, .. } => Some(result),
                _ => None,
            })
            .collect();
        let want: Vec<f64> = (1..=10).map(|lane| 0.5 * inputs[lane]).collect();
        assert_eq!(results, want);
    }
}
