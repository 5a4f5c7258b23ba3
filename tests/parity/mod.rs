//! The parity matrix every backend is held to.
//!
//! One table, [`SLICES`], names the cells: circuit × machine (the CPU model
//! at 1-32 lanes, the GPU model, Ptree on 1-4 cores, Pvect) × numeric
//! domain × precision × exact query mode × dispatch × batch length.  Each
//! `#[test]` of `tests/{parallel,vectorized,multicore,precision_parity,
//! log_domain}.rs` that checks values is a one-line entry running its slice
//! with [`run`], which prints the slice's cell count beside the matrix's.
//!
//! Every cell holds one contract:
//!
//! 1. **Values** are `to_bits`-equal to the quantized op list: the stamped
//!    program interpreted by `OpList::run_into`, lowered per query mode as
//!    the engine lowers it ([`oracle`]).  At `F64` the oracle interprets the
//!    *unstamped* program, so the explicit stamp can move no bit.
//! 2. **MAP assignments** equal the oracle's argmax traceback, which keeps
//!    every observed variable; at `F64` they also equal the graph sweep's
//!    MPE.
//! 3. **Counters.**  A direct `Backend::execute_batch` pass costs what its
//!    compiled program charges and sizes its tiles by the batch's widest lane
//!    block ([`DirectPass`]).  Within a group (one circuit, domain,
//!    precision, mode and length), every dispatch and CPU lane width reports
//!    the same `PerfReport`, and Ptree reports the same work on any number
//!    of cores.
//! 4. **Accuracy.**  Values stay within an analytic bound of the graph-sweep
//!    oracle (`reference_query_with`, [`check_accuracy`]), and a deep chain
//!    underflows to exactly `0.0` in the linear domain and stays finite in
//!    the log domain.  The graph sweep folds a sum left to right while
//!    `flatten` reduces it balanced, so this comparison alone is a
//!    tolerance.
//!
//! No cell is exempt from (1): none has been found to differ in bits.
//! The approximate modes (`sample`, `expectation`) answer with Monte-Carlo
//! estimates and are checked in `tests/sampling.rs`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spn_accel::core::flatten::OpList;
use spn_accel::core::query::{conditional_values, reference_query_with, MaxProductProgram};
use spn_accel::core::random::{deep_chain_spn, random_spn, RandomSpnConfig};
use spn_accel::core::vectorized::{normalize_lanes, LaneProgram, MAX_LANES};
use spn_accel::core::{
    ConditionalBatch, Evidence, EvidenceBatch, NumericMode, Precision, QueryBatch, QueryMode, Spn,
};
use spn_accel::learn::Benchmark;
use spn_accel::platforms::{
    Backend, BatchResult, CpuModel, Engine, EngineOptions, ExecBuffers, GpuModel, Parallelism,
    PerfReport, ProcessorBackend, QueryOutput,
};
use spn_accel::processor::{MultiCoreConfig, MultiCoreProcessor, ProcessorConfig};

/// A circuit of the matrix.
#[derive(Debug, Clone, Copy)]
enum Circuit {
    /// `random_spn` over `vars` variables from `seed`.
    Random(u64, usize),
    /// `deep_chain_spn(levels, weight)`: one variable under `levels` sums,
    /// whose probability underflows `f64`.
    Chain(usize, f64),
    /// A learned Fig. 4 circuit.
    Learned(Benchmark),
}

impl Circuit {
    fn spn(self) -> Spn {
        match self {
            Circuit::Random(seed, vars) => random_spn(
                &RandomSpnConfig::with_vars(vars),
                &mut StdRng::seed_from_u64(seed),
            ),
            Circuit::Chain(levels, weight) => deep_chain_spn(levels, weight),
            Circuit::Learned(benchmark) => benchmark.spn(),
        }
    }
}

/// A backend of the matrix: the CPU model at a lane width, the GPU model,
/// Ptree on a number of cores, Pvect.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Machine {
    Cpu(usize),
    Gpu,
    Ptree(usize),
    Pvect,
}

/// The counters two machines must report alike in one group, under every
/// dispatch: all of them on any two CPU lane widths (the lane width changes
/// no count the CPU model charges) and on one single-core machine; only the
/// work ([`work`]) on any other two Ptree machines, where each host shard
/// pays its own makespan; none otherwise.
fn compared(a: Machine, b: Machine) -> Option<fn(&PerfReport) -> PerfReport> {
    match (a, b) {
        (Machine::Cpu(_), Machine::Cpu(_)) | (Machine::Ptree(1), Machine::Ptree(1)) => {
            Some(PerfReport::clone)
        }
        (Machine::Ptree(_), Machine::Ptree(_)) => Some(work),
        _ => (a == b).then_some(PerfReport::clone),
    }
}

/// How a cell's query reaches the backend.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Dispatch {
    /// Each circuit pass of a joint, marginal or conditional query through
    /// `Backend::execute_batch`, with the test's own buffers (reused across
    /// the cells of one machine).
    Direct,
    /// `Engine::execute_query`.
    Serial,
    /// `Engine::execute_query_parallel` with `workers` and `min_shard`.
    Sharded(usize, usize),
}

/// The cells one test runs on one circuit: the product of the other axes.
struct Slice {
    test: &'static str,
    circuit: Circuit,
    machines: &'static [Machine],
    numerics: &'static [NumericMode],
    precisions: &'static [Precision],
    modes: &'static [QueryMode],
    dispatches: &'static [Dispatch],
    lens: &'static [usize],
}

impl Slice {
    fn cells(&self) -> usize {
        let (m, n, p) = (self.machines, self.numerics, self.precisions);
        let axes = m.len() * n.len() * p.len();
        axes * self.modes.len() * self.dispatches.len() * self.lens.len()
    }
}

const BOTH: &[NumericMode] = &NumericMode::ALL;
const SWEEP: &[Precision] = &Precision::SWEEP;
const EXACT: &[QueryMode] = &[
    QueryMode::Joint,
    QueryMode::Marginal,
    QueryMode::Map,
    QueryMode::Conditional,
];
const ALL_FOUR: &[Machine] = &[
    Machine::Cpu(8),
    Machine::Gpu,
    Machine::Ptree(1),
    Machine::Pvect,
];
const SERIAL_AND_4: &[Dispatch] = &[Dispatch::Serial, Dispatch::Sharded(4, 1)];
const LONG_CHAIN: Circuit = Circuit::Chain(1200, 1e-3);
const TEST_SPN: Circuit = Circuit::Random(2020, 10);
const NCORE_SPN: Circuit = Circuit::Random(907, 10);

/// Serial, then 1, 2, 3, 4 and 8 workers with shards of at least 1, 4 and
/// `Parallelism::DEFAULT_MIN_SHARD` rows.
const EVERY_SHARDING: [Dispatch; 16] = {
    let mut all = [Dispatch::Serial; 16];
    let mut i = 0;
    while i < 15 {
        all[i + 1] = Dispatch::Sharded(
            [1, 2, 3, 4, 8][i % 5],
            [1, 4, Parallelism::DEFAULT_MIN_SHARD][i / 5],
        );
        i += 1;
    }
    all
};

/// Lengths `0..N - T`, then `tail`: empty, sub-block, exact-block and every
/// ragged tail of the lane widths below the longest short length.
const fn lens<const N: usize, const T: usize>(tail: [usize; T]) -> [usize; N] {
    let mut lens = [0; N];
    let mut i = 0;
    while i < N {
        lens[i] = if i + T < N { i } else { tail[i + T - N] };
        i += 1;
    }
    lens
}

/// What a slice runs unless it says otherwise: one linear `F64` marginal
/// row, serial on the 8-lane CPU model.
const ONE: Slice = Slice {
    test: "",
    circuit: TEST_SPN,
    machines: &[Machine::Cpu(8)],
    numerics: &[NumericMode::Linear],
    precisions: &[Precision::F64],
    modes: &[QueryMode::Marginal],
    dispatches: &[Dispatch::Serial],
    lens: &[1],
};

/// Random circuits on the four backends, sharded every way.
const SHARDINGS: Slice = Slice {
    machines: ALL_FOUR,
    dispatches: &EVERY_SHARDING,
    ..ONE
};

/// The four backends in every domain, precision and exact mode.
const EVERYTHING: Slice = Slice {
    machines: ALL_FOUR,
    numerics: BOTH,
    precisions: SWEEP,
    modes: EXACT,
    dispatches: SERIAL_AND_4,
    lens: &[3],
    ..ONE
};

/// The 1 200-level chain in both domains, serial and on four workers.
const UNDERFLOW: Slice = Slice {
    circuit: LONG_CHAIN,
    numerics: BOTH,
    dispatches: &[
        Dispatch::Serial,
        Dispatch::Sharded(4, Parallelism::DEFAULT_MIN_SHARD),
    ],
    lens: &[96],
    ..ONE
};

/// The matrix: every value-parity test's slices.
const SLICES: &[Slice] = &[
    Slice {
        test: "parallel_matches_serial_bit_for_bit_on_all_backends",
        circuit: Circuit::Random(11, 6),
        lens: &[17],
        ..SHARDINGS
    },
    Slice {
        test: "parallel_matches_serial_bit_for_bit_on_all_backends",
        circuit: Circuit::Random(12, 13),
        lens: &[64],
        ..SHARDINGS
    },
    Slice {
        test: "parallel_matches_serial_bit_for_bit_on_all_backends",
        circuit: Circuit::Random(13, 20),
        lens: &[97],
        ..SHARDINGS
    },
    // Batches shorter than, as long as and just past eight workers.
    Slice {
        test: "parallel_handles_degenerate_batch_shapes",
        circuit: Circuit::Random(31, 7),
        dispatches: &[Dispatch::Serial, Dispatch::Sharded(8, 1)],
        lens: &[0, 1, 2, 5, 7, 8, 9],
        ..ONE
    },
    Slice {
        test: "parallel_query_modes_match_serial_query_modes",
        circuit: Circuit::Random(51, 9),
        modes: &[QueryMode::Marginal, QueryMode::Map, QueryMode::Conditional],
        dispatches: SERIAL_AND_4,
        lens: &[33],
        ..ONE
    },
    Slice {
        test: "lane_blocked_execute_matches_scalar_across_modes_precisions_and_shapes",
        machines: &[
            Machine::Cpu(1),
            Machine::Cpu(2),
            Machine::Cpu(4),
            Machine::Cpu(8),
            Machine::Cpu(16),
            Machine::Cpu(32),
            Machine::Gpu,
        ],
        numerics: BOTH,
        precisions: SWEEP,
        dispatches: &[Dispatch::Direct],
        // Every ragged tail below 32 lanes, then tails past one, two and
        // three 32-lane blocks.
        lens: &lens::<37, 3>([63, 65, 97]),
        ..ONE
    },
    Slice {
        test: "lane_blocked_query_modes_match_scalar_bit_for_bit",
        machines: &[Machine::Cpu(1), Machine::Cpu(8)],
        numerics: BOTH,
        modes: EXACT,
        lens: &[11],
        ..ONE
    },
    // 331 is prime: every shard count yields ragged shards, and every shard
    // ends in a ragged lane tail.
    Slice {
        test: "lane_blocked_parallel_sharding_composes_bit_for_bit",
        dispatches: &[
            Dispatch::Serial,
            Dispatch::Sharded(1, Parallelism::DEFAULT_MIN_SHARD),
            Dispatch::Sharded(2, Parallelism::DEFAULT_MIN_SHARD),
            Dispatch::Sharded(3, Parallelism::DEFAULT_MIN_SHARD),
            Dispatch::Sharded(4, Parallelism::DEFAULT_MIN_SHARD),
        ],
        lens: &[331],
        ..ONE
    },
    // Eleven queries, so shards are uneven on every core count.
    Slice {
        test: "n_core_parity_across_modes_numerics_and_precisions",
        circuit: NCORE_SPN,
        machines: &[Machine::Ptree(1), Machine::Ptree(2), Machine::Ptree(3)],
        dispatches: &[Dispatch::Serial, Dispatch::Sharded(2, 1)],
        lens: &[11],
        ..EVERYTHING
    },
    Slice {
        test: "backend_lane_blocks_match_the_query_major_sharded_run",
        circuit: NCORE_SPN,
        machines: &[Machine::Ptree(1), Machine::Pvect, Machine::Ptree(4)],
        numerics: BOTH,
        precisions: &[Precision::F64, Precision::E8M10],
        dispatches: &[Dispatch::Direct],
        lens: &lens::<35, 1>([64]),
        ..ONE
    },
    // MSNBC, learned by LearnSPN: 1 684 input slots share 16 Ptree rows of
    // data memory, so one word feeds several slots.
    Slice {
        test: "learned_circuit_with_shared_input_words_matches_the_op_list",
        circuit: Circuit::Learned(Benchmark::Msnbc),
        machines: &[
            Machine::Cpu(8),
            Machine::Ptree(1),
            Machine::Ptree(4),
            Machine::Pvect,
        ],
        dispatches: &[Dispatch::Serial],
        lens: &[9],
        ..EVERYTHING
    },
    Slice {
        test: "random_spns_all_backends_modes_and_precisions",
        circuit: Circuit::Random(11, 8),
        ..EVERYTHING
    },
    Slice {
        test: "random_spns_all_backends_modes_and_precisions",
        circuit: Circuit::Random(29, 8),
        ..EVERYTHING
    },
    // The long dependency chain where quantization error accumulates most;
    // one variable answers no conditional whose target is free.
    Slice {
        test: "deep_chain_all_backends_and_precisions",
        circuit: Circuit::Chain(400, 1e-2),
        modes: &[QueryMode::Marginal, QueryMode::Map],
        ..EVERYTHING
    },
    Slice {
        test: "deep_chain_underflow_parity_on_cpu",
        ..UNDERFLOW
    },
    Slice {
        test: "deep_chain_underflow_parity_on_gpu",
        machines: &[Machine::Gpu],
        ..UNDERFLOW
    },
    Slice {
        test: "deep_chain_underflow_parity_on_ptree",
        machines: &[Machine::Ptree(1)],
        ..UNDERFLOW
    },
    Slice {
        test: "deep_chain_underflow_parity_on_pvect",
        machines: &[Machine::Pvect],
        ..UNDERFLOW
    },
    Slice {
        test: "all_query_modes_stay_finite_in_log_mode",
        circuit: LONG_CHAIN,
        numerics: &[NumericMode::Log],
        modes: EXACT,
        dispatches: SERIAL_AND_4,
        lens: &[2],
        ..ONE
    },
];

/// Runs test `name`'s slices of [`SLICES`] and prints their cell count.
pub fn run(name: &str) {
    let mut cells = 0;
    for slice in SLICES.iter().filter(|slice| slice.test == name) {
        let spn = slice.circuit.spn();
        for &numeric in slice.numerics {
            for &precision in slice.precisions {
                run_programs(slice, &spn, numeric, precision);
            }
        }
        cells += slice.cells();
    }
    assert!(cells > 0, "no slice named {name}");
    let total: usize = SLICES.iter().map(Slice::cells).sum();
    println!("{name}: {cells} cells of the matrix's {total}");
}

/// What every cell of one group (circuit, domain, precision, mode, length)
/// is checked against.
struct Group {
    query: QueryBatch,
    values: Vec<f64>,
    assignments: Option<Vec<Vec<bool>>>,
    context: String,
    costs: Vec<(Machine, PerfReport)>,
}

impl Group {
    fn check(&mut self, machine: Machine, dispatch: Dispatch, got: QueryOutput) {
        let context = format!("{}/{machine:?}/{dispatch:?}", self.context);
        assert_bits(&got.values, &self.values, &context);
        // A direct pass returns values only.
        if dispatch != Dispatch::Direct {
            assert_eq!(got.assignments, self.assignments, "{context}");
        }
        for (other, perf) in &self.costs {
            if let Some(counters) = compared(*other, machine) {
                assert_eq!(
                    counters(&got.perf),
                    counters(perf),
                    "{context} against {other:?}"
                );
            }
        }
        self.costs.push((machine, got.perf));
    }
}

/// The counters of `perf` that count work: cycles and stalls legitimately
/// differ across core counts, the work performed must not.
fn work(perf: &PerfReport) -> PerfReport {
    PerfReport {
        platform: String::new(),
        cycles: 0,
        stall_cycles: 0,
        ..perf.clone()
    }
}

/// Every group of one program (circuit, domain, precision): the oracle of
/// each, then every machine and dispatch against it.
fn run_programs(slice: &Slice, spn: &Spn, numeric: NumericMode, precision: Precision) {
    let base = OpList::from_spn(spn).with_mode(numeric);
    let ops = if precision == Precision::F64 {
        base.clone()
    } else {
        base.with_precision(precision)
    };
    let max = MaxProductProgram::from_op_list(&ops);
    let mut groups = Vec::new();
    for &mode in slice.modes {
        // Rows are independent and every batch is a prefix of the longest,
        // so one oracle run answers every length.
        let longest = slice.lens.iter().copied().max().expect("a length");
        let context = format!("{:?}/{numeric}/{precision}/{mode}", slice.circuit);
        let all = query(mode, spn.num_vars(), longest);
        let (values, assignments) = oracle(&ops, &max, &all);
        let exact = reference_query_with(spn, &all, numeric).expect("graph sweep");
        check_accuracy(&base, &ops, &all, &values, &exact.values, &context);
        match (slice.circuit, numeric) {
            (Circuit::Chain(..), NumericMode::Linear) => {
                assert!(values.iter().all(|&v| v == 0.0), "{context}: no underflow");
            }
            (Circuit::Chain(..), NumericMode::Log) => {
                assert!(
                    values.iter().all(|v| v.is_finite()),
                    "{context}: not finite"
                );
            }
            _ => {}
        }
        if let (QueryBatch::Map(rows), Some(assignments)) = (&all, &assignments) {
            if precision == Precision::F64 {
                assert_eq!(Some(assignments), exact.assignments.as_ref(), "{context}");
            }
            for (q, assignment) in assignments.iter().enumerate() {
                for (var, value) in rows.to_evidence(q).iter_observed() {
                    assert_eq!(assignment[var], value, "{context} query {q}");
                }
            }
        }
        for &len in slice.lens {
            groups.push(Group {
                query: query(mode, spn.num_vars(), len),
                values: values[..len].to_vec(),
                assignments: assignments.as_ref().map(|a| a[..len].to_vec()),
                context: format!("{context}/len {len}"),
                costs: Vec::new(),
            });
        }
    }
    let options = EngineOptions::default().mode(numeric).precision(precision);
    for &machine in slice.machines {
        match machine {
            Machine::Cpu(lanes) => {
                let cpu = CpuModel::new().with_lanes(lanes);
                run_machine(cpu, machine, spn, options, slice, &mut groups);
            }
            Machine::Gpu => run_machine(GpuModel::new(), machine, spn, options, slice, &mut groups),
            Machine::Ptree(cores) => {
                let ptree = ProcessorBackend::with_cores(ProcessorConfig::ptree(), cores)
                    .expect("a Ptree machine");
                run_machine(ptree, machine, spn, options, slice, &mut groups);
            }
            Machine::Pvect => {
                let pvect = ProcessorBackend::pvect();
                run_machine(pvect, machine, spn, options, slice, &mut groups);
            }
        }
    }
}

/// Every group's cells on one machine: one engine, and one set of buffers
/// for the direct passes.
fn run_machine<B: DirectPass>(
    backend: B,
    machine: Machine,
    spn: &Spn,
    options: EngineOptions,
    slice: &Slice,
    groups: &mut [Group],
) {
    let mut engine = Engine::new(backend.clone(), spn, options).expect("engine");
    assert_eq!(engine.precision(), options.precision);
    assert_eq!(engine.mode(), options.mode);
    let mut buffers = ExecBuffers::new();
    let mut scratch = B::Scratch::default();
    for group in groups {
        for &dispatch in slice.dispatches {
            let got = match dispatch {
                Dispatch::Serial => engine.execute_query(&group.query),
                Dispatch::Sharded(workers, min_shard) => {
                    engine.execute_query_parallel(&group.query, &Parallelism { workers, min_shard })
                }
                Dispatch::Direct => {
                    let mut perf = PerfReport::default();
                    let values = passes(&group.query).map(|(map, rows)| {
                        assert!(!map, "direct cells run the engine's own program");
                        let compiled = engine.compiled();
                        let got = backend
                            .execute_batch(compiled, rows, &mut buffers, &mut scratch)
                            .expect("direct pass");
                        backend.check_pass(compiled, rows, &got, &buffers, &group.context);
                        perf.merge(&got.perf);
                        got.values
                    });
                    let values = combine(options.mode, &group.query, values.collect());
                    Ok(QueryOutput {
                        values,
                        assignments: None,
                        std_err: None,
                        samples: 0,
                        perf,
                    })
                }
            };
            let got = got.unwrap_or_else(|e| panic!("{}/{machine:?}: {e}", group.context));
            group.check(machine, dispatch, got);
        }
    }
}

/// A backend's direct pass, checked against what its compiled program alone
/// says the pass costs and occupies.
trait DirectPass: Backend + Clone {
    fn check_pass(
        &self,
        compiled: &Self::Compiled,
        rows: &EvidenceBatch,
        got: &BatchResult,
        buffers: &ExecBuffers,
        context: &str,
    );
}

/// The software models charge every row their per-query report, size the
/// lane program's register file by the widest lane block of *this* batch (a
/// one-row request on a 32-lane model allocates one lane), and leave the
/// input arena untouched: the register file takes the indicators itself.
fn check_model_pass(
    max_lanes: usize,
    program: &LaneProgram,
    perf_per_query: &PerfReport,
    rows: &EvidenceBatch,
    got: &BatchResult,
    buffers: &ExecBuffers,
    context: &str,
) {
    let mut want = PerfReport {
        platform: perf_per_query.platform.clone(),
        ..PerfReport::default()
    };
    (0..rows.len()).for_each(|_| want.merge(perf_per_query));
    assert_eq!(got.perf, want, "{context}");
    let widest = normalize_lanes(max_lanes.min(rows.len()));
    assert!(buffers.inputs.is_empty(), "{context}");
    assert_eq!(buffers.scratch.len(), program.slots() * widest, "{context}");
}

impl DirectPass for CpuModel {
    fn check_pass(
        &self,
        compiled: &Self::Compiled,
        rows: &EvidenceBatch,
        got: &BatchResult,
        buffers: &ExecBuffers,
        context: &str,
    ) {
        let (program, perf) = (compiled.lane_program(), compiled.perf_per_query());
        check_model_pass(self.lanes(), program, perf, rows, got, buffers, context);
    }
}

impl DirectPass for GpuModel {
    fn check_pass(
        &self,
        compiled: &Self::Compiled,
        rows: &EvidenceBatch,
        got: &BatchResult,
        buffers: &ExecBuffers,
        context: &str,
    ) {
        let (program, perf) = (compiled.lane_program(), compiled.perf_per_query());
        check_model_pass(MAX_LANES, program, perf, rows, got, buffers, context);
    }
}

/// The simulator's lane-block replay returns, and costs, what the
/// query-major `fill_batch_inputs` + `run_batch_sharded` of the same
/// program gives, per core included.
impl DirectPass for ProcessorBackend {
    fn check_pass(
        &self,
        compiled: &Self::Compiled,
        rows: &EvidenceBatch,
        got: &BatchResult,
        _buffers: &ExecBuffers,
        context: &str,
    ) {
        let config = MultiCoreConfig::new(self.cores(), self.config().clone());
        let processor = MultiCoreProcessor::new(config).expect("processor");
        let mut flat = Vec::new();
        compiled.fill_batch_inputs(rows, &mut flat).expect("fill");
        let want = processor
            .run_batch_sharded(&compiled.program, &flat, rows.len(), &mut Vec::new())
            .expect("sharded run");
        assert_bits(&got.values, &want.outputs, context);
        assert_eq!(got.perf, want.perf, "{context}");
        let cores = processor.sharded_perf(&compiled.program, rows.len());
        assert_eq!(cores.expect("same machine"), want.cores, "{context}");
    }
}

/// Asserts `got` is `want` bit for bit.
pub fn assert_bits(got: &[f64], want: &[f64], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: length");
    for (q, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{context} query {q}: {g} vs {w}");
    }
}

/// Row `q` of the one evidence pattern: marginal, a complete assignment,
/// then one or two observed variables, in turn.  Successive complete
/// assignments shift the pattern true, false, false by one variable, so
/// both values of every variable occur within three of them.
fn evidence(num_vars: usize, q: usize) -> Evidence {
    let mut e = Evidence::marginal(num_vars);
    match q % 3 {
        0 => {}
        1 => (0..num_vars).for_each(|v| e.observe(v, (v + q / 3).is_multiple_of(3))),
        _ => {
            e.observe(q % num_vars, q.is_multiple_of(2));
            e.observe((q + 3) % num_vars, q.is_multiple_of(4));
        }
    }
    e
}

/// The first `len` rows of the evidence pattern.
pub fn rows(num_vars: usize, len: usize) -> EvidenceBatch {
    let mut batch = EvidenceBatch::new(num_vars);
    for q in 0..len {
        batch.push(&evidence(num_vars, q)).expect("arity");
    }
    batch
}

/// The `len`-query batch of `mode`: joint rows are the pattern's complete
/// assignments, a conditional observes one target variable given another
/// (given nothing on a one-variable circuit).
fn query(mode: QueryMode, num_vars: usize, len: usize) -> QueryBatch {
    match mode {
        QueryMode::Joint => {
            let mut batch = EvidenceBatch::new(num_vars);
            for q in 0..len {
                batch.push(&evidence(num_vars, 3 * q + 1)).expect("arity");
            }
            QueryBatch::Joint(batch)
        }
        QueryMode::Marginal => QueryBatch::Marginal(rows(num_vars, len)),
        QueryMode::Map => QueryBatch::Map(rows(num_vars, len)),
        QueryMode::Conditional => {
            let mut cond = ConditionalBatch::new(num_vars);
            for q in 0..len {
                let mut target = Evidence::marginal(num_vars);
                target.observe(q % num_vars, q % 2 == 0);
                let mut given = Evidence::marginal(num_vars);
                if num_vars > 1 {
                    given.observe((q + 1) % num_vars, q % 3 == 0);
                }
                cond.push(&target, &given).expect("arity");
            }
            QueryBatch::Conditional(cond)
        }
        QueryMode::Sample | QueryMode::Expectation => {
            unreachable!("approximate modes are covered by tests/sampling.rs")
        }
    }
}

/// The circuit passes the engine lowers `query` to, in order: whether each
/// runs the max-product program, and its rows.
fn passes(query: &QueryBatch) -> impl Iterator<Item = (bool, &EvidenceBatch)> {
    let passes = match query {
        QueryBatch::Joint(rows) | QueryBatch::Marginal(rows) => vec![(false, rows)],
        QueryBatch::Map(rows) => vec![(true, rows)],
        QueryBatch::Conditional(cond) => {
            vec![(false, cond.numerator()), (false, cond.denominator())]
        }
        QueryBatch::Sample(_) | QueryBatch::Expectation(_) => {
            unreachable!("approximate modes are covered by tests/sampling.rs")
        }
    };
    passes.into_iter()
}

/// The query's values from its passes' values: a conditional divides the
/// first pass by the second (subtracts, in the log domain).
fn combine(mode: NumericMode, query: &QueryBatch, mut passes: Vec<Vec<f64>>) -> Vec<f64> {
    let last = passes.pop().expect("one pass");
    match passes.pop() {
        Some(numerator) => {
            assert!(matches!(query, QueryBatch::Conditional(_)));
            conditional_values(mode, numerator, &last).expect("conditional defined")
        }
        None => last,
    }
}

/// Runs `program` on every row through the reference interpreter, handing
/// each row's inputs, intermediate results and value to `visit`.
fn interpret(
    program: &OpList,
    rows: &EvidenceBatch,
    mut visit: impl FnMut(usize, &[f64], &[f64], f64),
) {
    let recipe = program.input_recipe();
    let mut inputs = vec![0.0; recipe.num_inputs()];
    let mut results = vec![0.0; program.num_ops()];
    for q in 0..rows.len() {
        recipe.fill_query(rows, q, &mut inputs);
        let value = program.run_into(&inputs, &mut results);
        visit(q, &inputs, &results, value);
    }
}

/// The bits every backend must return for `rows` under `ops`.
#[allow(dead_code)] // read by the suites' tests outside the matrix
pub fn oracle_bits(ops: &OpList, rows: &EvidenceBatch) -> Vec<u64> {
    let mut bits = Vec::with_capacity(rows.len());
    interpret(ops, rows, |_, _, _, value| bits.push(value.to_bits()));
    bits
}

/// The quantized op list's answer to `query`: `ops` (or `max`, its
/// max-product form) interpreted pass by pass, and for MAP the argmax
/// traceback of each row's intermediate results.
fn oracle(
    ops: &OpList,
    max: &MaxProductProgram,
    query: &QueryBatch,
) -> (Vec<f64>, Option<Vec<Vec<bool>>>) {
    let mut assignments = Vec::new();
    let values = passes(query).map(|(map, rows)| {
        let mut values = Vec::with_capacity(rows.len());
        let program = if map { max.ops() } else { ops };
        interpret(program, rows, |q, inputs, results, value| {
            if map {
                assignments.push(max.trace_assignment(inputs, results, rows.query(q)));
            }
            values.push(value);
        });
        values
    });
    let values = combine(ops.mode(), query, values.collect());
    let map = matches!(query, QueryBatch::Map(_));
    (values, map.then_some(assignments))
}

/// Asserts `values` (the quantized oracle's) stay within an analytic
/// bound of `exact` (the graph sweep's), and that a structural `-inf`
/// survives exactly.
///
/// Each of the `k = inputs + ops` quantizations on a value's history (the
/// max-product rewrite for MAP has the same counts) errs by at most the
/// format's unit roundoff `u`.  In the linear domain every operand is
/// non-negative, so each multiplies the running value by a factor in
/// `[1-u, 1+u]`: `|computed - exact| <= b·exact` with `b = (1+u)^k - 1`,
/// and a conditional, a ratio of two such values, is off by at most
/// `(1+b)/(1-b) - 1` relative.  The bound is vacuous once `b >= 1`, e.g. on
/// a reduced-precision deep chain, whose values flush to zero anyway.
///
/// In the log domain errors are absolute and both `Add` and log-sum-exp
/// accumulate them 1-Lipschitz, so each pass is off by at most
/// `2k·u·(M+1)`, with `M` bounding every intermediate's magnitude on the
/// f64 run (the factor 2 covers the drift between f64 and quantized
/// intermediates).  At `F64` `u` is zero and only the 1e-12 floor is left:
/// on the 1 200-level log chain that is tighter than a 1e-9 relative
/// tolerance (7e-6) by six orders of magnitude.
fn check_accuracy(
    base: &OpList,
    ops: &OpList,
    query: &QueryBatch,
    values: &[f64],
    exact: &[f64],
    context: &str,
) {
    let k = ops.num_inputs() + ops.num_ops();
    let u = ops.precision().unit_roundoff();
    let conditional = matches!(query, QueryBatch::Conditional(_));
    let b = (1.0 + u).powi(i32::try_from(k).expect("op count fits i32")) - 1.0;
    let rel = if conditional {
        (1.0 + b) / (1.0 - b) - 1.0
    } else {
        b
    };
    let log = match ops.mode() {
        NumericMode::Log => {
            let passes = if conditional { 2.0 } else { 1.0 };
            // `u` is zero at `F64`, where `M` cannot matter.
            let m = if u > 0.0 {
                max_intermediate(base, query)
            } else {
                0.0
            };
            passes * 2.0 * k as f64 * u * (m + 1.0)
        }
        NumericMode::Linear => 0.0,
    };
    for (q, (got, want)) in values.iter().zip(exact).enumerate() {
        let bound = match ops.mode() {
            NumericMode::Log => log,
            NumericMode::Linear if b < 1.0 => rel * want.abs(),
            NumericMode::Linear => continue,
        };
        if !want.is_finite() {
            assert_eq!(got.to_bits(), want.to_bits(), "{context} query {q}");
        } else {
            assert!(
                (got - want).abs() <= bound.max(1e-12),
                "{context} query {q}: |{got} - {want}| > bound {bound}"
            );
        }
    }
}

/// Largest finite intermediate magnitude of the f64 program under the
/// query's passes: the `M` of the log-domain bound.
fn max_intermediate(base: &OpList, query: &QueryBatch) -> f64 {
    let mut m: f64 = 1.0;
    let max = matches!(query, QueryBatch::Map(_)).then(|| base.to_max_product());
    for (map, rows) in passes(query) {
        let program = if map {
            max.as_ref().expect("MAP")
        } else {
            base
        };
        interpret(program, rows, |_, inputs, results, _| {
            for v in inputs.iter().chain(results).filter(|v| v.is_finite()) {
                m = m.max(v.abs());
            }
        });
    }
    m
}
