//! Multi-core simulator invariants: N-core execution must be a pure
//! performance model, never a numerics model.
//!
//! * **Parity** — sharding a batch over N simulated cores returns values,
//!   MAP assignments and work-counter totals bit-for-bit identical to the
//!   single-core run, across all four query modes, both numeric domains and
//!   every emulated PE precision, under serial and host-sharded dispatch;
//!   so does a learned circuit whose input slots share data-memory words.
//!   These are slices of the parity matrix (`tests/parity/mod.rs`).
//! * **Cycle accounting** — every core's compute + memory-stall +
//!   interconnect-stall + idle cycles partition the makespan exactly, and
//!   the merged batch report is the sum of the per-core reports, for both
//!   batch-sharded and pipelined/partitioned execution.
//! * **Cost-sized shards** — each core's shard is sized by its
//!   wave-arbitrated pass cost: exact shard lengths, makespans and speedups
//!   on learned KDDCup2k and MSNBC, and on all nine Fig. 4 circuits a
//!   makespan never above the even split's.
//! * **Lane blocks and tails** — a batch of any length, cut into blocks of
//!   eight queries replayed side by side plus tail blocks of four, two and
//!   one, returns per query exactly what the op list's reference
//!   interpreter returns; the
//!   processor backend's lane-block path returns the query-major sharded
//!   run's values and counters bit for bit, and one set of buffers carries
//!   no value across plans or widths.
//! * **Legality before query 0** — a program that breaks a machine rule is
//!   rejected before query 0 with the error a single-core run gives, an
//!   empty batch included.
//! * **Validation** — structurally impossible machines (zero cores, zero PE
//!   trees/levels/leaves, zero shared-memory ports) are rejected with a
//!   structured configuration error instead of panicking mid-simulation.

mod parity;

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use spn_accel::compiler::Compiler;
use spn_accel::core::flatten::OpList;
use spn_accel::core::random::{random_spn, RandomSpnConfig};
use spn_accel::core::{EvidenceBatch, Precision, Spn, SpnBuilder, VarId};
use spn_accel::learn::Benchmark;
use spn_accel::platforms::{
    Backend, Engine, ExecBuffers, Plan, ProcessorBackend, ProcessorScratch,
};
use spn_accel::processor::{
    MultiCoreConfig, MultiCoreProcessor, PerfReport, Processor, ProcessorConfig, ProcessorError,
    Program, SharedMemoryConfig, TraceRecorder,
};

fn test_spn() -> Spn {
    let mut rng = StdRng::seed_from_u64(907);
    random_spn(&RandomSpnConfig::with_vars(10), &mut rng)
}

/// Sharding a batch over 2 or 3 Ptree cores, serially or host-sharded,
/// returns what one core returns: values, MAP assignments and work.
#[test]
fn n_core_parity_across_modes_numerics_and_precisions() {
    parity::run("n_core_parity_across_modes_numerics_and_precisions");
}

/// Sums the per-core work reports and checks them against the merged batch
/// report (whose `cycles` is the makespan and whose `stall_cycles` add the
/// modeled memory/interconnect stalls on top of the in-program stalls).
fn assert_merged_is_sum(run: &spn_accel::processor::MultiCoreBatch, context: &str) {
    let cores = &run.cores;
    cores
        .check_accounting()
        .unwrap_or_else(|err| panic!("{context}: {err}"));
    let mut work = PerfReport::default();
    let mut modeled_stalls = 0;
    for core in &cores.per_core {
        assert_eq!(
            core.busy_cycles() + core.idle_cycles,
            cores.makespan_cycles,
            "{context}: core {} attribution does not cover the makespan",
            core.core
        );
        assert_eq!(
            core.work.cycles, core.compute_cycles,
            "{context}: core {} work cycles vs compute attribution",
            core.core
        );
        work.merge(&core.work);
        modeled_stalls += core.memory_stall_cycles + core.interconnect_stall_cycles;
    }
    assert_eq!(
        run.perf.cycles, cores.makespan_cycles,
        "{context}: makespan"
    );
    assert_eq!(
        run.perf.source_ops, work.source_ops,
        "{context}: source_ops total"
    );
    assert_eq!(
        run.perf.issued_ops, work.issued_ops,
        "{context}: issued_ops total"
    );
    assert_eq!(
        run.perf.instructions, work.instructions,
        "{context}: instruction total"
    );
    assert_eq!(
        run.perf.stall_cycles,
        work.stall_cycles + modeled_stalls,
        "{context}: stall total"
    );
    assert_eq!(
        run.perf.memory_loads, work.memory_loads,
        "{context}: load total"
    );
    assert_eq!(
        run.perf.memory_stores, work.memory_stores,
        "{context}: store total"
    );
    assert_eq!(
        run.perf.writebacks, work.writebacks,
        "{context}: writeback total"
    );
    assert_eq!(
        run.perf.operand_reads, work.operand_reads,
        "{context}: operand-read total"
    );
}

#[test]
fn per_core_cycles_partition_the_makespan_for_sharded_runs() {
    for seed in [11u64, 12, 13] {
        let mut rng = StdRng::seed_from_u64(seed);
        let spn = random_spn(&RandomSpnConfig::with_vars(9), &mut rng);
        let ops = spn_accel::core::flatten::OpList::from_spn(&spn);
        let compiler = Compiler::new(ProcessorConfig::ptree());
        let compiled = compiler.compile_op_list(ops).expect("compile");
        let batch = parity::rows(spn.num_vars(), 11);
        let mut flat = Vec::new();
        compiled.fill_batch_inputs(&batch, &mut flat).expect("fill");
        for cores in [1usize, 2, 3, 5] {
            let processor =
                MultiCoreProcessor::new(MultiCoreConfig::new(cores, ProcessorConfig::ptree()))
                    .expect("processor");
            let mut states = Vec::new();
            let run = processor
                .run_batch_sharded(&compiled.program, &flat, batch.len(), &mut states)
                .expect("sharded run");
            assert_eq!(run.perf.queries as usize, batch.len());
            assert_merged_is_sum(&run, &format!("seed {seed}, {cores} cores, sharded"));
        }
        // Timing is a property of the program: a real run's attribution
        // depends on the shape alone — core `c` is charged its shard length
        // × `Program::perf()` whatever the evidence, empty shards included.
        for (queries, cores) in [(0usize, 2usize), (1, 4), (4, 3), (9, 1), (9, 4)] {
            let context = format!("seed {seed}, {queries} queries on {cores} cores, sharded");
            let processor =
                MultiCoreProcessor::new(MultiCoreConfig::new(cores, ProcessorConfig::ptree()))
                    .expect("processor");
            let mut states = Vec::new();
            let mut run_on = |rows: &EvidenceBatch| {
                compiled.fill_batch_inputs(rows, &mut flat).expect("fill");
                processor
                    .run_batch_sharded(&compiled.program, &flat, queries, &mut states)
                    .expect("sharded run")
            };
            let run = run_on(&batch.sub_batch(0, queries));
            let marginals = run_on(&EvidenceBatch::marginals(spn.num_vars(), queries));
            assert_eq!(run.cores, marginals.cores, "{context}");
            assert_merged_is_sum(&run, &context);
            let pass = compiled.program.perf();
            let costs = processor.pass_costs(&pass);
            let shards = MultiCoreProcessor::shard_ranges_by_cost(&costs, queries);
            for (core, shard) in run.cores.per_core.iter().zip(shards) {
                let charged = pass.times(shard.len() as u64);
                assert_eq!(core.work, charged, "{context}: core {}", core.core);
            }
        }
    }
}

#[test]
fn per_core_cycles_partition_the_makespan_for_pipelined_runs() {
    for seed in [21u64, 22] {
        let mut rng = StdRng::seed_from_u64(seed);
        let spn = random_spn(&RandomSpnConfig::with_vars(9), &mut rng);
        let ops = spn_accel::core::flatten::OpList::from_spn(&spn);
        let compiler = Compiler::new(ProcessorConfig::ptree());
        let batch = parity::rows(spn.num_vars(), 11);
        for cores in [2usize, 3] {
            let parted = compiler
                .compile_partitioned(ops.clone(), cores)
                .expect("partition");
            let mut flat = Vec::new();
            parted
                .input_recipe()
                .fill_batch(&batch, &mut flat)
                .expect("fill");
            let processor =
                MultiCoreProcessor::new(MultiCoreConfig::new(cores, ProcessorConfig::ptree()))
                    .expect("processor");
            let mut states = Vec::new();
            let run = processor
                .run_partitioned(&parted.parts, &flat, batch.len(), &mut states)
                .expect("pipelined run");
            assert_merged_is_sum(&run, &format!("seed {seed}, {cores} cores, pipelined"));
            // The same for a pipeline: every stage is charged the batch
            // length × its own program's `perf()`, and an empty batch costs
            // nothing.
            for queries in [0usize, 1, 4] {
                let context = format!("seed {seed}, {queries} queries on {cores} cores, pipelined");
                let mut run_on = |rows: &EvidenceBatch| {
                    parted
                        .input_recipe()
                        .fill_batch(rows, &mut flat)
                        .expect("fill");
                    processor
                        .run_partitioned(&parted.parts, &flat, queries, &mut states)
                        .expect("pipelined run")
                };
                let run = run_on(&batch.sub_batch(0, queries));
                let marginals = run_on(&EvidenceBatch::marginals(spn.num_vars(), queries));
                assert_eq!(run.cores, marginals.cores, "{context}");
                assert_merged_is_sum(&run, &context);
                for (core, stage) in run.cores.per_core.iter().zip(&parted.parts.stages) {
                    let charged = stage.program.perf().times(queries as u64);
                    assert_eq!(core.work, charged, "{context}: core {}", core.core);
                }
                if queries == 0 {
                    assert_eq!(run.perf.cycles, 0, "{context}");
                    assert_eq!(run.perf.stall_cycles, 0, "{context}");
                }
            }
        }
    }
}

#[test]
fn impossible_machine_shapes_are_rejected() {
    // Zero cores, at both API levels.
    assert!(MultiCoreProcessor::new(MultiCoreConfig::new(0, ProcessorConfig::ptree())).is_err());
    assert!(ProcessorBackend::with_cores(ProcessorConfig::ptree(), 0).is_err());

    // Zero PEs in the per-core datapath: no trees, no levels, no leaves.
    for broken in [
        ProcessorConfig {
            num_trees: 0,
            ..ProcessorConfig::ptree()
        },
        ProcessorConfig {
            tree_levels: 0,
            ..ProcessorConfig::ptree()
        },
        ProcessorConfig {
            leaf_pes_per_tree: 0,
            ..ProcessorConfig::ptree()
        },
    ] {
        assert!(broken.validate().is_err(), "{broken:?} must not validate");
        assert!(
            MultiCoreProcessor::new(MultiCoreConfig::new(2, broken.clone())).is_err(),
            "{broken:?} must not build a processor"
        );
        assert!(
            ProcessorBackend::with_cores(broken, 2).is_err(),
            "zero-PE config must not build a backend"
        );
    }

    // Zero shared-memory ports.
    let mut config = MultiCoreConfig::new(2, ProcessorConfig::ptree());
    config.shared_memory = SharedMemoryConfig { ports: 0 };
    assert!(MultiCoreProcessor::new(config).is_err());
}

/// Retargets the first PE write-back of `program` to the same bank of the
/// other tree's register file, which no PE of its tree can reach.
fn retarget_first_write(program: &mut Program) {
    let banks = program.config.total_banks() as u16;
    let per_tree = program.config.banks_per_tree as u16;
    let write = program
        .instructions
        .iter_mut()
        .flat_map(|instr| &mut instr.trees)
        .find_map(|tree| tree.writes.first_mut())
        .expect("program writes a register");
    write.bank = (write.bank + per_tree) % banks;
}

#[test]
fn corrupted_programs_are_rejected_before_query_zero() {
    let spn = test_spn();
    let ops = spn_accel::core::flatten::OpList::from_spn(&spn);
    let compiler = Compiler::new(ProcessorConfig::ptree());
    let single = Processor::new(ProcessorConfig::ptree()).expect("single core");
    let processor = MultiCoreProcessor::new(MultiCoreConfig::new(2, ProcessorConfig::ptree()))
        .expect("processor");
    let batch = parity::rows(spn.num_vars(), 11);
    let mut flat = Vec::new();

    let compiled = compiler.compile_op_list(ops.clone()).expect("compile");
    let mut program = Program::clone(&compiled.program);
    retarget_first_write(&mut program);
    let mut parted = compiler.compile_partitioned(ops, 2).expect("partition");
    retarget_first_write(&mut parted.parts.stages[1].program);
    let stage = &parted.parts.stages[1].program;

    // What a single-core run says, on any inputs of the right length.
    let verdict = |program: &Program| {
        single
            .run(program, &vec![1.0; program.input_layout.len()])
            .expect_err("the PE cannot reach the bank")
    };
    assert!(matches!(
        verdict(&program),
        ProcessorError::IllegalWriteBank { .. }
    ));
    for queries in [0usize, 1, 5] {
        let rows = batch.sub_batch(0, queries);
        compiled.fill_batch_inputs(&rows, &mut flat).expect("fill");
        let sharded = processor.run_batch_sharded(&program, &flat, queries, &mut Vec::new());
        assert_eq!(
            sharded.err(),
            Some(verdict(&program)),
            "{queries} queries, sharded"
        );
        parted
            .input_recipe()
            .fill_batch(&rows, &mut flat)
            .expect("fill");
        let pipelined = processor.run_partitioned(&parted.parts, &flat, queries, &mut Vec::new());
        assert_eq!(
            pipelined.err(),
            Some(verdict(stage)),
            "{queries} queries, pipelined"
        );
    }
}

/// The simulator replays a batch eight queries at a time and the remainder
/// one by one, per core: every batch length from empty to two blocks and a
/// tail, on one core and on three (shards of uneven length), returns per
/// query the bits the op list's reference interpreter returns — on both
/// machine shapes, in both numeric domains, at full and reduced precision,
/// and for a max-product program.  A two-stage pipeline of the same op list
/// returns them too, and so does every traced run of either.  No backend
/// reaches the traced and pipelined runs, so this part of the parity
/// contract runs outside `parity::run`.
#[test]
fn batch_lengths_and_lane_tails_match_per_query_runs() {
    let spn = test_spn();
    let rows = parity::rows(spn.num_vars(), 17);
    let base = OpList::from_spn(&spn);
    let mut cases: Vec<(String, ProcessorConfig, OpList)> = Vec::new();
    for config in [ProcessorConfig::ptree(), ProcessorConfig::pvect()] {
        for (numeric, ops) in [("linear", base.clone()), ("log", base.to_log_domain())] {
            for precision in [Precision::F64, Precision::E8M10] {
                let name = format!("{}/{numeric}/{precision}", config.name);
                cases.push((name, config.clone(), ops.with_precision(precision)));
            }
        }
    }
    let ptree = ProcessorConfig::ptree();
    cases.push((
        "Ptree/max-product".to_string(),
        ptree,
        base.to_max_product(),
    ));

    for (name, config, ops) in cases {
        let compiler = Compiler::new(config.clone());
        let compiled = compiler.compile_op_list(ops.clone()).expect("compile");
        let want = parity::oracle_bits(&ops, &rows);
        let bits = |outputs: &[f64]| outputs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut flat = Vec::new();
        for cores in [1usize, 3] {
            let processor = MultiCoreProcessor::new(MultiCoreConfig::new(cores, config.clone()))
                .expect("processor");
            let mut states = Vec::new();
            for n in 0..=rows.len() {
                compiled
                    .fill_batch_inputs(&rows.sub_batch(0, n), &mut flat)
                    .expect("fill");
                let run = processor
                    .run_batch_sharded(&compiled.program, &flat, n, &mut states)
                    .expect("sharded run");
                assert_eq!(
                    bits(&run.outputs),
                    want[..n],
                    "{name}: {n} queries on {cores} cores"
                );
                // A traced batch replays the same steps one query at a time.
                let mut recorders: Vec<TraceRecorder> =
                    (0..cores as u32).map(TraceRecorder::new).collect();
                let traced = processor
                    .run_batch_sharded_traced(
                        &compiled.program,
                        &flat,
                        n,
                        &mut states,
                        &mut recorders,
                    )
                    .expect("traced sharded run");
                assert_eq!(
                    bits(&traced.outputs),
                    want[..n],
                    "{name}: {n} queries on {cores} cores, traced"
                );
            }
        }
        let parted = compiler.compile_partitioned(ops, 2).expect("partition");
        assert_eq!(parted.num_stages(), 2, "{name}");
        let pipeline = MultiCoreProcessor::new(MultiCoreConfig::new(2, config)).expect("processor");
        let mut states = Vec::new();
        for n in 0..=rows.len() {
            parted
                .input_recipe()
                .fill_batch(&rows.sub_batch(0, n), &mut flat)
                .expect("fill");
            let run = pipeline
                .run_partitioned(&parted.parts, &flat, n, &mut states)
                .expect("pipelined run");
            assert_eq!(
                bits(&run.outputs),
                want[..n],
                "{name}: {n} queries, 2 stages"
            );
            let mut recorders: Vec<TraceRecorder> = (0..2).map(TraceRecorder::new).collect();
            let traced = pipeline
                .run_partitioned_traced(&parted.parts, &flat, n, &mut states, &mut recorders)
                .expect("traced pipelined run");
            assert_eq!(
                bits(&traced.outputs),
                want[..n],
                "{name}: {n} queries, 2 stages, traced"
            );
        }
    }
}

/// The processor backend replays a batch in the CPU model's lane blocks
/// from its plan-time checked program, and costs it from the program's
/// stored report: for every batch length from empty to 33 and 64, on Ptree,
/// Pvect and four Ptree cores, in both numeric domains at full and reduced
/// precision, values, `PerfReport` and per-core `MultiCorePerf` are bit for
/// bit what the query-major `fill_batch_inputs` + `run_batch_sharded` gives.
#[test]
fn backend_lane_blocks_match_the_query_major_sharded_run() {
    parity::run("backend_lane_blocks_match_the_query_major_sharded_run");
}

/// MSNBC's input slots share data-memory words; every backend still
/// returns the op list's bits on it, in every domain, precision and mode.
#[test]
fn learned_circuit_with_shared_input_words_matches_the_op_list() {
    parity::run("learned_circuit_with_shared_input_words_matches_the_op_list");
}

/// One set of buffers and simulator scratch serves plans of different input
/// counts, numeric domains and precisions in turn, at lengths whose blocks
/// take every lane width, directly and through `Engine::rebind`: every
/// batch returns what a fresh engine returns, so no value leaks across
/// plans or widths.
#[test]
fn one_set_of_buffers_serves_plans_of_every_shape() {
    let mut rng = StdRng::seed_from_u64(908);
    let small = random_spn(&RandomSpnConfig::with_vars(6), &mut rng);
    let large = test_spn();
    let backend = ProcessorBackend::ptree();
    let plans: Vec<Arc<Plan<ProcessorBackend>>> = [
        OpList::from_spn(&small),
        OpList::from_spn(&large)
            .to_log_domain()
            .with_precision(Precision::E8M10),
    ]
    .into_iter()
    .map(|ops| Arc::new(Plan::compile(backend.clone(), ops, None).expect("plan")))
    .collect();
    assert_ne!(plans[0].ops().num_inputs(), plans[1].ops().num_inputs());
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut buffers = ExecBuffers::new();
    let mut scratch = ProcessorScratch::default();
    let mut rebound = Engine::from_plan(Arc::clone(&plans[0]));
    for n in [17usize, 8, 7, 33, 1] {
        for (p, plan) in plans.iter().enumerate() {
            let batch = parity::rows(plan.ops().num_vars(), n);
            let mut fresh = Engine::from_plan(Arc::clone(plan));
            let want = fresh.execute_batch(&batch).expect("fresh engine");
            let shared = backend
                .execute_batch(fresh.compiled(), &batch, &mut buffers, &mut scratch)
                .expect("shared buffers");
            assert_eq!(
                bits(&shared.values),
                bits(&want.values),
                "plan {p}, {n} rows"
            );
            assert_eq!(shared.perf, want.perf, "plan {p}, {n} rows");
            rebound.rebind(Arc::clone(plan));
            let got = rebound.execute_batch(&batch).expect("rebound engine");
            assert_eq!(
                bits(&got.values),
                bits(&want.values),
                "plan {p}, {n} rows, rebound"
            );
            assert_eq!(got.perf, want.perf, "plan {p}, {n} rows, rebound");
        }
    }
}

/// The busiest core's cycles when `queries` passes of `pass` are cut evenly
/// over `processor`'s cores, whatever each core pays per pass.
fn even_split_makespan(processor: &MultiCoreProcessor, pass: &PerfReport, queries: usize) -> u64 {
    let costs = processor.pass_costs(pass);
    let shards = MultiCoreProcessor::shard_ranges(costs.len(), queries);
    let busy = shards.iter().zip(&costs).map(|(s, c)| s.len() as u64 * c);
    busy.max().unwrap_or(0)
}

/// Sharded over Ptree cores behind one shared-memory port, a later core pays
/// more per pass, so it gets a shorter shard.  On four cores at 64 queries
/// the shard lengths, makespans and speedups over one core of learned
/// KDDCup2k and MSNBC are pinned exactly (the even split's makespan beside
/// them); on all nine circuits, 2, 3, 4 and 8 cores and 1, 7 and 64
/// queries, the makespan is never above the even split's and the cycle
/// accounting is exact.
#[test]
fn cost_sized_shards_on_the_fig4_circuits() {
    let ptree = ProcessorConfig::ptree();
    let compiler = Compiler::new(ptree.clone());
    // (circuit, shard lengths, makespan, even split's makespan, speedup);
    // re-recorded when slots holding the same indicator or parameter began
    // to share a data-memory word: a pass loads 92 rows where it loaded 475
    // on KDDCup2k, and 16 where it loaded 53 on MSNBC, so later cores stall
    // less and the shards even out.
    let pinned = [
        (
            "KDDCup2k",
            [18u64, 17, 15, 14],
            19_448u64,
            21_248u64,
            "3.4619",
        ),
        ("MSNBC", [18, 17, 15, 14], 2_686, 3_040, "3.3835"),
    ];
    let machines: Vec<MultiCoreProcessor> = [2usize, 3, 4, 8]
        .into_iter()
        .map(|cores| {
            MultiCoreProcessor::new(MultiCoreConfig::new(cores, ptree.clone())).expect("machine")
        })
        .collect();
    let mut seen = 0;
    for benchmark in Benchmark::all() {
        let ops = OpList::from_spn(&benchmark.spn());
        let compiled = compiler.compile_op_list(ops).expect("compiles");
        let pass = compiled.program.perf();
        for machine in &machines {
            let cores = machine.config().cores;
            for queries in [1usize, 7, 64] {
                let context = format!("{}: {queries} queries on {cores} cores", benchmark.name());
                let perf = machine
                    .sharded_perf(&compiled.program, queries)
                    .expect("same machine");
                perf.check_accounting()
                    .unwrap_or_else(|err| panic!("{context}: {err}"));
                let even = even_split_makespan(machine, &pass, queries);
                assert!(perf.makespan_cycles <= even, "{context}: {perf}");
                let Some(&(_, lengths, makespan, pinned_even, speedup)) =
                    pinned.iter().find(|p| p.0 == benchmark.name())
                else {
                    continue;
                };
                if (cores, queries) != (4, 64) {
                    continue;
                }
                seen += 1;
                let got: Vec<u64> = perf.per_core.iter().map(|c| c.work.queries).collect();
                assert_eq!(got, lengths, "{context}");
                assert_eq!(perf.makespan_cycles, makespan, "{context}");
                assert_eq!(even, pinned_even, "{context}");
                let single = pass.cycles * queries as u64;
                let got = format!("{:.4}", single as f64 / perf.makespan_cycles as f64);
                assert_eq!(got, speedup, "{context}");
            }
        }
    }
    assert_eq!(seen, pinned.len(), "a pinned circuit is missing");
}

/// A single-leaf SPN compiles to no instruction, so a pass costs no core
/// anything and the batch splits evenly.
#[test]
fn a_free_pass_splits_evenly() {
    let mut builder = SpnBuilder::new(1);
    let leaf = builder.indicator(VarId(0), true);
    let spn = builder.finish(leaf).expect("a leaf is an SPN");
    let ptree = ProcessorConfig::ptree();
    let compiled = Compiler::new(ptree.clone())
        .compile_op_list(OpList::from_spn(&spn))
        .expect("compiles");
    assert!(compiled.program.instructions.is_empty());
    let processor = MultiCoreProcessor::new(MultiCoreConfig::new(4, ptree)).expect("machine");
    assert_eq!(processor.pass_costs(&compiled.program.perf()), [0; 4]);
    let perf = processor
        .sharded_perf(&compiled.program, 10)
        .expect("same machine");
    let lengths: Vec<u64> = perf.per_core.iter().map(|c| c.work.queries).collect();
    assert_eq!(lengths, [3, 3, 2, 2]);
    assert_eq!(perf.makespan_cycles, 0);
}
