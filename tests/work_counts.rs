//! Exact work counts of the hot calls, starting with heap allocations.
//!
//! This binary installs a counting global allocator: every `alloc`,
//! `alloc_zeroed` and `realloc` adds one to a counter of the calling
//! thread, so tests that run side by side on the harness's threads do not
//! see each other's allocations.  Each test warms its call up once, so
//! buffers that grow to their working size are counted there, and then
//! pins the allocations of each later call exactly.  A change that adds an
//! allocation to one of these paths fails here; one that removes an
//! allocation re-records the pin on purpose.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spn_accel::compiler::Compiler;
use spn_accel::core::flatten::OpList;
use spn_accel::core::{ConditionalBatch, Evidence, EvidenceBatch, QueryBatch, QueryMode};
use spn_accel::learn::Benchmark;
use spn_accel::platforms::{CpuModel, Engine, EngineOptions};
use spn_accel::processor::{ProcessorConfig, SimState};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations of each thread.
struct Counting;

fn count() {
    // `try_with`: a thread tearing down its locals may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` asks of this type; counting touches
// only a thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The replay of a checked program writes into the caller's `SimState`,
/// sized by the first block of each width: after that a block allocates
/// nothing, at every lane width.
#[test]
fn a_checked_ptree_block_replays_without_allocating() {
    // The counter sees an allocation, so a zero below is a measured zero.
    assert_eq!(allocations(|| drop(std::hint::black_box(vec![0u8; 1]))), 1);
    let ops = OpList::from_spn(&Benchmark::Msnbc.spn());
    let artifact = Compiler::new(ProcessorConfig::ptree())
        .compile_op_list(ops.clone())
        .expect("MSNBC compiles for Ptree");
    let batch = EvidenceBatch::marginals(ops.num_vars(), 8);
    let slots = artifact.program.input_layout.len();
    let mut state = SimState::default();
    for lanes in [1, 2, 4, 8] {
        let mut tile = vec![0.0; slots * lanes];
        artifact
            .input_recipe()
            .fill_lane_block(&batch, 0, lanes, &mut tile);
        let mut outputs = vec![0.0; lanes];
        artifact
            .program
            .run_block(lanes, &tile, &mut outputs, &mut state);
        for _ in 0..3 {
            let n = allocations(|| {
                artifact
                    .program
                    .run_block(lanes, &tile, &mut outputs, &mut state);
            });
            assert_eq!(n, 0, "run_block at {lanes} lanes");
        }
    }
}

/// Allocations of one `Engine<CpuModel>::execute_query` call on a
/// 256-row marginal batch after one warm-up call, recorded when this pin
/// was added.  They are the answer the call hands back: the value vector
/// and the report's platform name.
const EXECUTE_QUERY_ALLOCATIONS: u64 = 2;

#[test]
fn a_marginal_query_on_the_cpu_model_allocates_only_its_answer() {
    let spn = Benchmark::Msnbc.spn();
    let mut engine =
        Engine::new(CpuModel::new(), &spn, EngineOptions::default()).expect("engine builds");
    let query = QueryBatch::Marginal(EvidenceBatch::marginals(spn.num_vars(), 256));
    engine.execute_query(&query).expect("warm-up call");
    for _ in 0..3 {
        let n = allocations(|| {
            engine.execute_query(&query).expect("marginal batch runs");
        });
        assert_eq!(n, EXECUTE_QUERY_ALLOCATIONS, "execute_query");
    }
}

/// Allocations of one `Engine<CpuModel>::execute_query` call at the
/// default lane width on a 1024-row KDDCup2k marginal batch after one
/// warm-up call, recorded when this pin was added: the answer alone, as on
/// MSNBC, however many lane blocks the batch is cut into.
const WIDE_BATCH_ALLOCATIONS: u64 = 2;

#[test]
fn a_1024_row_kddcup2k_batch_at_the_default_width_allocates_only_its_answer() {
    let spn = Benchmark::KddCup2k.spn();
    let num_vars = spn.num_vars();
    let mut engine =
        Engine::new(CpuModel::new(), &spn, EngineOptions::default()).expect("engine builds");
    let rows: Vec<Evidence> = (0..1024).map(|q| row(num_vars, q, 3)).collect();
    let batch = EvidenceBatch::from_evidences(num_vars, &rows).expect("rows");
    let query = QueryBatch::Marginal(batch);
    engine.execute_query(&query).expect("warm-up call");
    for _ in 0..3 {
        let n = allocations(|| {
            engine.execute_query(&query).expect("marginal batch runs");
        });
        assert_eq!(n, WIDE_BATCH_ALLOCATIONS, "execute_query");
    }
}

/// Query `q`'s row over `num_vars` variables observing every `every`-th
/// variable, the first one shifted by `q`.
fn row(num_vars: usize, q: usize, every: usize) -> Evidence {
    let mut e = Evidence::marginal(num_vars);
    for var in (0..num_vars).filter(|var| (var + q).is_multiple_of(every)) {
        e.observe(var, (var * 7 + q).is_multiple_of(3));
    }
    e
}

/// A 256-row batch of `mode` over MSNBC: fully observed rows for joint
/// queries, rows observing every third variable for MAP, and for
/// conditionals a target on one variable given every fifth.
fn msnbc_query(num_vars: usize, mode: QueryMode) -> QueryBatch {
    let row = |q: usize, every: usize| row(num_vars, q, every);
    let rows = 0..256;
    match mode {
        QueryMode::Joint => {
            let rows: Vec<Evidence> = rows.map(|q| row(q, 1)).collect();
            QueryBatch::Joint(EvidenceBatch::from_evidences(num_vars, &rows).expect("rows"))
        }
        QueryMode::Map => {
            let rows: Vec<Evidence> = rows.map(|q| row(q, 3)).collect();
            QueryBatch::Map(EvidenceBatch::from_evidences(num_vars, &rows).expect("rows"))
        }
        QueryMode::Conditional => {
            let mut batch = ConditionalBatch::new(num_vars);
            for q in rows {
                let mut target = Evidence::marginal(num_vars);
                target.observe(q % num_vars, q % 2 == 0);
                batch.push(&target, &row(q, 5)).expect("rows");
            }
            QueryBatch::Conditional(batch)
        }
        other => unreachable!("{other} is not pinned here"),
    }
}

/// Allocations of one default-width `Engine<CpuModel>::execute_query` call per
/// mode after one warm-up call, recorded when these pins were added.  A
/// joint batch hands back what a marginal one does; a conditional runs two
/// passes and divides; a MAP batch adds the host traceback, whose work
/// lists and answer cost six allocations a row on MSNBC.
const JOINT_ALLOCATIONS: u64 = 2;
const CONDITIONAL_ALLOCATIONS: u64 = 4;
const MAP_ALLOCATIONS: u64 = 1541;

#[test]
fn joint_conditional_and_map_queries_on_the_cpu_model_allocate_a_pinned_count() {
    let spn = Benchmark::Msnbc.spn();
    let mut engine =
        Engine::new(CpuModel::new(), &spn, EngineOptions::default()).expect("engine builds");
    for (mode, pinned) in [
        (QueryMode::Joint, JOINT_ALLOCATIONS),
        (QueryMode::Conditional, CONDITIONAL_ALLOCATIONS),
        (QueryMode::Map, MAP_ALLOCATIONS),
    ] {
        let query = msnbc_query(spn.num_vars(), mode);
        engine.execute_query(&query).expect("warm-up call");
        for _ in 0..3 {
            let n = allocations(|| {
                engine.execute_query(&query).expect("batch runs");
            });
            assert_eq!(n, pinned, "execute_query {mode}");
        }
    }
}

/// Allocations of one `Engine::execute` call on a one-lane CPU engine
/// after one warm-up call, recorded when this pin was added.
const EXECUTE_SINGLE_ALLOCATIONS: u64 = 2;

#[test]
fn a_single_query_on_a_one_lane_engine_allocates_a_pinned_count() {
    let spn = Benchmark::Msnbc.spn();
    let options = EngineOptions::default().lanes(1);
    let mut engine = Engine::new(CpuModel::new(), &spn, options).expect("engine builds");
    let mut evidence = Evidence::marginal(spn.num_vars());
    evidence.observe(0, true);
    engine.execute(&evidence).expect("warm-up call");
    for _ in 0..3 {
        let n = allocations(|| {
            engine.execute(&evidence).expect("single query runs");
        });
        assert_eq!(n, EXECUTE_SINGLE_ALLOCATIONS, "execute");
    }
}
