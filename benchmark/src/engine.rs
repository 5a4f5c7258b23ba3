//! The two offline workloads over `Engine<CpuModel>`: `engine-batch` (large
//! marginal batches, where input fill and the lane-blocked kernel do all the
//! work) and `engine-modes` (the same engine used seven other ways).
//! Single-threaded throughout: `Parallelism::serial()` is what
//! `execute_query` runs with.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use rand::rngs::StdRng;
use spn_core::incremental::ConeAnalysis;
use spn_core::random::{random_spn, RandomSpnConfig};
use spn_core::{
    reference_query_with, vectorized, Evidence, EvidenceBatch, NumericMode, QueryBatch,
    SampleBatch, SampleMethod, SampleSpec, Spn,
};
use spn_learn::Benchmark;
use spn_platforms::{BackendError, CpuModel, Engine, EngineOptions, EvalSession, QueryOutput};

use crate::gen::{self, Flip};
use crate::harness::{self, Args, Component, Report};
use crate::sim;
use crate::trace::Tracer;

/// Rows per `engine-batch` call.
const BATCH_ROWS: usize = 1024;
/// Rows per batched `engine-modes` call.
const MODE_ROWS: usize = 256;
/// Rows and likelihood-weighting draws per row of an `expectation` call: a
/// draw costs a circuit pass, so 16 rows already make the call the longest
/// of the seven.
const EXPECTATION_ROWS: usize = 16;
const EXPECTATION_DRAWS: u32 = 256;
/// Steps per lap of the one-flip and the all-variables session walks.
const SPARSE_LAP: usize = 2048;
const DENSE_LAP: usize = 64;
/// Set-up repeats until this much time is spent (at least three times).
pub const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// The session circuit: fixed by the workload definition, like the learned
/// ones — `--seed` never reaches it.
pub const SESSION_VARS: usize = 96;
pub fn session_circuit() -> Spn {
    use rand::SeedableRng;
    random_spn(
        &RandomSpnConfig::with_vars(SESSION_VARS),
        &mut StdRng::seed_from_u64(0x5e55),
    )
}

/// Order-sensitive digest of a value vector's bit patterns.
pub fn checksum(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |acc, v| {
        (acc ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn cpu_engine(spn: &Spn, lanes: usize) -> Result<Engine<CpuModel>, BackendError> {
    Engine::new(CpuModel::new(), spn, EngineOptions::new().lanes(lanes))
}

/// Relative tolerance of the first-pass oracle check.  The interpreted
/// oracle walks the graph and the engine the flattened program, so the two
/// associate sums differently and agree to rounding, not to the bit; every
/// later pass is compared bit for bit with the first through its digest.
const ORACLE_TOLERANCE: f64 = 1e-12;

/// Whether engine values match the oracle's within [`ORACLE_TOLERANCE`].
pub fn matches_oracle(values: &[f64], oracle: &[f64]) -> bool {
    values.len() == oracle.len()
        && values
            .iter()
            .zip(oracle)
            .all(|(v, e)| (v - e).abs() <= ORACLE_TOLERANCE * e.abs().max(f64::MIN_POSITIVE))
}

/// Checks a first pass against `spn_core::query::reference_query_with`.
fn check_against_oracle(
    report: &mut Report,
    what: &str,
    spn: &Spn,
    query: &QueryBatch,
    values: &[f64],
) -> Result<(), BackendError> {
    let oracle = reference_query_with(spn, query, NumericMode::Linear)?;
    report.check(matches_oracle(values, &oracle.values), || {
        format!("{what}: first pass differs from reference_query_with")
    });
    Ok(())
}

/// One batched component: `call` runs the engine on a fixed query, and the
/// digest of its values is compared on every call.
fn batched<'a>(
    name: &str,
    query: &'a QueryBatch,
    expected: u64,
    mut call: impl FnMut(&QueryBatch) -> Result<QueryOutput, BackendError> + 'a,
) -> Component<'a> {
    Component {
        name: name.to_string(),
        queries_per_op: query.len() as f64,
        run: Box::new(move |tracer, op| {
            let out = tracer.span("platforms.execute_query", op, || call(query));
            out.is_ok_and(|out| checksum(&out.values) == expected)
        }),
    }
}

// ---------------------------------------------------------------- engine-batch

struct BatchCircuit {
    name: &'static str,
    spn: Spn,
    engine: Engine<CpuModel>,
}

fn build_batch(queries: &[QueryBatch]) -> Result<Vec<BatchCircuit>, BackendError> {
    [
        (Benchmark::Msnbc, "msnbc"),
        (Benchmark::KddCup2k, "kddcup2k"),
    ]
    .into_iter()
    .zip(queries)
    .map(|((benchmark, name), query)| {
        let spn = benchmark.spn();
        let mut engine = cpu_engine(&spn, vectorized::MAX_LANES)?;
        engine.execute_query(query)?;
        Ok(BatchCircuit { name, spn, engine })
    })
    .collect()
}

/// Engine calls replayed stage by stage per circuit in the traced run.
const REPLAYS: u64 = 12;

/// Replays `query` through the public fill and kernel functions the engine
/// calls per lane block, one span each, beside a span of the engine call
/// itself: the split of `execute_query` into its two inner layers.
fn staged_batch_replay(
    tracer: &mut Tracer,
    report: &mut Report,
    circuit: &mut BatchCircuit,
    query: &QueryBatch,
    expected: u64,
) -> Result<(), BackendError> {
    let QueryBatch::Marginal(batch) = query else {
        return Err("engine-batch replays marginal batches".into());
    };
    let lanes = vectorized::MAX_LANES;
    let ops = circuit.engine.ops().clone();
    let recipe = ops.input_recipe();
    let mut tile = vec![0.0; recipe.num_inputs() * lanes];
    let mut results = vec![0.0; ops.num_ops() * lanes];
    let mut values = vec![0.0; batch.len()];
    for op in 0..REPLAYS {
        tracer.span("replay.execute_query", op, || {
            circuit.engine.execute_query(query).map(drop)
        })?;
        let replay = tracer.begin("replay.staged", op);
        for start in (0..batch.len()).step_by(lanes) {
            tracer.span("core.fill_lane_block", op, || {
                recipe.fill_lane_block(batch, start, lanes, &mut tile);
            });
            tracer.span("core.run_lane_block", op, || {
                vectorized::run_lane_block(
                    &ops,
                    lanes,
                    &tile,
                    &mut results,
                    &mut values[start..start + lanes],
                );
            });
        }
        tracer.end(replay);
        report.check(checksum(&values) == expected, || {
            format!(
                "{}: staged fill + kernel replay differs from the engine",
                circuit.name
            )
        });
    }
    Ok(())
}

/// `engine-batch`.
///
/// # Errors
///
/// Returns the engine's error when a circuit does not compile or run.
pub fn run_batch(args: &Args, tracer: &mut Tracer) -> Result<Report, BackendError> {
    let mut report = Report::default();
    let mut rng = gen::rng(args.seed, 0xba7c);
    let queries: Vec<QueryBatch> = [Benchmark::Msnbc, Benchmark::KddCup2k]
        .iter()
        .map(|b| {
            QueryBatch::Marginal(gen::evidence_batch(
                &mut rng,
                b.spec().num_vars,
                BATCH_ROWS,
                false,
            ))
        })
        .collect();

    let mut circuits = harness::setup(args, &mut report, SETUP_BUDGET, || build_batch(&queries))?;

    let mut expected = Vec::new();
    for (c, query) in circuits.iter_mut().zip(&queries) {
        let first = c.engine.execute_query(query)?;
        check_against_oracle(&mut report, c.name, &c.spn, query, &first.values)?;
        expected.push(checksum(&first.values));
    }
    let names = ["platforms.msnbc_qps", "platforms.kddcup2k_qps"];
    let mut components: Vec<Component<'_>> = circuits
        .iter_mut()
        .zip(&queries)
        .zip(&expected)
        .map(|((c, query), &sum)| {
            let engine = &mut c.engine;
            batched(c.name, query, sum, move |q| engine.execute_query(q))
        })
        .collect();
    let measured = harness::measure(args, &mut components, tracer, &mut report);
    drop(components);
    if args.trace {
        for (r, name) in measured.iter().zip(names) {
            report.set(name, r.rate().fast);
        }
        let mut total_ops = 0.0;
        for ((c, query), &sum) in circuits.iter_mut().zip(&queries).zip(&expected) {
            staged_batch_replay(tracer, &mut report, c, query, sum)?;
            total_ops += (c.engine.ops().num_ops() * query.len()) as f64;
        }
        let totals = tracer.totals();
        let ns = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64);
        let (fill, kernel, call) = (
            ns("core.fill_lane_block"),
            ns("core.run_lane_block"),
            ns("replay.execute_query"),
        );
        let replays = REPLAYS as f64;
        report.set(
            "core.fill_ns_per_query",
            fill / (replays * (2 * BATCH_ROWS) as f64),
        );
        report.set("core.kernel_ns_per_op", kernel / (replays * total_ops));
        report.set(
            "platforms.engine_overhead_share",
            1.0 - (fill + kernel) / call,
        );
        report.note(format!(
            "execute_query split: fill {:.1} %, kernel {:.1} %, engine overhead {:.1} %",
            100.0 * fill / call,
            100.0 * kernel / call,
            100.0 * (1.0 - (fill + kernel) / call)
        ));
    }
    let sim_circuits: Vec<(&str, &Spn)> = circuits.iter().map(|c| (c.name, &c.spn)).collect();
    sim::summarize_circuits(args, &sim_circuits, tracer, &mut report)?;
    Ok(report)
}

// ---------------------------------------------------------------- engine-modes

/// Seeded inputs of `engine-modes`.
struct ModeInputs {
    joint: QueryBatch,
    map: QueryBatch,
    conditional: QueryBatch,
    expectation: QueryBatch,
    singles: Vec<Evidence>,
    sparse_walk: Vec<Vec<Flip>>,
    dense_walk: Vec<Vec<Flip>>,
}

fn mode_inputs(seed: u64) -> ModeInputs {
    let vars = Benchmark::Msnbc.spec().num_vars;
    let mut rng = gen::rng(seed, 0x30de);
    let spec = SampleSpec {
        seed,
        n_samples: EXPECTATION_DRAWS,
        method: SampleMethod::LikelihoodWeighted,
    };
    ModeInputs {
        joint: QueryBatch::Joint(gen::evidence_batch(&mut rng, vars, MODE_ROWS, true)),
        map: QueryBatch::Map(gen::evidence_batch(&mut rng, vars, MODE_ROWS, false)),
        conditional: QueryBatch::Conditional(gen::conditional_batch(&mut rng, vars, MODE_ROWS)),
        expectation: QueryBatch::Expectation(SampleBatch::new(
            gen::evidence_batch(&mut rng, vars, EXPECTATION_ROWS, false),
            spec,
        )),
        singles: (0..MODE_ROWS)
            .map(|_| gen::evidence(&mut rng, vars, false))
            .collect(),
        sparse_walk: gen::flip_walk(&mut rng, SESSION_VARS, SPARSE_LAP, 0.0),
        // The walk's first `SESSION_VARS` steps flip one variable each;
        // every later one flips them all.
        dense_walk: gen::flip_walk(&mut rng, SESSION_VARS, SESSION_VARS + DENSE_LAP, 1.0)
            .split_off(SESSION_VARS),
    }
}

/// Engines and sessions of `engine-modes`, warmed: every batched mode has
/// run once (so the MAP plan is compiled) and both sessions have walked one
/// lap, after which every lap repeats the same states.
struct ModeState {
    msnbc: Spn,
    session_spn: Spn,
    batched: Engine<CpuModel>,
    scalar: Engine<CpuModel>,
    session_engine: Engine<CpuModel>,
    sparse: EvalSession,
    dense: EvalSession,
}

fn build_modes(inputs: &ModeInputs) -> Result<ModeState, BackendError> {
    let msnbc = Benchmark::Msnbc.spn();
    let mut batched = cpu_engine(&msnbc, vectorized::MAX_LANES)?;
    for query in [
        &inputs.joint,
        &inputs.map,
        &inputs.conditional,
        &inputs.expectation,
    ] {
        batched.execute_query(query)?;
    }
    let mut scalar = cpu_engine(&msnbc, 1)?;
    scalar.execute(&inputs.singles[0])?;
    let session_spn = session_circuit();
    let mut session_engine = cpu_engine(&session_spn, vectorized::MAX_LANES)?;
    let marginal = Evidence::marginal(SESSION_VARS);
    let mut sparse = session_engine.open_session(&marginal)?;
    for flips in &inputs.sparse_walk {
        session_engine.session_delta(&mut sparse, flips)?;
    }
    let mut dense = session_engine.open_session(&marginal)?;
    for flips in &inputs.dense_walk {
        session_engine.session_delta(&mut dense, flips)?;
    }
    Ok(ModeState {
        msnbc,
        session_spn,
        batched,
        scalar,
        session_engine,
        sparse,
        dense,
    })
}

/// The value every step of a walk's steady-state lap must produce: a
/// from-scratch engine evaluation of the evidence the step leaves behind
/// (itself checked against the oracle), which a delta must match bit for
/// bit.
fn walk_expectations(
    report: &mut Report,
    spn: &Spn,
    engine: &mut Engine<CpuModel>,
    mut evidence: Evidence,
    walk: &[Vec<Flip>],
) -> Result<Vec<u64>, BackendError> {
    let mut rows = EvidenceBatch::with_capacity(evidence.num_vars(), walk.len());
    for flips in walk {
        for &(var, obs) in flips {
            match obs {
                Some(value) => evidence.observe(var, value),
                None => evidence.forget(var),
            }
        }
        rows.push(&evidence)?;
    }
    let query = QueryBatch::Marginal(rows);
    let scratch = engine.execute_query(&query)?;
    check_against_oracle(report, "session walk", spn, &query, &scratch.values)?;
    Ok(scratch.values.iter().map(|v| v.to_bits()).collect())
}

/// One session component: the next delta of a cyclic walk, its value
/// compared with the oracle's on every call.
fn session_component<'a>(
    name: &'static str,
    engine: Rc<RefCell<&'a mut Engine<CpuModel>>>,
    session: &'a mut EvalSession,
    walk: &'a [Vec<Flip>],
    expected: &'a [u64],
) -> Component<'a> {
    let mut step = 0;
    Component {
        name: name.to_string(),
        queries_per_op: 1.0,
        run: Box::new(move |tracer, op| {
            let flips = &walk[step];
            let outcome = tracer.span("platforms.session_delta", op, || {
                engine.borrow_mut().session_delta(session, flips)
            });
            let ok = outcome.is_ok_and(|o| o.value.to_bits() == expected[step]);
            step = (step + 1) % walk.len();
            ok
        }),
    }
}

/// `engine-modes`.
///
/// # Errors
///
/// Returns the engine's error when a circuit does not compile or run.
pub fn run_modes(args: &Args, tracer: &mut Tracer) -> Result<Report, BackendError> {
    let mut report = Report::default();
    let inputs = mode_inputs(args.seed);
    let mut state = harness::setup(args, &mut report, SETUP_BUDGET, || build_modes(&inputs))?;

    // First pass against the oracle; later passes against its digest.
    let mut sums = Vec::new();
    for (name, query) in [
        ("joint", &inputs.joint),
        ("map", &inputs.map),
        ("conditional", &inputs.conditional),
    ] {
        let first = state.batched.execute_query(query)?;
        check_against_oracle(&mut report, name, &state.msnbc, query, &first.values)?;
        sums.push(checksum(&first.values));
    }
    // An estimate is checked against its own reported interval.  A 99 %
    // interval misses one row in a hundred by construction, so a row fails
    // only beyond `HARD_Z` standard errors (the repo's own pre-registered
    // rule for seeded statistical checks); the share inside 99 % is printed.
    const HARD_Z: f64 = 7.0;
    let estimate = state.batched.execute_query(&inputs.expectation)?;
    let exact = reference_query_with(&state.msnbc, &inputs.expectation, NumericMode::Linear)?;
    let std_err = estimate
        .std_err
        .as_deref()
        .ok_or("expectation reports no std_err")?;
    let z: Vec<f64> = estimate
        .values
        .iter()
        .zip(&exact.values)
        .zip(std_err)
        .map(|((v, e), se)| (v - e).abs() / (se + 1e-12 * e.abs()))
        .collect();
    let worst = z.iter().copied().fold(0.0, f64::max);
    report.check(z.len() == EXPECTATION_ROWS && worst <= HARD_Z, || {
        format!("expectation: a row lies {worst:.1} standard errors from the exact value")
    });
    report.note(format!(
        "expectation: {} of {} rows within their 99 % interval, worst {worst:.2} standard errors",
        z.iter().filter(|&&z| z <= 2.576).count(),
        z.len()
    ));
    sums.push(checksum(&estimate.values));

    let single_query = QueryBatch::Marginal(EvidenceBatch::from_evidences(
        state.msnbc.num_vars(),
        &inputs.singles,
    )?);
    let mut single_values = Vec::with_capacity(inputs.singles.len());
    for evidence in &inputs.singles {
        single_values.push(state.scalar.execute(evidence)?.0);
    }
    check_against_oracle(
        &mut report,
        "single",
        &state.msnbc,
        &single_query,
        &single_values,
    )?;
    let single_expected: Vec<u64> = single_values.iter().map(|v| v.to_bits()).collect();
    let sparse_expected = walk_expectations(
        &mut report,
        &state.session_spn,
        &mut state.session_engine,
        state.sparse.evidence().clone(),
        &inputs.sparse_walk,
    )?;
    let dense_expected = walk_expectations(
        &mut report,
        &state.session_spn,
        &mut state.session_engine,
        state.dense.evidence().clone(),
        &inputs.dense_walk,
    )?;

    // One lap of each walk under spans of their own, while both sessions
    // sit on a lap boundary: deterministic counts (the slices below run a
    // timing-dependent number of steps).
    if args.trace {
        let mut lap = Tracer::new(true);
        let (mut recomputed, mut full_passes) = (0usize, 0usize);
        let steps = inputs.sparse_walk.len() + inputs.dense_walk.len();
        for (session, walk, expected) in [
            (&mut state.sparse, &inputs.sparse_walk, &sparse_expected),
            (&mut state.dense, &inputs.dense_walk, &dense_expected),
        ] {
            for (flips, &want) in walk.iter().zip(expected.iter()) {
                let outcome = lap.span("platforms.session_delta", 0, || {
                    state.session_engine.session_delta(session, flips)
                })?;
                report.check(outcome.value.to_bits() == want, || {
                    "session delta differs from a from-scratch evaluation".to_string()
                });
                recomputed += outcome.recomputed_ops;
                full_passes += usize::from(outcome.full_pass);
            }
        }
        report.set(
            "core.delta_ns",
            lap.totals()["platforms.session_delta"].total_ns as f64 / steps as f64,
        );
        report.set(
            "core.delta_recomputed_ops_mean",
            recomputed as f64 / steps as f64,
        );
        report.set(
            "core.delta_full_pass_share",
            full_passes as f64 / steps as f64,
        );
    }

    let measured = {
        let batched_engine = Rc::new(RefCell::new(&mut state.batched));
        let session_engine = Rc::new(RefCell::new(&mut state.session_engine));
        let mut components: Vec<Component<'_>> = [
            ("joint", &inputs.joint),
            ("map", &inputs.map),
            ("conditional", &inputs.conditional),
            ("expectation", &inputs.expectation),
        ]
        .into_iter()
        .zip(&sums)
        .map(|((name, query), &expected)| {
            let engine = Rc::clone(&batched_engine);
            batched(name, query, expected, move |q| {
                engine.borrow_mut().execute_query(q)
            })
        })
        .collect();
        let (scalar, singles, expected) = (&mut state.scalar, &inputs.singles, &single_expected);
        let mut next = 0;
        components.push(Component {
            name: "single".to_string(),
            queries_per_op: 1.0,
            run: Box::new(move |tracer, op| {
                let out = tracer.span("platforms.execute", op, || scalar.execute(&singles[next]));
                let ok = out.is_ok_and(|(value, _)| value.to_bits() == expected[next]);
                next = (next + 1) % singles.len();
                ok
            }),
        });
        components.push(session_component(
            "session-sparse",
            Rc::clone(&session_engine),
            &mut state.sparse,
            &inputs.sparse_walk,
            &sparse_expected,
        ));
        components.push(session_component(
            "session-dense",
            Rc::clone(&session_engine),
            &mut state.dense,
            &inputs.dense_walk,
            &dense_expected,
        ));
        harness::measure(args, &mut components, tracer, &mut report)
    };
    if args.trace {
        let rate = |name: &str| {
            measured
                .iter()
                .find(|r| r.name == name)
                .map_or(f64::NAN, |r| r.rate().fast)
        };
        for (component, metric) in [
            ("joint", "platforms.joint_qps"),
            ("map", "platforms.map_qps"),
            ("conditional", "platforms.conditional_qps"),
            ("expectation", "platforms.expectation_qps"),
            ("single", "platforms.single_qps"),
            ("session-sparse", "platforms.session_sparse_qps"),
            ("session-dense", "platforms.session_dense_qps"),
        ] {
            report.set(metric, rate(component));
        }
        report.set("platforms.execute_single_ns", 1e9 / rate("single"));
        report.set(
            "core.sample_ns_per_draw",
            1e9 / (rate("expectation") * f64::from(EXPECTATION_DRAWS)),
        );
        staged_modes_replay(tracer, &mut report, &state, &single_query, &single_expected)?;
    }
    // The 110k-op session circuit takes half a minute to compile for the
    // simulated processors, so the simulated columns cover MSNBC alone.
    sim::summarize_circuits(args, &[("msnbc", &state.msnbc)], tracer, &mut report)?;
    Ok(report)
}

/// Layer calls `engine-modes` leans on, timed from outside: the cone
/// analysis a session-capable compile pays for, and the scalar kernel the
/// single-query path runs.
fn staged_modes_replay(
    tracer: &mut Tracer,
    report: &mut Report,
    state: &ModeState,
    singles: &QueryBatch,
    expected: &[u64],
) -> Result<(), BackendError> {
    const CONE_BUILDS: u64 = 5;
    for op in 0..CONE_BUILDS {
        tracer.span("core.cone_analysis", op, || {
            std::hint::black_box(ConeAnalysis::from_op_list(state.session_engine.ops()));
        });
    }
    let QueryBatch::Marginal(batch) = singles else {
        return Err("the single-query rows form a marginal batch".into());
    };
    let ops = state.scalar.ops();
    let recipe = ops.input_recipe();
    let mut tile = vec![0.0; recipe.num_inputs()];
    let mut results = vec![0.0; ops.num_ops()];
    let mut out = [0.0];
    for (q, &want) in expected.iter().enumerate() {
        recipe.fill_lane_block(batch, q, 1, &mut tile);
        tracer.span("core.run_lane_block.scalar", q as u64, || {
            vectorized::run_lane_block(ops, 1, &tile, &mut results, &mut out);
        });
        report.check(out[0].to_bits() == want, || {
            "scalar kernel replay differs from Engine::execute".to_string()
        });
    }
    let totals = tracer.totals();
    report.set(
        "core.cone_build_s",
        totals["core.cone_analysis"].total_ns as f64 / 1e9 / CONE_BUILDS as f64,
    );
    report.set(
        "core.kernel_scalar_ns_per_op",
        totals["core.run_lane_block.scalar"].total_ns as f64
            / (expected.len() * ops.num_ops()) as f64,
    );
    Ok(())
}
