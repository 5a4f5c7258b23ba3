//! The compile-once / execute-many inference engine.
//!
//! A [`Plan`] is the compile-once half as a type — one static program per
//! circuit, immutable and [`Arc`]-shared — and an [`Engine`] is a plan plus
//! the execution state private to the engine: the per-worker pool (whose
//! first slot is the serial path's state) and a one-query scratch batch.
//! What one engine compiles into the plan (the max-product program, on the
//! first MAP query) every engine over it sees at once.  Callers get the
//! two-phase execution model through one handle:
//!
//! * construct once ([`Engine::new`] with an [`EngineOptions`], or
//!   [`Engine::from_ops`] for an already-lowered program; compilation
//!   happens here), or share an existing plan ([`Engine::from_plan`]: no
//!   compilation, no copy of the program),
//! * stream [`EvidenceBatch`]es through [`Engine::execute_batch`] (serial)
//!   or [`Engine::execute_batch_parallel`] (sharded across a worker pool)
//!   with zero per-query allocation,
//! * answer richer workloads through [`Engine::execute_query`] /
//!   [`Engine::execute_query_parallel`], which lower
//!   [`QueryBatch`]es (joint / marginal / MAP / conditional) onto those same
//!   batched passes.
//!
//! Single-query [`Engine::execute`] is a thin convenience wrapper over a
//! one-element batch.  All five entry points are one private `run`: a serial
//! call is the sharded call with one shard.

use std::sync::{Arc, Mutex, OnceLock};

use spn_core::batch::EvidenceBatch;
use spn_core::flatten::OpList;
use spn_core::incremental::{ConeAnalysis, DeltaOutcome, IncrementalState};
use spn_core::precision::round_to;
use spn_core::query::{conditional_values, MaxProductProgram, QueryBatch};
use spn_core::sample::{SampleBatch, SampleRun, SamplerProgram};
use spn_core::{Evidence, NumericMode, Precision, Spn, SpnError};
use spn_processor::{MultiCoreProcessor, PerfReport};

use crate::backend::{Backend, BackendError, BatchResult, Parallelism, WorkerState};
use crate::options::EngineOptions;

/// The MAP half of a [`Plan`]: the max-product program plus the backend's
/// compiled artifact for it.  Compiled at most once per plan, by the first
/// MAP query of any engine over it (or eagerly via [`Engine::prepare_map`]).
pub struct MapArtifact<B: Backend> {
    program: Arc<MaxProductProgram>,
    compiled: Arc<B::Compiled>,
}

impl<B: Backend> Clone for MapArtifact<B> {
    fn clone(&self) -> Self {
        MapArtifact {
            program: Arc::clone(&self.program),
            compiled: Arc::clone(&self.compiled),
        }
    }
}

/// Everything about one circuit that is compiled once and then only read.
/// Dropping the last `Arc` of a plan drops every artifact with it.
pub struct Plan<B: Backend> {
    backend: B,
    ops: OpList,
    compiled: B::Compiled,
    map: OnceLock<MapArtifact<B>>,
    /// Held while the max-product program compiles, so engines racing to
    /// the first MAP query compile it once (`OnceLock::get_or_try_init`,
    /// which would do this alone, is not stable).
    map_compiling: Mutex<()>,
    sampler: Option<Arc<SamplerProgram>>,
}

impl<B: Backend> Plan<B> {
    /// Compiles the already-lowered `ops` with `backend`.  `sampler` serves
    /// the approximate (sample / expectation) query modes and must come from
    /// the graph `ops` was lowered from; without one they are rejected.
    ///
    /// # Errors
    ///
    /// Returns an error when the backend cannot compile the program.
    pub fn compile(
        backend: B,
        ops: OpList,
        sampler: Option<Arc<SamplerProgram>>,
    ) -> Result<Plan<B>, BackendError> {
        let compiled = backend.compile(&ops)?;
        Ok(Plan {
            backend,
            ops,
            compiled,
            map: OnceLock::new(),
            map_compiling: Mutex::new(()),
            sampler,
        })
    }

    /// The lowered sum-product program.
    pub fn ops(&self) -> &OpList {
        &self.ops
    }

    /// The sampler, when the plan was built from a graph.
    pub fn sampler(&self) -> Option<&Arc<SamplerProgram>> {
        self.sampler.as_ref()
    }

    /// The max-product artifact, if some engine has compiled it already.
    pub fn map(&self) -> Option<&MapArtifact<B>> {
        self.map.get()
    }

    /// The max-product artifact, compiling it on the first call (a failed
    /// compile is tried again by the next).
    fn ensure_map(&self) -> Result<&MapArtifact<B>, BackendError> {
        if let Some(map) = self.map.get() {
            return Ok(map);
        }
        let _compiling = self
            .map_compiling
            .lock()
            .expect("a max-product compile panicked");
        if let Some(map) = self.map.get() {
            return Ok(map);
        }
        let program = MaxProductProgram::from_op_list(&self.ops);
        let compiled = Arc::new(self.backend.compile(program.ops())?);
        Ok(self.map.get_or_init(|| MapArtifact {
            program: Arc::new(program),
            compiled,
        }))
    }

    /// Fills the max-product slot with `map` when it is still empty, and
    /// does nothing otherwise.  `map` must be the artifact of a plan over the
    /// same program and backend configuration.
    pub fn offer_map(&self, map: MapArtifact<B>) {
        let _ = self.map.set(map);
    }
}

/// Values, optional MAP assignments and accumulated counters of one query
/// batch.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// One value per query, in batch order: a probability for joint /
    /// marginal / conditional queries, the max-product circuit value for MAP
    /// queries, the estimated `P(e)` for expectation queries, and the
    /// per-sample weights (`n_samples` per query) for sample queries — in
    /// the engine's numeric domain, quantized to its emulated precision.
    pub values: Vec<f64>,
    /// The maximising complete assignment per MAP query, or the drawn
    /// assignments (`n_samples` per query, row-major) for sample batches;
    /// `None` otherwise.
    pub assignments: Option<Vec<Vec<bool>>>,
    /// Standard error per query for the approximate (sample / expectation)
    /// modes — always on the linear probability scale, never quantized;
    /// `None` for exact modes.
    pub std_err: Option<Vec<f64>>,
    /// Total samples drawn answering the batch (zero for exact modes).
    pub samples: u64,
    /// Accumulated performance counters.  [`PerfReport::queries`] counts
    /// *circuit passes*, so a conditional batch reports two passes per
    /// logical query.
    pub perf: PerfReport,
}

/// One client's retained evaluation state over an [`Engine`]: the evidence
/// as of the last query plus, on backends with cone support, the previous
/// pass's input and per-op result buffers.
///
/// Created by [`Engine::open_session`], advanced by
/// [`Engine::session_delta`].  Sessions are independent of each other and of
/// the engine's batch paths — a serving layer keeps one per connected
/// client; the per-program [`ConeAnalysis`] is shared, the buffers are not.
pub struct EvalSession {
    /// `Some` on backends that support incremental cone re-execution.
    cones: Option<Arc<ConeAnalysis>>,
    state: IncrementalState,
    evidence: Evidence,
    value: f64,
}

impl EvalSession {
    /// The circuit value under the session's current evidence.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The session's current evidence (the seed evidence with every
    /// successful delta applied).
    pub fn evidence(&self) -> &Evidence {
        &self.evidence
    }

    /// Whether deltas run incrementally (`false` means every delta is a
    /// full pass on a backend without cone support).
    pub fn is_incremental(&self) -> bool {
        self.cones.is_some()
    }

    /// The reachability cones backing this session, when incremental.
    pub fn cone_analysis(&self) -> Option<&ConeAnalysis> {
        self.cones.as_deref()
    }

    /// Applies validated flips to the tracked evidence.
    fn apply_to_evidence(&mut self, flips: &[(usize, Option<bool>)]) {
        for &(var, observation) in flips {
            match observation {
                Some(value) => self.evidence.observe(var, value),
                None => self.evidence.forget(var),
            }
        }
    }
}

/// A backend bound to one compiled circuit, ready to serve queries.
///
/// ```
/// use spn_core::{random::{random_spn, RandomSpnConfig}, EvidenceBatch};
/// use spn_platforms::{CpuModel, Engine, EngineOptions};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), spn_platforms::BackendError> {
/// let spn = random_spn(&RandomSpnConfig::with_vars(8), &mut StdRng::seed_from_u64(1));
/// let mut engine = Engine::new(CpuModel::new(), &spn, EngineOptions::default())?;
///
/// let batch = EvidenceBatch::marginals(8, 64);
/// let result = engine.execute_batch(&batch)?;
/// assert_eq!(result.values.len(), 64);
/// assert!(result.values.iter().all(|v| (v - 1.0).abs() < 1e-9));
/// assert_eq!(result.perf.queries, 64);
/// # Ok(())
/// # }
/// ```
pub struct Engine<B: Backend> {
    /// Everything compiled once per circuit, shared with every other engine
    /// over it.
    plan: Arc<Plan<B>>,
    /// Per-worker execution states (grown on first use, then reused across
    /// batches); the serial path is the one-shard case and runs on the
    /// first.
    workers: Vec<WorkerState<B>>,
    /// Scratch one-query batch backing [`Engine::execute`].
    single: EvidenceBatch,
}

impl<B: Backend> Engine<B> {
    /// Flattens `spn`, lowers it per `options` (numeric domain and emulated
    /// PE precision), applies the backend-tuning knobs via
    /// [`Backend::configure`] and compiles — the single canonical
    /// construction path (and the expensive, once-per-circuit phase).
    ///
    /// With [`EngineOptions::default`] this is the plain linear-domain,
    /// native-`f64` engine.  See [`EngineOptions`] for what each field
    /// selects; an already-lowered [`OpList`] compiles through
    /// [`Engine::from_ops`] instead.
    ///
    /// `spn` is compiled as given: checking a model's structure and numeric
    /// ranges is [`spn_core::analysis`]'s job where the model enters (the
    /// serving registry's `try_register`, the `spn_lint` gate), not every
    /// engine's.
    ///
    /// # Errors
    ///
    /// Returns an error when an option value is invalid for the backend or
    /// the backend cannot compile the program.
    pub fn new(mut backend: B, spn: &Spn, options: EngineOptions) -> Result<Self, BackendError> {
        backend.configure(&options)?;
        let ops = options.lower(spn);
        let sampler = Arc::new(SamplerProgram::new(spn));
        let plan = Plan::compile(backend, ops, Some(sampler))?;
        Ok(Engine::from_plan(Arc::new(plan)))
    }

    /// Compiles an already-lowered `ops` program for `backend`.
    ///
    /// # Errors
    ///
    /// Returns an error when the backend cannot compile the program.
    pub fn from_ops(backend: B, ops: &OpList) -> Result<Self, BackendError> {
        let plan = Plan::compile(backend, ops.clone(), None)?;
        Ok(Engine::from_plan(Arc::new(plan)))
    }

    /// A fresh engine over an already compiled plan — the cheap construction
    /// path of a serving fleet: a model registry compiles the plan once, and
    /// every worker engine is an [`Arc`] clone of it plus fresh execution
    /// state (buffers, scratch, worker pool).
    pub fn from_plan(plan: Arc<Plan<B>>) -> Self {
        Engine {
            single: EvidenceBatch::new(plan.ops.num_vars()),
            plan,
            workers: Vec::new(),
        }
    }

    /// Points the engine at `plan` and keeps its execution state — how a
    /// serving worker runs every model through one set of buffers.  The same
    /// plan again is a pointer compare; a different one is swapped in (the
    /// engine's reference to the old plan is dropped) and the one-query
    /// scratch batch takes the new plan's arity.  The worker states need no
    /// reset: every backend re-sizes them to the program of each batch.
    pub fn rebind(&mut self, plan: Arc<Plan<B>>) {
        if !Arc::ptr_eq(&self.plan, &plan) {
            self.single = EvidenceBatch::new(plan.ops.num_vars());
            self.plan = plan;
        }
    }

    /// The shared plan this engine executes.
    pub fn plan(&self) -> &Arc<Plan<B>> {
        &self.plan
    }

    /// The platform name of the underlying backend.
    pub fn name(&self) -> String {
        self.plan.backend.name()
    }

    /// The compiled artifact this engine serves queries against.
    pub fn compiled(&self) -> &B::Compiled {
        &self.plan.compiled
    }

    /// The plan's max-product artifact, if any engine over the plan has
    /// compiled it (see [`Engine::prepare_map`]).
    pub fn shared_map(&self) -> Option<MapArtifact<B>> {
        self.plan.map().cloned()
    }

    /// Ensures the plan's max-product artifact exists, compiling it if
    /// needed — the eager form of what the first MAP query of any engine
    /// over the plan does lazily.
    ///
    /// # Errors
    ///
    /// Returns an error when the backend cannot compile the max-product
    /// program.
    pub fn prepare_map(&mut self) -> Result<(), BackendError> {
        self.plan.ensure_map().map(|_| ())
    }

    /// The flattened sum-product program the engine was compiled from.
    pub fn ops(&self) -> &OpList {
        &self.plan.ops
    }

    /// The numeric domain this engine computes in (inherited from the
    /// program it was compiled from).
    pub fn mode(&self) -> NumericMode {
        self.plan.ops.mode()
    }

    /// The emulated PE arithmetic format this engine computes in (inherited
    /// from the program it was compiled from).
    pub fn precision(&self) -> Precision {
        self.plan.ops.precision()
    }

    /// Executes every query of `batch` against the compiled circuit.
    ///
    /// # Errors
    ///
    /// Returns an error when the batch does not match the compiled program
    /// or the platform fails structurally.
    pub fn execute_batch(&mut self, batch: &EvidenceBatch) -> Result<BatchResult, BackendError> {
        self.run(false, batch, &Parallelism::serial())
    }

    /// Executes one query: a convenience wrapper over a one-element batch.
    ///
    /// # Errors
    ///
    /// Returns an error when the evidence does not match the compiled
    /// program or the platform fails structurally.
    pub fn execute(&mut self, evidence: &Evidence) -> Result<(f64, PerfReport), BackendError> {
        // The scratch batch moves out for the call so `run` can borrow the
        // engine whole, and back in before any error returns.
        let mut single = std::mem::take(&mut self.single);
        single.clear();
        let result = single
            .push(evidence)
            .map_err(BackendError::from)
            .and_then(|()| self.run(false, &single, &Parallelism::serial()));
        self.single = single;
        let mut result = result?;
        let value = result
            .values
            .pop()
            .ok_or("backend returned no value for a one-query batch")?;
        Ok((value, result.perf))
    }

    /// Opens an evaluation session seeded with one full pass under
    /// `evidence`, ready for [`Engine::session_delta`] queries.
    ///
    /// On backends that expose reachability cones
    /// ([`Backend::cone_analysis`] — the CPU model), the session retains the
    /// pass's input and per-op result buffers, and subsequent deltas
    /// re-execute only the flipped variables' cones.  On every other backend
    /// the session still tracks the evidence, but each delta runs a full
    /// single-query pass.
    ///
    /// ```
    /// use spn_core::{random::{random_spn, RandomSpnConfig}, Evidence};
    /// use spn_platforms::{CpuModel, Engine, EngineOptions};
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// # fn main() -> Result<(), spn_platforms::BackendError> {
    /// let spn = random_spn(&RandomSpnConfig::with_vars(8), &mut StdRng::seed_from_u64(3));
    /// let mut engine = Engine::new(CpuModel::new(), &spn, EngineOptions::default())?;
    ///
    /// let mut session = engine.open_session(&Evidence::marginal(8))?;
    /// let outcome = engine.session_delta(&mut session, &[(0, Some(true))])?;
    ///
    /// // Bit-for-bit the value of a full re-evaluation under the updated
    /// // evidence.
    /// let mut evidence = Evidence::marginal(8);
    /// evidence.observe(0, true);
    /// let (full, _) = engine.execute(&evidence)?;
    /// assert_eq!(outcome.value.to_bits(), full.to_bits());
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns an error when the evidence does not match the compiled
    /// program or the seeding pass fails.
    pub fn open_session(&mut self, evidence: &Evidence) -> Result<EvalSession, BackendError> {
        let cones = self.plan.backend.cone_analysis(&self.plan.compiled);
        let mut state = IncrementalState::new();
        let value = match &cones {
            Some(cones) => cones.prime(&self.plan.ops, evidence, &mut state)?,
            None => self.execute(evidence)?.0,
        };
        Ok(EvalSession {
            cones,
            state,
            evidence: evidence.clone(),
            value,
        })
    }

    /// Applies evidence flips to `session` and returns the new circuit
    /// value, re-executing only the flipped variables' reachable cones when
    /// the backend supports it (with automatic fallback to a full pass when
    /// the dirty cone exceeds the
    /// [`full-pass fraction`](spn_core::incremental::DEFAULT_FULL_PASS_FRACTION)
    /// of the program, or always on backends without cone support).
    ///
    /// Each flip is `(variable index, new observation)`; `None`
    /// marginalises the variable.  The value is **bit-for-bit** the value a
    /// full re-evaluation under the session's updated evidence would
    /// produce, in every numeric mode and precision — see
    /// [`spn_core::incremental`] for why.  [`DeltaOutcome`] reports which
    /// path ran and how many operations it re-executed.
    ///
    /// # Errors
    ///
    /// Returns an error on out-of-range variables (the session is untouched)
    /// or when a fallback full pass fails.
    pub fn session_delta(
        &mut self,
        session: &mut EvalSession,
        flips: &[(usize, Option<bool>)],
    ) -> Result<DeltaOutcome, BackendError> {
        let ops = &self.plan.ops;
        let num_vars = ops.num_vars();
        for &(var, _) in flips {
            if var >= num_vars {
                return Err(Box::new(SpnError::UnknownVariable {
                    var: var as u32,
                    num_vars,
                }));
            }
        }
        let outcome = match &session.cones {
            Some(cones) => {
                let outcome = cones.apply_flips(ops, flips, &mut session.state)?;
                session.apply_to_evidence(flips);
                outcome
            }
            None => {
                session.apply_to_evidence(flips);
                let (value, _) = self.execute(&session.evidence)?;
                DeltaOutcome {
                    value,
                    recomputed_ops: self.plan.ops.num_ops(),
                    full_pass: true,
                }
            }
        };
        session.value = outcome.value;
        Ok(outcome)
    }

    /// Recovers the maximising assignment of every query of a MAP batch by
    /// re-running the max-product program per query on the host and
    /// backtracking the argmax branches.
    fn trace_map_assignments(
        map: &MapArtifact<B>,
        batch: &EvidenceBatch,
    ) -> Result<Vec<Vec<bool>>, BackendError> {
        map.program.recipe().check(batch)?;
        let mut inputs = Vec::new();
        let mut results = Vec::new();
        let mut assignments = Vec::with_capacity(batch.len());
        for q in 0..batch.len() {
            map.program.run_query(batch, q, &mut inputs, &mut results);
            assignments.push(
                map.program
                    .trace_assignment(&inputs, &results, batch.query(q)),
            );
        }
        Ok(assignments)
    }

    /// The one execution path behind every `execute*` entry point: `batch`
    /// against the main artifact, or against the plan's max-product one
    /// (compiled here if no engine has yet) when `map` is set, cut into
    /// [`Parallelism::shards_for`] shards — one shard is the serial call on
    /// the first worker state (see [`Backend::execute_batch_parallel`]).
    fn run(
        &mut self,
        map: bool,
        batch: &EvidenceBatch,
        parallelism: &Parallelism,
    ) -> Result<BatchResult, BackendError> {
        let compiled = if map {
            &*self.plan.ensure_map()?.compiled
        } else {
            &self.plan.compiled
        };
        self.plan
            .backend
            .execute_batch_parallel(compiled, batch, parallelism, &mut self.workers)
    }

    /// The per-mode lowering shared by [`Engine::execute_query`] and
    /// [`Engine::execute_query_parallel`] onto [`Engine::run`] passes; the
    /// approximate modes run the plan's sampler, sharded per
    /// `parallelism`.  A single lowering guarantees the serial and parallel
    /// query paths can never diverge in policy.
    fn lower_query(
        &mut self,
        query: &QueryBatch,
        parallelism: &Parallelism,
    ) -> Result<QueryOutput, BackendError> {
        query.validate()?;
        match query {
            QueryBatch::Joint(batch) | QueryBatch::Marginal(batch) => {
                let result = self.run(false, batch, parallelism)?;
                Ok(QueryOutput {
                    values: result.values,
                    assignments: None,
                    std_err: None,
                    samples: 0,
                    perf: result.perf,
                })
            }
            QueryBatch::Map(batch) => {
                let result = self.run(true, batch, parallelism)?;
                let assignments = Self::trace_map_assignments(self.plan.ensure_map()?, batch)?;
                Ok(QueryOutput {
                    values: result.values,
                    assignments: Some(assignments),
                    std_err: None,
                    samples: 0,
                    perf: result.perf,
                })
            }
            QueryBatch::Conditional(cond) => {
                let numerator = self.run(false, cond.numerator(), parallelism)?;
                let denominator = self.run(false, cond.denominator(), parallelism)?;
                let values =
                    conditional_values(self.mode(), numerator.values, &denominator.values)?;
                let mut perf = numerator.perf;
                perf.merge(&denominator.perf);
                Ok(QueryOutput {
                    values,
                    assignments: None,
                    std_err: None,
                    samples: 0,
                    perf,
                })
            }
            QueryBatch::Sample(batch) => self.run_sampler(batch, true, parallelism),
            QueryBatch::Expectation(batch) => self.run_sampler(batch, false, parallelism),
        }
    }

    /// Runs the approximate modes over the plan's sampler: rows are
    /// sharded across scoped threads per `parallelism` (per-row results are
    /// a pure function of `(row, spec, stream)`, so any sharding
    /// concatenates to the serial result bit for bit), then reported in the
    /// engine's numeric domain with values quantized to its emulated
    /// precision.  Standard errors stay on the linear scale, unquantized —
    /// they describe the estimator, not the datapath.
    fn run_sampler(
        &self,
        batch: &SampleBatch,
        sample_mode: bool,
        parallelism: &Parallelism,
    ) -> Result<QueryOutput, BackendError> {
        let sampler = self.plan.sampler.as_deref().ok_or_else(|| {
            Box::new(SpnError::invalid(
                "engine has no sampler: approximate queries need a plan built from the \
                 graph (Engine::new), not from a flattened program"
                    .to_string(),
            ))
        })?;
        let run_range = |start: usize, count: usize| -> Result<SampleRun, SpnError> {
            if sample_mode {
                sampler.run_sample_range(batch, start, count)
            } else {
                sampler.run_expectation_range(batch, start, count)
            }
        };
        let shards = parallelism.shards_for(batch.len());
        let run = if shards <= 1 {
            run_range(0, batch.len())?
        } else {
            let ranges = MultiCoreProcessor::shard_ranges(shards, batch.len());
            let parts: Vec<Result<SampleRun, SpnError>> = std::thread::scope(|scope| {
                let handles: Vec<_> = ranges
                    .into_iter()
                    .map(|range| scope.spawn(move || run_range(range.start, range.len())))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("sampler worker panicked"))
                    .collect()
            });
            let mut merged = SampleRun::default();
            for part in parts {
                let part = part?;
                merged.values.extend(part.values);
                merged.std_err.extend(part.std_err);
                if let Some(assignments) = part.assignments {
                    merged
                        .assignments
                        .get_or_insert_with(Vec::new)
                        .extend(assignments);
                }
                merged.samples_drawn += part.samples_drawn;
            }
            merged
        };
        let mode = self.mode();
        let precision = self.precision();
        let values = run
            .values
            .into_iter()
            .map(|v| {
                let domain = match mode {
                    NumericMode::Linear => v,
                    NumericMode::Log => v.ln(),
                };
                round_to(precision, domain)
            })
            .collect();
        Ok(QueryOutput {
            values,
            assignments: run.assignments,
            std_err: Some(run.std_err),
            samples: run.samples_drawn,
            perf: PerfReport {
                platform: format!("{} sampler", self.name()),
                queries: batch.len() as u64,
                ..PerfReport::default()
            },
        })
    }

    /// Answers a [`QueryBatch`] against the compiled circuit.
    ///
    /// Every mode lowers onto the serial batched execution path:
    ///
    /// * **Joint** / **Marginal** — one [`Engine::execute_batch`] pass (joint
    ///   rows are validated to be fully observed first),
    /// * **Conditional** — two passes (numerator and denominator batches)
    ///   plus one division per query,
    /// * **Map** — one pass over the lazily compiled max-product artifact for
    ///   the values, plus a host-side argmax traceback recovering the
    ///   maximising assignments (the traceback is not part of the modelled
    ///   platform cost).
    ///
    /// ```
    /// use spn_core::{ConditionalBatch, Evidence, EvidenceBatch, QueryBatch};
    /// use spn_core::random::{random_spn, RandomSpnConfig};
    /// use spn_platforms::{CpuModel, Engine, EngineOptions};
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// # fn main() -> Result<(), spn_platforms::BackendError> {
    /// let spn = random_spn(&RandomSpnConfig::with_vars(6), &mut StdRng::seed_from_u64(5));
    /// let mut engine = Engine::new(CpuModel::new(), &spn, EngineOptions::default())?;
    ///
    /// // Marginal: unobserved variables are summed out.
    /// let mut batch = EvidenceBatch::new(6);
    /// batch.push_marginal();
    /// let marginal = engine.execute_query(&QueryBatch::Marginal(batch.clone()))?;
    /// assert!((marginal.values[0] - 1.0).abs() < 1e-9);
    ///
    /// // MAP: the most probable completion, with the assignment traced back.
    /// let map = engine.execute_query(&QueryBatch::Map(batch))?;
    /// let assignment = &map.assignments.as_ref().unwrap()[0];
    /// assert_eq!(assignment.len(), 6);
    ///
    /// // Conditional: P(target | given) as a ratio of two passes.
    /// let mut cond = ConditionalBatch::new(6);
    /// let mut target = Evidence::marginal(6);
    /// target.observe(0, true);
    /// cond.push(&target, &Evidence::marginal(6))?;
    /// let conditional = engine.execute_query(&QueryBatch::Conditional(cond))?;
    /// assert!(conditional.values[0] > 0.0 && conditional.values[0] <= 1.0);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns an error when the batch does not match the compiled program,
    /// a joint row leaves variables unobserved, a conditional query
    /// conditions on zero-probability evidence, or the platform fails
    /// structurally.
    pub fn execute_query(&mut self, query: &QueryBatch) -> Result<QueryOutput, BackendError> {
        self.lower_query(query, &Parallelism::serial())
    }

    /// Executes every query of `batch` sharded across a fixed pool of scoped
    /// worker threads (see [`Backend::execute_batch_parallel`]).
    ///
    /// Results are bit-for-bit identical to [`Engine::execute_batch`]; the
    /// per-worker states live in the engine and are reused across batches.
    ///
    /// ```
    /// use spn_core::{random::{random_spn, RandomSpnConfig}, EvidenceBatch};
    /// use spn_platforms::{CpuModel, Engine, EngineOptions, Parallelism};
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// # fn main() -> Result<(), spn_platforms::BackendError> {
    /// let spn = random_spn(&RandomSpnConfig::with_vars(8), &mut StdRng::seed_from_u64(2));
    /// let mut engine = Engine::new(CpuModel::new(), &spn, EngineOptions::default())?;
    /// let batch = EvidenceBatch::marginals(8, 256);
    ///
    /// let serial = engine.execute_batch(&batch)?;
    /// let parallel = engine.execute_batch_parallel(&batch, &Parallelism::workers(4))?;
    /// assert_eq!(serial.values, parallel.values);
    /// assert_eq!(serial.perf, parallel.perf);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// As for [`Engine::execute_batch`].
    pub fn execute_batch_parallel(
        &mut self,
        batch: &EvidenceBatch,
        parallelism: &Parallelism,
    ) -> Result<BatchResult, BackendError> {
        self.run(false, batch, parallelism)
    }

    /// Answers a [`QueryBatch`] with every circuit pass sharded across the
    /// worker pool (see [`Engine::execute_query`] for the per-mode lowering).
    ///
    /// The MAP argmax traceback stays on the calling thread; everything else
    /// — including both passes of a conditional batch — runs through
    /// [`Backend::execute_batch_parallel`] and is bit-for-bit identical to
    /// the serial query path.
    ///
    /// # Errors
    ///
    /// As for [`Engine::execute_query`].
    pub fn execute_query_parallel(
        &mut self,
        query: &QueryBatch,
        parallelism: &Parallelism,
    ) -> Result<QueryOutput, BackendError> {
        self.lower_query(query, parallelism)
    }
}
