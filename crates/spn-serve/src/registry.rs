//! The model registry: named circuits with an LRU cache of compiled plans.
//!
//! A serving process multiplexes many models over one backend.  Compilation
//! is the expensive once-per-circuit phase, so the registry keeps every
//! registered model's flattened [`OpList`] (small) and an LRU-bounded cache
//! of compiled [`Plan`]s (potentially large: VLIW programs, schedules,
//! modelled cycle tables).  This is the serving layer's only model cache:
//! plans are [`Arc`]-shared, a batcher worker rebinds its one engine to the
//! cached plan before every dispatch, and a plan evicted from the cache
//! stays alive only while it is the plan a worker last ran or a caller
//! still holds it.
//!
//! The max-product (MAP) artifact of a model lives *inside* its plan: the
//! first engine to answer a MAP query compiles it there, every engine over
//! the plan — already built or not — sees it from then on, and evicting the
//! plan evicts it too.
//!
//! Plans are held **per [`ModelVariant`]** (numeric mode × emulated PE
//! precision): one model can serve linear- and log-domain traffic at
//! several precisions side by side, each `(model, variant)` pair lowered and
//! compiled once, on its first cache miss.  The lowering order — numeric
//! mode, then precision stamp — is that of `EngineOptions::lower`, so a
//! registry-built engine and a directly-built one execute identical
//! programs.  Cache keys carry the full variant, so variants can never
//! alias; a re-registration of a name replaces the whole entry, which
//! invalidates **all** precision variants of the model at once.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use spn_core::analysis;
use spn_core::flatten::OpList;
use spn_core::{NumericMode, Precision, SamplerProgram, Spn};
use spn_platforms::{Backend, Engine, MapArtifact, Plan};

use crate::error::ServeError;
use crate::lru::Lru;

/// The execution variant of one model: the numeric domain its program is
/// lowered into and the emulated PE precision its arithmetic is stamped
/// with.
///
/// Every layer of the serving stack that used to thread a loose
/// `(NumericMode, Precision)` pair — registry cache keys, batch grouping,
/// sessions — keys on this one struct instead, so a variant can never be
/// half-specified or accidentally transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelVariant {
    /// The numeric execution domain.
    pub numeric: NumericMode,
    /// The emulated PE arithmetic format.
    pub precision: Precision,
}

impl ModelVariant {
    /// A variant with an explicit numeric mode and precision.
    pub fn new(numeric: NumericMode, precision: Precision) -> ModelVariant {
        ModelVariant { numeric, precision }
    }

    /// The full-precision log-domain variant.
    #[cfg(test)]
    pub(crate) fn log() -> ModelVariant {
        ModelVariant::new(NumericMode::Log, Precision::F64)
    }

    /// Returns the variant with `precision` substituted.
    pub fn with_precision(self, precision: Precision) -> ModelVariant {
        ModelVariant { precision, ..self }
    }
}

impl Default for ModelVariant {
    /// Linear domain at full (`f64`) precision — the variant models are
    /// registered in.
    fn default() -> Self {
        ModelVariant::new(NumericMode::Linear, Precision::F64)
    }
}

impl std::fmt::Display for ModelVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.numeric, self.precision)
    }
}

/// The cache key of one compiled variant: model name plus variant.
type PlanKey = (String, ModelVariant);

struct ModelEntry {
    /// The registered (linear-domain, full-precision) program; every variant
    /// is lowered from it on a cache miss.
    ops: OpList,
    /// The sampler shared by every variant: sampling runs over the graph's
    /// own alias tables in its private log domain, so one program serves
    /// linear and log traffic at every precision (numeric / precision
    /// transforms are applied by the engine to the *reported* values only).
    sampler: Arc<SamplerProgram>,
    /// Bumped on every (re-)registration of the name, so a session can tell
    /// that the program its state was primed on has been replaced.
    version: u64,
}

struct Inner<B: Backend> {
    models: HashMap<String, ModelEntry>,
    /// Each compiled variant beside the registration version it was
    /// compiled from, least-recently-used evicted beyond the registry's
    /// capacity (the models stay registered and an evicted variant recompiles
    /// on demand).  Eviction is per variant, so a model with more variants
    /// than the capacity keeps its hottest ones and a client sweeping
    /// precision names cannot grow the cache without bound.  Holds plans of
    /// current registrations only: replacing or removing a name drops them.
    plans: Lru<PlanKey, (u64, Arc<Plan<B>>)>,
    /// Monotonic version source across registrations.
    next_version: u64,
}

impl<B: Backend> Inner<B> {
    fn entry(&self, name: &str) -> Result<&ModelEntry, ServeError> {
        self.models
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))
    }
}

/// Named circuits compiled for one backend, with an LRU plan cache.
pub struct ModelRegistry<B: Backend> {
    backend: B,
    inner: Mutex<Inner<B>>,
}

impl<B: Backend + Clone> ModelRegistry<B> {
    /// Creates a registry compiling with `backend`, holding at most
    /// `capacity` compiled plans (clamped to at least one).
    pub fn new(backend: B, capacity: usize) -> ModelRegistry<B> {
        ModelRegistry {
            backend,
            inner: Mutex::new(Inner {
                models: HashMap::new(),
                plans: Lru::new(capacity),
                next_version: 0,
            }),
        }
    }

    /// Registers (or replaces) `name` with the flattened form of `spn`.
    /// Compilation is deferred to the first [`ModelRegistry::plan`] call.
    ///
    /// The model is **not** statically verified; use
    /// [`ModelRegistry::try_register`] on untrusted load / hot-swap paths.
    pub(crate) fn register(&self, name: impl Into<String>, spn: &Spn) {
        self.insert(name.into(), OpList::from_spn(spn), spn);
    }

    /// Statically verifies `spn` ([`analysis::lint_spn`] plus linear-domain
    /// [`analysis::lint_ranges`]), then registers (or replaces) `name` like
    /// `ModelRegistry::register`.
    ///
    /// This is the load / hot-swap entry point of an untrusted-model fleet:
    /// a structurally broken model is rejected *before* it replaces a good
    /// registration, and the full diagnostic report travels to the client as
    /// a structured [`ServeError::Verification`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Verification`] with every finding when any
    /// [`Severity::Error`](spn_core::Severity)-level diagnostic is present
    /// (warnings — e.g. predicted linear-domain underflow, reported so
    /// clients can opt into the log domain — do not block registration).
    pub fn try_register(&self, name: impl Into<String>, spn: &Spn) -> Result<(), ServeError> {
        let ops = OpList::from_spn(spn);
        let mut diagnostics = analysis::lint_spn(spn);
        diagnostics.extend(analysis::lint_ranges(&ops));
        if analysis::has_errors(&diagnostics) {
            return Err(ServeError::Verification(diagnostics));
        }
        self.insert(name.into(), ops, spn);
        Ok(())
    }

    /// The shared insertion path behind both `register` flavours: `ops` is
    /// `spn` flattened.  Replacing a name drops every cached variant of the
    /// old registration — a hot swap can never leave a stale precision
    /// variant behind.
    fn insert(&self, name: String, ops: OpList, spn: &Spn) {
        let sampler = Arc::new(SamplerProgram::new(spn));
        let mut inner = self.inner.lock().expect("registry lock");
        inner.next_version += 1;
        let entry = ModelEntry {
            ops,
            sampler,
            version: inner.next_version,
        };
        inner.plans.remove_where(|(model, _)| *model == name);
        inner.models.insert(name, entry);
    }

    /// Registered model names, sorted.
    pub(crate) fn models(&self) -> Vec<String> {
        let inner = self.inner.lock().expect("registry lock");
        let mut names: Vec<String> = inner.models.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of variables of `name`'s circuit.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] when `name` is not registered.
    pub(crate) fn num_vars(&self, name: &str) -> Result<usize, ServeError> {
        let inner = self.inner.lock().expect("registry lock");
        Ok(inner.entry(name)?.ops.num_vars())
    }

    /// The current registration version of `name` (bumped on every
    /// re-registration).  Cheap: never compiles and never touches the LRU.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] when `name` is not registered.
    pub fn version(&self, name: &str) -> Result<u64, ServeError> {
        let inner = self.inner.lock().expect("registry lock");
        Ok(inner.entry(name)?.version)
    }

    /// Number of compiled plans currently cached, across all variants (for
    /// tests and observability; bounded by the LRU capacity).
    pub fn cached_artifacts(&self) -> usize {
        self.inner.lock().expect("registry lock").plans.len()
    }

    /// Returns the shared plan for `name` in `variant` beside the
    /// registration version it was compiled from.  A cache hit is a lookup
    /// and a reference-count bump; a miss lowers the registered program into
    /// the variant, compiles it — outside the registry lock, so a slow
    /// compile stalls only the models that need it, not every worker —
    /// caches the plan and evicts the least-recently-used ones beyond the
    /// cache capacity.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] when `name` is not registered and
    /// [`ServeError::Backend`] when compilation fails.
    pub fn plan(
        &self,
        name: &str,
        variant: ModelVariant,
    ) -> Result<(u64, Arc<Plan<B>>), ServeError> {
        let key: PlanKey = (name.to_string(), variant);
        let (ops, sampler, version) = {
            let mut inner = self.inner.lock().expect("registry lock");
            if let Some((version, plan)) = inner.plans.get(&key) {
                return Ok((*version, Arc::clone(plan)));
            }
            let entry = inner.entry(name)?;
            let ops = entry
                .ops
                .with_mode(variant.numeric)
                .with_precision(variant.precision);
            (ops, Arc::clone(&entry.sampler), entry.version)
        };

        let plan = Plan::compile(self.backend.clone(), ops, Some(sampler))
            .map(Arc::new)
            .map_err(ServeError::from_backend)?;

        let mut inner = self.inner.lock().expect("registry lock");
        // The model may have been replaced or dropped while compiling: a
        // plan of a past registration goes to its caller only.  When a
        // sibling worker cached the variant meanwhile, its plan wins, so
        // every engine shares one.
        if inner.models.get(name).map(|entry| entry.version) == Some(version) {
            if let Some((_, cached)) = inner.plans.get(&key) {
                return Ok((version, Arc::clone(cached)));
            }
            inner.plans.insert(key, (version, Arc::clone(&plan)));
        }
        Ok((version, plan))
    }

    /// Offers a compiled max-product artifact to the cached plan of `name`'s
    /// `variant` (ignored when the model was re-registered since `version`,
    /// the plan already has one, or the variant is not cached).  An engine
    /// compiles the artifact straight into the plan it shares, so this only
    /// matters for an artifact from another plan of the same registration.
    pub fn store_map(&self, name: &str, version: u64, variant: ModelVariant, map: MapArtifact<B>) {
        let mut inner = self.inner.lock().expect("registry lock");
        if let Some((cached, plan)) = inner.plans.peek(&(name.to_string(), variant)) {
            if *cached == version {
                plan.offer_map(map);
            }
        }
    }

    /// Builds a fresh engine for `name` in `variant` over the shared plan:
    /// compilation is reused, only per-engine execution state is allocated.
    ///
    /// # Errors
    ///
    /// As for [`ModelRegistry::plan`].
    pub fn engine(
        &self,
        name: &str,
        variant: ModelVariant,
    ) -> Result<(Engine<B>, u64), ServeError> {
        let (version, plan) = self.plan(name, variant)?;
        Ok((Engine::from_plan(plan), version))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn_core::random::{random_spn, RandomSpnConfig};
    use spn_core::EvidenceBatch;
    use spn_platforms::CpuModel;

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn registry_with(names: &[&str], capacity: usize) -> ModelRegistry<CpuModel> {
        let registry = ModelRegistry::new(CpuModel::new(), capacity);
        let mut rng = StdRng::seed_from_u64(42);
        for (i, name) in names.iter().enumerate() {
            let spn = random_spn(&RandomSpnConfig::with_vars(4 + i), &mut rng);
            registry.register(*name, &spn);
        }
        registry
    }

    /// The cached plan of `name` in `variant` (compiling on a miss).
    fn plan_of(
        registry: &ModelRegistry<CpuModel>,
        name: &str,
        variant: ModelVariant,
    ) -> Arc<Plan<CpuModel>> {
        registry.plan(name, variant).unwrap().1
    }

    #[test]
    fn plans_share_one_artifact_per_model() {
        let registry = registry_with(&["a"], 4);
        let first = plan_of(&registry, "a", ModelVariant::default());
        let second = plan_of(&registry, "a", ModelVariant::default());
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(registry.cached_artifacts(), 1);
        assert!(registry.plan("missing", ModelVariant::default()).is_err());
    }

    #[test]
    fn engines_built_before_the_first_map_query_share_its_artifact() {
        // Both engines exist before either needs the max-product program:
        // whichever compiles it first compiles it for both.
        let registry = registry_with(&["a"], 4);
        let (mut a, _) = registry.engine("a", ModelVariant::default()).unwrap();
        let (b, _) = registry.engine("a", ModelVariant::default()).unwrap();
        assert!(b.shared_map().is_none());
        a.prepare_map().unwrap();
        assert!(b.shared_map().is_some(), "a sibling engine missed the map");
        assert!(Arc::ptr_eq(a.plan(), b.plan()));
        let (map_a, map_b) = (a.plan().map().unwrap(), b.plan().map().unwrap());
        assert!(std::ptr::eq(map_a, map_b));
        // One program per plan: engines hold no copy of their own.
        assert!(std::ptr::eq(a.ops(), b.ops()));
    }

    #[test]
    fn lru_evicts_the_coldest_artifact_only() {
        let registry = registry_with(&["a", "b", "c"], 2);
        registry.plan("a", ModelVariant::default()).unwrap();
        registry.plan("b", ModelVariant::default()).unwrap();
        registry.plan("a", ModelVariant::default()).unwrap(); // refresh a; b is now coldest
        registry.plan("c", ModelVariant::default()).unwrap(); // evicts b's plan
        assert_eq!(registry.cached_artifacts(), 2);
        assert_eq!(registry.models().len(), 3); // models stay registered
                                                // The evicted model recompiles transparently.
        let plan = plan_of(&registry, "b", ModelVariant::default());
        assert_eq!(plan.ops().num_vars(), registry.num_vars("b").unwrap());
    }

    #[test]
    fn engines_from_shared_plans_execute() {
        let registry = registry_with(&["a"], 1);
        let (mut engine, version) = registry.engine("a", ModelVariant::default()).unwrap();
        let vars = registry.num_vars("a").unwrap();
        let out = engine
            .execute_batch(&EvidenceBatch::marginals(vars, 3))
            .unwrap();
        assert_eq!(out.values.len(), 3);
        assert!(out.values.iter().all(|v| (v - 1.0).abs() < 1e-9));

        // A prepared map artifact is what later engines execute too...
        engine.prepare_map().unwrap();
        let map = engine.shared_map().unwrap();
        let (second, _) = registry.engine("a", ModelVariant::default()).unwrap();
        assert!(second.shared_map().is_some());
        // ...and offering it back to a plan that has it changes nothing.
        registry.store_map("a", version, ModelVariant::default(), map);
        assert!(std::ptr::eq(
            engine.plan().map().unwrap(),
            second.plan().map().unwrap()
        ));
        // It exists only in the variant it was compiled for.
        let (log_engine, _) = registry.engine("a", ModelVariant::log()).unwrap();
        assert!(log_engine.shared_map().is_none());
    }

    #[test]
    fn every_variant_shares_the_registered_sampler() {
        let registry = registry_with(&["a"], 4);
        // Registered from the graph: every variant's plan shares one
        // sampler program.
        let linear = plan_of(&registry, "a", ModelVariant::default());
        let log = plan_of(&registry, "a", ModelVariant::log());
        let first = linear.sampler().expect("sampler from graph");
        let second = log.sampler().expect("sampler shared per model");
        assert!(Arc::ptr_eq(first, second));
    }

    #[test]
    fn linear_and_log_artifacts_live_side_by_side() {
        let registry = registry_with(&["a"], 4);
        let linear = plan_of(&registry, "a", ModelVariant::default());
        let log = plan_of(&registry, "a", ModelVariant::log());
        assert_eq!(linear.ops().mode(), NumericMode::Linear);
        assert_eq!(log.ops().mode(), NumericMode::Log);
        assert!(!Arc::ptr_eq(&linear, &log));
        assert_eq!(registry.cached_artifacts(), 2);
        // Re-planning either mode reuses its cached plan.
        assert!(Arc::ptr_eq(
            &plan_of(&registry, "a", ModelVariant::log()),
            &log
        ));
        assert!(Arc::ptr_eq(
            &plan_of(&registry, "a", ModelVariant::default()),
            &linear
        ));

        let vars = registry.num_vars("a").unwrap();
        let (mut engine, _) = registry.engine("a", ModelVariant::log()).unwrap();
        let out = engine
            .execute_batch(&EvidenceBatch::marginals(vars, 2))
            .unwrap();
        // Log-domain partition function of a normalised SPN is ln 1 = 0.
        assert!(out.values.iter().all(|v| v.abs() < 1e-9));
    }

    #[test]
    fn lru_eviction_follows_use_order_under_capacity_pressure() {
        // Capacity 2, three models planned in a known access order: the
        // registry must always evict exactly the least-recently-used cached
        // plan, never a warmer one (each model here holds a single variant,
        // so plan order and model order coincide).
        let registry = registry_with(&["a", "b", "c"], 2);
        let a1 = plan_of(&registry, "a", ModelVariant::default());
        registry.plan("b", ModelVariant::default()).unwrap();
        // Use order is now [a, b]; touching "a" makes it [b, a].
        registry.plan("a", ModelVariant::default()).unwrap();
        // "c" evicts "b" (coldest), not "a".
        registry.plan("c", ModelVariant::default()).unwrap();
        assert_eq!(registry.cached_artifacts(), 2);
        assert!(
            Arc::ptr_eq(&plan_of(&registry, "a", ModelVariant::default()), &a1),
            "a must have survived the eviction of b"
        );
        // Re-planning "b" recompiles (fresh Arc) and evicts the now-coldest
        // "c"; "a" — refreshed by the ptr_eq check above — survives again.
        let b2 = plan_of(&registry, "b", ModelVariant::default());
        assert!(Arc::ptr_eq(
            &plan_of(&registry, "a", ModelVariant::default()),
            &a1
        ));
        assert!(Arc::ptr_eq(
            &plan_of(&registry, "b", ModelVariant::default()),
            &b2
        ));
        assert_eq!(registry.cached_artifacts(), 2);
    }

    #[test]
    fn one_model_with_more_variants_than_capacity_keeps_its_hottest_variants() {
        // Eviction is per (mode, precision) plan, not per model: a single
        // model serving three precisions through a capacity-2 cache must
        // keep the two most recently used variants cached rather than
        // thrashing to zero.
        let registry = registry_with(&["a"], 2);
        let f64_variant = ModelVariant::new(NumericMode::Linear, Precision::F64);
        let f32_variant = ModelVariant::new(NumericMode::Linear, Precision::F32);
        let f64_plan = plan_of(&registry, "a", f64_variant);
        let f32_plan = plan_of(&registry, "a", f32_variant);
        // Third variant evicts the coldest plan (f64), nothing else.
        registry
            .plan(
                "a",
                ModelVariant::new(NumericMode::Linear, Precision::E8M10),
            )
            .unwrap();
        assert_eq!(registry.cached_artifacts(), 2);
        assert!(
            Arc::ptr_eq(&plan_of(&registry, "a", f32_variant), &f32_plan),
            "the still-warm f32 variant was evicted"
        );
        // The f64 variant recompiles on demand (fresh Arc).
        let f64_again = plan_of(&registry, "a", f64_variant);
        assert!(!Arc::ptr_eq(&f64_again, &f64_plan));
        assert_eq!(registry.cached_artifacts(), 2);
    }

    #[test]
    fn variant_cache_keys_never_alias() {
        // Every (mode, precision) variant of one model gets its own plan
        // under its own key: same-precision different-mode, same-mode
        // different-precision and the f64 default must all be distinct, and
        // re-planning any one of them must return exactly its own Arc.
        let registry = registry_with(&["a"], 16);
        let variants = [
            (NumericMode::Linear, Precision::F64),
            (NumericMode::Linear, Precision::F32),
            (NumericMode::Linear, Precision::E8M10),
            (NumericMode::Log, Precision::F64),
            (NumericMode::Log, Precision::E8M10),
        ];
        let plans: Vec<_> = variants
            .iter()
            .map(|&(mode, precision)| plan_of(&registry, "a", ModelVariant::new(mode, precision)))
            .collect();
        assert_eq!(registry.cached_artifacts(), variants.len());
        for (i, a) in plans.iter().enumerate() {
            for (b, other) in plans.iter().zip(&variants).skip(i + 1) {
                assert!(
                    !Arc::ptr_eq(a, b),
                    "({}, {}) aliases ({}, {})",
                    variants[i].0,
                    variants[i].1,
                    other.0,
                    other.1
                );
            }
            // The plan's program actually is the requested variant.
            assert_eq!(a.ops().mode(), variants[i].0);
            assert_eq!(a.ops().precision(), variants[i].1);
            let again = plan_of(
                &registry,
                "a",
                ModelVariant::new(variants[i].0, variants[i].1),
            );
            assert!(Arc::ptr_eq(&again, a));
        }

        // A map artifact compiled for one variant is invisible to siblings.
        let (mut engine, _) = registry
            .engine(
                "a",
                ModelVariant::new(NumericMode::Linear, Precision::E8M10),
            )
            .unwrap();
        engine.prepare_map().unwrap();
        assert!(registry
            .engine(
                "a",
                ModelVariant::new(NumericMode::Linear, Precision::E8M10)
            )
            .unwrap()
            .0
            .shared_map()
            .is_some());
        for (mode, precision) in [
            (NumericMode::Linear, Precision::F64),
            (NumericMode::Linear, Precision::F32),
            (NumericMode::Log, Precision::E8M10),
        ] {
            assert!(
                registry
                    .engine("a", ModelVariant::new(mode, precision))
                    .unwrap()
                    .0
                    .shared_map()
                    .is_none(),
                "map leaked into ({mode}, {precision})"
            );
        }
    }

    #[test]
    fn an_evicted_plan_takes_its_map_artifact_with_it() {
        let registry = registry_with(&["a", "b"], 1);
        let (mut engine, _) = registry.engine("a", ModelVariant::default()).unwrap();
        engine.prepare_map().unwrap();
        registry.plan("b", ModelVariant::default()).unwrap(); // evicts a's plan
        assert_eq!(registry.cached_artifacts(), 1);
        // The recompiled plan starts without one; the old engine keeps its
        // own plan, map included, alive.
        let (fresh, _) = registry.engine("a", ModelVariant::default()).unwrap();
        assert!(fresh.shared_map().is_none());
        assert!(engine.shared_map().is_some());
    }

    #[test]
    fn hot_swap_invalidates_every_precision_variant() {
        let registry = registry_with(&["a"], 16);
        let old: Vec<_> = Precision::SWEEP
            .iter()
            .map(|&p| {
                registry
                    .plan("a", ModelVariant::new(NumericMode::Linear, p))
                    .unwrap()
            })
            .collect();
        assert_eq!(registry.cached_artifacts(), Precision::SWEEP.len());
        let (mut old_engine, old_version) = registry
            .engine("a", ModelVariant::new(NumericMode::Linear, Precision::F64))
            .unwrap();

        // Re-register under the same name: every cached variant must go.
        let mut rng = StdRng::seed_from_u64(99);
        let replacement = random_spn(&RandomSpnConfig::with_vars(9), &mut rng);
        registry.register("a", &replacement);
        assert_eq!(registry.cached_artifacts(), 0, "stale variants survived");
        for ((old_version, old_plan), &p) in old.iter().zip(&Precision::SWEEP) {
            let (version, fresh) = registry
                .plan("a", ModelVariant::new(NumericMode::Linear, p))
                .unwrap();
            assert!(version > *old_version);
            assert!(!Arc::ptr_eq(&fresh, old_plan));
            assert_eq!(fresh.ops().num_vars(), 9);
        }
        // A stale map publication (an engine of the old registration, old
        // version) is silently dropped.
        old_engine.prepare_map().unwrap();
        registry.store_map(
            "a",
            old_version,
            ModelVariant::new(NumericMode::Linear, Precision::F64),
            old_engine.shared_map().unwrap(),
        );
        assert!(registry
            .engine("a", ModelVariant::new(NumericMode::Linear, Precision::F64))
            .unwrap()
            .0
            .shared_map()
            .is_none());
    }

    #[test]
    fn reregistration_bumps_the_version() {
        let registry = registry_with(&["a"], 2);
        let (before, _) = registry.plan("a", ModelVariant::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let spn = random_spn(&RandomSpnConfig::with_vars(9), &mut rng);
        registry.register("a", &spn);
        let (after, plan) = registry.plan("a", ModelVariant::default()).unwrap();
        assert!(after > before);
        assert_eq!(plan.ops().num_vars(), 9);
    }
}
