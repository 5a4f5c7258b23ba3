//! The model registry: named circuits with an LRU cache of compiled
//! artifacts.
//!
//! A serving process multiplexes many models over one backend.  Compilation
//! is the expensive once-per-circuit phase, so the registry keeps every
//! registered model's flattened [`OpList`] (small) and an LRU-bounded cache
//! of compiled artifacts (potentially large: VLIW programs, schedules,
//! modelled cycle tables).  Artifacts are [`Arc`]-shared — handing one to a
//! worker engine is a reference-count bump, and an artifact evicted from the
//! cache stays alive exactly as long as some engine still executes against
//! it.
//!
//! The max-product (MAP) artifact of a model rides along with its
//! sum-product artifact: the first worker to answer a MAP query publishes
//! the compiled max-product plan back via [`ModelRegistry::store_map`], and
//! every later engine picks it up pre-compiled.
//!
//! Artifacts are held **per [`ModelVariant`]** (numeric mode × emulated PE
//! precision): one model can serve linear- and log-domain traffic at
//! several precisions side by side, each `(model, variant)` pair compiled
//! once and cached independently.  The mode-lowered program is derived from
//! the registered linear program on first use, then stamped with the
//! requested precision — the same order as `EngineOptions::lower`, so a
//! registry-built engine and a directly-built one execute identical
//! programs.  Cache keys carry the full variant, so variants can never
//! alias; a re-registration of a name replaces the whole entry, which
//! invalidates **all** precision variants of the model at once.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use spn_core::analysis;
use spn_core::flatten::OpList;
use spn_core::{NumericMode, Precision, SamplerProgram, Spn};
use spn_platforms::{Backend, Engine, MapArtifact};

use crate::error::ServeError;
use crate::lru::Lru;

/// The execution variant of one model: the numeric domain its program is
/// lowered into and the emulated PE precision its arithmetic is stamped
/// with.
///
/// Every layer of the serving stack that used to thread a loose
/// `(NumericMode, Precision)` pair — registry cache keys, worker engine
/// caches, map publication — keys on this one struct instead, so a variant
/// can never be half-specified or accidentally transposed.
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
    pub fn log() -> ModelVariant {
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

/// Everything a worker needs to build an [`Engine`] for one model in one
/// [`ModelVariant`], shared cheaply out of the registry.
pub struct ModelPlan<B: Backend> {
    /// The flattened program in the plan's numeric mode and precision
    /// (cloned per plan; engines keep their own copy).
    pub ops: OpList,
    /// The shared compiled artifact.
    pub artifact: Arc<B::Compiled>,
    /// The shared max-product artifact, once some engine has compiled it.
    pub map: Option<MapArtifact<B>>,
    /// The shared sampler for approximate (`sample` / `expectation`)
    /// queries, built once at registration from the graph.  `None` when the
    /// model was registered from a flattened program
    /// ([`ModelRegistry::register_ops`]) — the graph structure a sampler
    /// needs is gone by then — in which case approximate queries against the
    /// model are rejected by the engine.
    pub sampler: Option<Arc<SamplerProgram>>,
    /// Bumped on every (re-)registration of the name, so workers can detect
    /// stale cached engines.
    pub version: u64,
    /// The variant the plan was compiled for.
    pub variant: ModelVariant,
}

/// The cache key of one compiled variant: model name plus variant.
type ArtifactKey = (String, ModelVariant);

/// Compiled state of one `(numeric mode, precision)` variant of a model.
/// The cache evicts at *slot* granularity — map plan included — so one
/// model serving many variants competes for cache space per variant, not
/// all-or-nothing: a model with more variants than the whole capacity keeps
/// its hottest ones cached instead of thrashing, and a client sweeping
/// precision names cannot grow the variant table without bound.
struct VariantSlot<B: Backend> {
    artifact: Arc<B::Compiled>,
    map: Option<MapArtifact<B>>,
}

struct ModelEntry {
    /// The registered (linear-domain, full-precision) program; every variant
    /// is derived from it on demand.
    ops: OpList,
    /// The derived log-domain program, memoised on first use so repeated
    /// log-mode plans pay a clone, not a re-derivation (the derivation runs
    /// under the registry lock; it is immutable per registration).
    log_ops: Option<OpList>,
    /// The sampler shared by every variant: sampling runs over the graph's
    /// own alias tables in its private log domain, so one program serves
    /// linear and log traffic at every precision (numeric / precision
    /// transforms are applied by the engine to the *reported* values only).
    sampler: Option<Arc<SamplerProgram>>,
    version: u64,
}

impl ModelEntry {
    /// The entry's program lowered into the variant's numeric mode
    /// (memoising the log-domain derivation) and stamped with its precision
    /// — the same lowering order as `EngineOptions::lower`, so programs (and
    /// therefore cached artifacts) agree bit for bit with directly-built
    /// engines.
    fn ops_for(&mut self, variant: ModelVariant) -> OpList {
        let lowered = match variant.numeric {
            NumericMode::Linear => &self.ops,
            NumericMode::Log => self.log_ops.get_or_insert_with(|| self.ops.to_log_domain()),
        };
        if variant.precision == Precision::F64 {
            lowered.clone()
        } else {
            lowered.with_precision(variant.precision)
        }
    }
}

struct Inner<B: Backend> {
    models: HashMap<String, ModelEntry>,
    /// The compiled variants of every model, least-recently-used evicted
    /// beyond the registry's capacity (the models stay registered and an
    /// evicted variant recompiles on demand).  Holds slots of current
    /// registrations only: replacing or removing a name drops its slots.
    artifacts: Lru<ArtifactKey, VariantSlot<B>>,
    /// Monotonic version source across registrations.
    next_version: u64,
}

/// Named circuits compiled for one backend, with an LRU artifact cache.
pub struct ModelRegistry<B: Backend> {
    backend: B,
    inner: Mutex<Inner<B>>,
}

impl<B: Backend + Clone> ModelRegistry<B> {
    /// Creates a registry compiling with `backend`, holding at most
    /// `capacity` compiled artifacts (clamped to at least one).
    pub fn new(backend: B, capacity: usize) -> ModelRegistry<B> {
        ModelRegistry {
            backend,
            inner: Mutex::new(Inner {
                models: HashMap::new(),
                artifacts: Lru::new(capacity),
                next_version: 0,
            }),
        }
    }

    /// The backend models are compiled for.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Registers (or replaces) `name` with the flattened form of `spn`.
    /// Compilation is deferred to the first [`ModelRegistry::plan`] call.
    ///
    /// The model is **not** statically verified; use
    /// [`ModelRegistry::try_register`] on untrusted load / hot-swap paths.
    pub fn register(&self, name: impl Into<String>, spn: &Spn) {
        self.insert(
            name.into(),
            OpList::from_spn(spn),
            Some(Arc::new(SamplerProgram::new(spn))),
        );
    }

    /// Statically verifies `spn` ([`analysis::lint_spn`] plus linear-domain
    /// [`analysis::lint_ranges`]), then registers (or replaces) `name` like
    /// [`ModelRegistry::register`].
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
        diagnostics.extend(analysis::lint_ranges(&ops).diagnostics);
        if analysis::has_errors(&diagnostics) {
            return Err(ServeError::Verification(diagnostics));
        }
        self.insert(name.into(), ops, Some(Arc::new(SamplerProgram::new(spn))));
        Ok(())
    }

    /// Registers (or replaces) `name` with an already flattened program
    /// (which must be in the linear domain at full precision; mode- and
    /// precision-specific artifacts are derived per variant on first use).
    /// Replacing a name drops every cached variant of the old registration —
    /// a hot swap can never leave a stale precision variant behind.
    ///
    /// A flattened program carries no graph structure, so the model gets no
    /// sampler: approximate (`sample` / `expectation`) queries against it
    /// are rejected by the engine.  Register from the [`Spn`] to serve them.
    pub fn register_ops(&self, name: impl Into<String>, ops: OpList) {
        self.insert(name.into(), ops, None);
    }

    /// The shared insertion path behind every `register*` flavour.
    fn insert(&self, name: String, ops: OpList, sampler: Option<Arc<SamplerProgram>>) {
        assert!(
            ops.mode() == NumericMode::Linear,
            "register the linear-domain program; log artifacts are derived per mode"
        );
        assert!(
            ops.precision() == Precision::F64,
            "register the full-precision program; reduced-precision artifacts \
             are derived per variant"
        );
        let mut inner = self.inner.lock().expect("registry lock");
        inner.next_version += 1;
        let entry = ModelEntry {
            ops,
            log_ops: None,
            sampler,
            version: inner.next_version,
        };
        inner.artifacts.remove_where(|(model, _)| *model == name);
        inner.models.insert(name, entry);
    }

    /// Removes `name`; in-flight engines keep their shared artifacts alive.
    pub fn unregister(&self, name: &str) -> bool {
        let mut inner = self.inner.lock().expect("registry lock");
        inner.artifacts.remove_where(|(model, _)| model == name);
        inner.models.remove(name).is_some()
    }

    /// Registered model names, sorted.
    pub fn models(&self) -> Vec<String> {
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
    pub fn num_vars(&self, name: &str) -> Result<usize, ServeError> {
        let inner = self.inner.lock().expect("registry lock");
        inner
            .models
            .get(name)
            .map(|entry| entry.ops.num_vars())
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))
    }

    /// The current registration version of `name` (bumped on every
    /// re-registration).  Cheap: never compiles and never touches the LRU.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] when `name` is not registered.
    pub fn version(&self, name: &str) -> Result<u64, ServeError> {
        let inner = self.inner.lock().expect("registry lock");
        inner
            .models
            .get(name)
            .map(|entry| entry.version)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))
    }

    /// Number of compiled artifacts currently cached, across all numeric
    /// modes (for tests and observability; bounded by the LRU capacity).
    pub fn cached_artifacts(&self) -> usize {
        self.inner.lock().expect("registry lock").artifacts.len()
    }

    /// Returns the shared execution plan for `name` in `variant`, compiling
    /// (and caching) the artifact on a cache miss and evicting the
    /// least-recently-used model's artifacts beyond the cache capacity.
    /// Every variant of one model lives side by side under its own cache
    /// key.
    ///
    /// Compilation happens outside the registry lock, so a slow compile
    /// stalls only the models that need it, not every worker.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] when `name` is not registered and
    /// [`ServeError::Backend`] when compilation fails.
    pub fn plan(&self, name: &str, variant: ModelVariant) -> Result<ModelPlan<B>, ServeError> {
        let key: ArtifactKey = (name.to_string(), variant);
        let (ops, version, sampler) = {
            let mut inner = self.inner.lock().expect("registry lock");
            let inner = &mut *inner;
            let entry = inner
                .models
                .get_mut(name)
                .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
            let (ops, version, sampler) =
                (entry.ops_for(variant), entry.version, entry.sampler.clone());
            if let Some(slot) = inner.artifacts.get(&key) {
                return Ok(ModelPlan {
                    ops,
                    artifact: Arc::clone(&slot.artifact),
                    map: slot.map.clone(),
                    sampler,
                    version,
                    variant,
                });
            }
            (ops, version, sampler)
        };

        let artifact = Arc::new(
            self.backend
                .compile(&ops)
                .map_err(ServeError::from_backend)?,
        );

        let mut inner = self.inner.lock().expect("registry lock");
        // The model may have been replaced or dropped while compiling; only
        // cache the artifact if it still matches what we compiled.  A
        // sibling worker may have cached the variant (and published its
        // max-product plan) meanwhile — hand that plan out rather than
        // letting the caller recompile it.
        let mut map = None;
        if inner.models.get(name).map(|entry| entry.version) == Some(version) {
            if let Some(slot) = inner.artifacts.get(&key) {
                map = slot.map.clone();
            } else {
                let slot = VariantSlot {
                    artifact: Arc::clone(&artifact),
                    map: None,
                };
                inner.artifacts.insert(key, slot);
            }
        }
        Ok(ModelPlan {
            ops,
            artifact,
            map,
            sampler,
            version,
            variant,
        })
    }

    /// Publishes a compiled max-product artifact for `name`'s `variant`
    /// (ignored when the model was re-registered since `version`, the slot
    /// already has one, or the variant's main artifact is no longer cached —
    /// a map rides along with its artifact, so map plans can never
    /// accumulate past the LRU capacity).
    pub fn store_map(&self, name: &str, version: u64, variant: ModelVariant, map: MapArtifact<B>) {
        let mut inner = self.inner.lock().expect("registry lock");
        if inner.models.get(name).map(|entry| entry.version) == Some(version) {
            if let Some(slot) = inner.artifacts.peek(&(name.to_string(), variant)) {
                if slot.map.is_none() {
                    slot.map = Some(map);
                }
            }
        }
    }

    /// Builds a fresh engine for `name` in `variant` from the shared plan:
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
        let plan = self.plan(name, variant)?;
        let mut engine = Engine::from_artifact(self.backend.clone(), &plan.ops, plan.artifact);
        if let Some(map) = plan.map {
            engine.install_map(map);
        }
        if let Some(sampler) = plan.sampler {
            engine.install_sampler(sampler);
        }
        Ok((engine, plan.version))
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

    #[test]
    fn plans_share_one_artifact_per_model() {
        let registry = registry_with(&["a"], 4);
        let first = registry.plan("a", ModelVariant::default()).unwrap();
        let second = registry.plan("a", ModelVariant::default()).unwrap();
        assert!(Arc::ptr_eq(&first.artifact, &second.artifact));
        assert_eq!(registry.cached_artifacts(), 1);
        assert!(registry.plan("missing", ModelVariant::default()).is_err());
    }

    #[test]
    fn lru_evicts_the_coldest_artifact_only() {
        let registry = registry_with(&["a", "b", "c"], 2);
        registry.plan("a", ModelVariant::default()).unwrap();
        registry.plan("b", ModelVariant::default()).unwrap();
        registry.plan("a", ModelVariant::default()).unwrap(); // refresh a; b is now coldest
        registry.plan("c", ModelVariant::default()).unwrap(); // evicts b's artifact
        assert_eq!(registry.cached_artifacts(), 2);
        assert_eq!(registry.models().len(), 3); // models stay registered
                                                // The evicted model recompiles transparently.
        let plan = registry.plan("b", ModelVariant::default()).unwrap();
        assert_eq!(plan.ops.num_vars(), registry.num_vars("b").unwrap());
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

        // Publishing a map artifact makes later engines pick it up.
        engine.prepare_map().unwrap();
        registry.store_map(
            "a",
            version,
            ModelVariant::new(NumericMode::Linear, Precision::F64),
            engine.shared_map().unwrap(),
        );
        let (second, _) = registry.engine("a", ModelVariant::default()).unwrap();
        assert!(second.shared_map().is_some());
        // ...but only in the numeric mode it was published for.
        let (log_engine, _) = registry.engine("a", ModelVariant::log()).unwrap();
        assert!(log_engine.shared_map().is_none());
    }

    #[test]
    fn graph_registrations_carry_a_sampler_but_ops_registrations_do_not() {
        let registry = registry_with(&["a"], 4);
        // Registered from the graph: every variant's engine shares one
        // sampler program.
        let linear = registry.engine("a", ModelVariant::default()).unwrap().0;
        let log = registry.engine("a", ModelVariant::log()).unwrap().0;
        let first = linear.shared_sampler().expect("sampler from graph");
        let second = log.shared_sampler().expect("sampler shared per model");
        assert!(Arc::ptr_eq(&first, &second));

        // Registered from a flattened program: no graph, no sampler.
        let plan = registry.plan("a", ModelVariant::default()).unwrap();
        registry.register_ops("flat", plan.ops.clone());
        let flat = registry.engine("flat", ModelVariant::default()).unwrap().0;
        assert!(flat.shared_sampler().is_none());
    }

    #[test]
    fn linear_and_log_artifacts_live_side_by_side() {
        let registry = registry_with(&["a"], 4);
        let linear = registry.plan("a", ModelVariant::default()).unwrap();
        let log = registry.plan("a", ModelVariant::log()).unwrap();
        assert_eq!(linear.variant.numeric, NumericMode::Linear);
        assert_eq!(log.variant.numeric, NumericMode::Log);
        assert_eq!(log.ops.mode(), NumericMode::Log);
        assert!(!Arc::ptr_eq(&linear.artifact, &log.artifact));
        assert_eq!(registry.cached_artifacts(), 2);
        // Re-planning either mode reuses its cached artifact.
        assert!(Arc::ptr_eq(
            &registry.plan("a", ModelVariant::log()).unwrap().artifact,
            &log.artifact
        ));
        assert!(Arc::ptr_eq(
            &registry
                .plan("a", ModelVariant::default())
                .unwrap()
                .artifact,
            &linear.artifact
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
        // variant slot, never a warmer one (each model here holds a single
        // variant, so slot order and model order coincide).
        let registry = registry_with(&["a", "b", "c"], 2);
        let a1 = registry.plan("a", ModelVariant::default()).unwrap();
        registry.plan("b", ModelVariant::default()).unwrap();
        // Use order is now [a, b]; touching "a" makes it [b, a].
        registry.plan("a", ModelVariant::default()).unwrap();
        // "c" evicts "b" (coldest), not "a".
        registry.plan("c", ModelVariant::default()).unwrap();
        assert_eq!(registry.cached_artifacts(), 2);
        assert!(
            Arc::ptr_eq(
                &registry
                    .plan("a", ModelVariant::default())
                    .unwrap()
                    .artifact,
                &a1.artifact
            ),
            "a must have survived the eviction of b"
        );
        // Re-planning "b" recompiles (fresh Arc) and evicts the now-coldest
        // "c"; "a" — refreshed by the ptr_eq check above — survives again.
        let b2 = registry.plan("b", ModelVariant::default()).unwrap();
        assert!(Arc::ptr_eq(
            &registry
                .plan("a", ModelVariant::default())
                .unwrap()
                .artifact,
            &a1.artifact
        ));
        assert!(Arc::ptr_eq(
            &registry
                .plan("b", ModelVariant::default())
                .unwrap()
                .artifact,
            &b2.artifact
        ));
        assert_eq!(registry.cached_artifacts(), 2);
    }

    #[test]
    fn one_model_with_more_variants_than_capacity_keeps_its_hottest_variants() {
        // Eviction is per (mode, precision) slot, not per model: a single
        // model serving three precisions through a capacity-2 cache must
        // keep the two most recently used variants cached rather than
        // thrashing to zero.
        let registry = registry_with(&["a"], 2);
        let f64_plan = registry
            .plan("a", ModelVariant::new(NumericMode::Linear, Precision::F64))
            .unwrap();
        let f32_plan = registry
            .plan("a", ModelVariant::new(NumericMode::Linear, Precision::F32))
            .unwrap();
        // Third variant evicts the coldest slot (f64), nothing else.
        registry
            .plan(
                "a",
                ModelVariant::new(NumericMode::Linear, Precision::E8M10),
            )
            .unwrap();
        assert_eq!(registry.cached_artifacts(), 2);
        assert!(
            Arc::ptr_eq(
                &registry
                    .plan("a", ModelVariant::new(NumericMode::Linear, Precision::F32))
                    .unwrap()
                    .artifact,
                &f32_plan.artifact
            ),
            "the still-warm f32 variant was evicted"
        );
        // The f64 variant recompiles on demand (fresh Arc).
        let f64_again = registry
            .plan("a", ModelVariant::new(NumericMode::Linear, Precision::F64))
            .unwrap();
        assert!(!Arc::ptr_eq(&f64_again.artifact, &f64_plan.artifact));
        assert_eq!(registry.cached_artifacts(), 2);
    }

    #[test]
    fn variant_cache_keys_never_alias() {
        // Every (mode, precision) variant of one model gets its own artifact
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
            .map(|&(mode, precision)| {
                registry
                    .plan("a", ModelVariant::new(mode, precision))
                    .unwrap()
            })
            .collect();
        assert_eq!(registry.cached_artifacts(), variants.len());
        for (i, a) in plans.iter().enumerate() {
            for b in plans.iter().skip(i + 1) {
                assert!(
                    !Arc::ptr_eq(&a.artifact, &b.artifact),
                    "({}, {}) aliases ({}, {})",
                    a.variant.numeric,
                    a.variant.precision,
                    b.variant.numeric,
                    b.variant.precision
                );
            }
            // The plan's program actually is the requested variant.
            assert_eq!(a.ops.mode(), variants[i].0);
            assert_eq!(a.ops.precision(), variants[i].1);
            let again = registry
                .plan("a", ModelVariant::new(variants[i].0, variants[i].1))
                .unwrap();
            assert!(Arc::ptr_eq(&again.artifact, &a.artifact));
        }

        // A map artifact published for one variant is invisible to siblings.
        let (mut engine, version) = registry
            .engine(
                "a",
                ModelVariant::new(NumericMode::Linear, Precision::E8M10),
            )
            .unwrap();
        engine.prepare_map().unwrap();
        registry.store_map(
            "a",
            version,
            ModelVariant::new(NumericMode::Linear, Precision::E8M10),
            engine.shared_map().unwrap(),
        );
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

        // Re-register under the same name: every cached variant must go.
        let mut rng = StdRng::seed_from_u64(99);
        let replacement = random_spn(&RandomSpnConfig::with_vars(9), &mut rng);
        registry.register("a", &replacement);
        assert_eq!(registry.cached_artifacts(), 0, "stale variants survived");
        for (old_plan, &p) in old.iter().zip(&Precision::SWEEP) {
            let fresh = registry
                .plan("a", ModelVariant::new(NumericMode::Linear, p))
                .unwrap();
            assert!(fresh.version > old_plan.version);
            assert!(!Arc::ptr_eq(&fresh.artifact, &old_plan.artifact));
            assert_eq!(fresh.ops.num_vars(), 9);
        }
        // A stale map publication (old version) is silently dropped.
        let (mut engine, _) = registry
            .engine("a", ModelVariant::new(NumericMode::Linear, Precision::F64))
            .unwrap();
        engine.prepare_map().unwrap();
        registry.store_map(
            "a",
            old[0].version,
            ModelVariant::new(NumericMode::Linear, Precision::F64),
            engine.shared_map().unwrap(),
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
        let before = registry.plan("a", ModelVariant::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let spn = random_spn(&RandomSpnConfig::with_vars(9), &mut rng);
        registry.register("a", &spn);
        let after = registry.plan("a", ModelVariant::default()).unwrap();
        assert!(after.version > before.version);
        assert_eq!(after.ops.num_vars(), 9);
        assert!(registry.unregister("a"));
        assert!(!registry.unregister("a"));
    }
}
