//! Differential-testing harness for the emulated-precision subsystem: every
//! backend × query mode × numeric mode × precision, pinned against two
//! oracles on seeded random SPNs and a deep chain.
//!
//! For each combination the harness asserts:
//!
//! 1. **F64 is the pre-existing path, bit for bit** — an engine built with
//!    `EngineOptions::default().precision(Precision::F64)` returns exactly
//!    (`to_bits`-equal) the values of an engine built without any precision
//!    override.
//! 2. **Backends agree with the quantized reference** — the interpreted
//!    `OpList` of the stamped program (the quantizer's defining semantics)
//!    is recomputed here per query; the CPU and GPU models must reproduce
//!    it bit for bit (identical op DAG, identical scalar kernels), the
//!    processor simulator within a 1e-9 relative slack (its PE trees
//!    evaluate the same DAG but may route values through pass-through PEs
//!    and `+ 0.0` identities, which can flip a signed-zero bit).
//! 3. **Reduced precisions stay within an analytically derived bound of the
//!    exact f64 oracle** (`reference_query_with`).  In the linear domain
//!    every operand is non-negative and each of the `k = inputs + ops`
//!    quantizations multiplies the running value by a factor in
//!    `[1-u, 1+u]` (`u` = the format's unit roundoff), so
//!    `|computed - exact| <= ((1+u)^k - 1) * exact`; a conditional is a
//!    ratio of two such values, bounding its error by `(1+b)/(1-b) - 1`.
//!    In the log domain quantization errors are *absolute* and both `Add`
//!    and log-sum-exp are 1-Lipschitz-accumulating (the root error is at
//!    most the sum of all per-quantization errors), so
//!    `|computed - exact| <= 2k·u·(M+1)` where `M` bounds the magnitude of
//!    every intermediate (measured on the f64 run; the factor 2 covers the
//!    drift between f64 and quantized intermediates).
//! 4. **Serial and sharded execution are bit-for-bit identical** at every
//!    precision, so the parallel path can never leak unquantized values.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spn_accel::core::flatten::OpList;
use spn_accel::core::precision::round_to;
use spn_accel::core::query::reference_query_with;
use spn_accel::core::random::{deep_chain_spn, random_spn, RandomSpnConfig};
use spn_accel::core::{
    ConditionalBatch, Evidence, EvidenceBatch, NumericMode, Precision, QueryBatch, QueryMode, Spn,
};
use spn_accel::platforms::{
    Backend, CpuModel, Engine, EngineOptions, GpuModel, Parallelism, ProcessorBackend,
};

/// The exact query modes this harness sweeps.  The approximate modes
/// (`sample` / `expectation`) answer with Monte-Carlo estimates, so
/// bit-for-bit parity against a quantized oracle is the wrong contract for
/// them; their determinism and accuracy checks live in `tests/sampling.rs`.
const EXACT_MODES: [QueryMode; 4] = [
    QueryMode::Joint,
    QueryMode::Marginal,
    QueryMode::Map,
    QueryMode::Conditional,
];

/// Builds the query batch of `mode` used by the sweep (small, deterministic,
/// mixing marginal/partial/complete rows).
fn build_query(mode: QueryMode, num_vars: usize) -> QueryBatch {
    let mut partial = Evidence::marginal(num_vars);
    partial.observe(0, true);
    if num_vars > 2 {
        partial.observe(num_vars / 2, false);
    }
    match mode {
        QueryMode::Joint => {
            let mut batch = EvidenceBatch::new(num_vars);
            batch.push_assignment(&vec![true; num_vars]).unwrap();
            batch.push_assignment(&vec![false; num_vars]).unwrap();
            batch
                .push_assignment(&(0..num_vars).map(|v| v % 2 == 0).collect::<Vec<_>>())
                .unwrap();
            QueryBatch::Joint(batch)
        }
        QueryMode::Marginal | QueryMode::Map => {
            let mut batch = EvidenceBatch::new(num_vars);
            batch.push_marginal();
            batch.push(&partial).unwrap();
            if mode == QueryMode::Marginal {
                QueryBatch::Marginal(batch)
            } else {
                QueryBatch::Map(batch)
            }
        }
        QueryMode::Conditional => {
            let mut cond = ConditionalBatch::new(num_vars);
            let mut given = Evidence::marginal(num_vars);
            given.observe(num_vars - 1, true);
            cond.push(&partial, &given).unwrap();
            cond.push(&Evidence::marginal(num_vars), &given).unwrap();
            QueryBatch::Conditional(cond)
        }
        QueryMode::Sample | QueryMode::Expectation => {
            unreachable!("approximate modes are covered by tests/sampling.rs")
        }
    }
}

/// Interprets the stamped program exactly as `spn_core` defines it — the
/// quantized reference every backend is differentially tested against.
/// Mirrors the engine's per-mode lowering (max-product rewrite for MAP,
/// two passes plus `conditional_values` for conditionals).
fn quantized_oracle(ops: &OpList, query: &QueryBatch) -> Vec<f64> {
    let run_batch = |program: &OpList, batch: &EvidenceBatch| -> Vec<f64> {
        let recipe = program.input_recipe();
        let mut inputs = vec![0.0; recipe.num_inputs()];
        let mut results = vec![0.0; program.num_ops()];
        (0..batch.len())
            .map(|q| {
                recipe.fill_query(batch, q, &mut inputs);
                program.run_into(&inputs, &mut results)
            })
            .collect()
    };
    match query {
        QueryBatch::Joint(batch) | QueryBatch::Marginal(batch) => run_batch(ops, batch),
        QueryBatch::Map(batch) => run_batch(&ops.to_max_product(), batch),
        QueryBatch::Conditional(cond) => {
            let numerator = run_batch(ops, cond.numerator());
            let denominator = run_batch(ops, cond.denominator());
            spn_accel::core::query::conditional_values(ops.mode(), numerator, &denominator)
                .expect("oracle conditional defined")
        }
        QueryBatch::Sample(_) | QueryBatch::Expectation(_) => {
            unreachable!("approximate modes are covered by tests/sampling.rs")
        }
    }
}

/// Quantizations on any value's history: program inputs plus every
/// operation (the executed program is the max-product rewrite for MAP, with
/// identical counts).
fn quantization_count(ops: &OpList) -> usize {
    ops.num_inputs() + ops.num_ops()
}

/// Largest finite intermediate magnitude of the f64 program under the
/// query's batches — the `M` of the log-domain error bound.
fn max_intermediate(ops: &OpList, query: &QueryBatch) -> f64 {
    let mut m: f64 = 1.0;
    let mut scan = |program: &OpList, batch: &EvidenceBatch| {
        let recipe = program.input_recipe();
        let mut inputs = vec![0.0; recipe.num_inputs()];
        let mut results = vec![0.0; program.num_ops()];
        for q in 0..batch.len() {
            recipe.fill_query(batch, q, &mut inputs);
            program.run_into(&inputs, &mut results);
            for v in inputs.iter().chain(results.iter()) {
                if v.is_finite() {
                    m = m.max(v.abs());
                }
            }
        }
    };
    match query {
        QueryBatch::Joint(batch) | QueryBatch::Marginal(batch) => scan(ops, batch),
        QueryBatch::Map(batch) => scan(&ops.to_max_product(), batch),
        QueryBatch::Conditional(cond) => {
            scan(ops, cond.numerator());
            scan(ops, cond.denominator());
        }
        QueryBatch::Sample(_) | QueryBatch::Expectation(_) => {
            unreachable!("approximate modes are covered by tests/sampling.rs")
        }
    }
    m
}

/// The analytic error bound of assertion 3 for one query value, or `None`
/// when the bound is vacuous for this combination (a linear-domain relative
/// bound degenerates once `(1+u)^k >= 2` — e.g. a reduced-precision deep
/// chain, whose values flush to zero anyway; correctness there is pinned by
/// the differential check instead).
fn error_bound(
    mode: NumericMode,
    precision: Precision,
    is_conditional: bool,
    k: usize,
    m: f64,
    exact: f64,
) -> Option<f64> {
    let u = precision.unit_roundoff();
    match mode {
        NumericMode::Linear => {
            let b = (1.0 + u).powi(i32::try_from(k).expect("op count fits i32")) - 1.0;
            if b >= 1.0 {
                return None;
            }
            let rel = if is_conditional {
                (1.0 + b) / (1.0 - b) - 1.0
            } else {
                b
            };
            Some(rel * exact.abs())
        }
        NumericMode::Log => {
            let per_pass = 2.0 * k as f64 * u * (m + 1.0);
            Some(if is_conditional {
                2.0 * per_pass
            } else {
                per_pass
            })
        }
    }
}

/// Runs the full sweep for one backend on one SPN.  `modes` restricts the
/// query modes (the one-variable deep chain cannot answer a conditional with
/// a free target).  `backend_exact` asserts bit-for-bit agreement with the
/// quantized oracle (CPU and GPU); the processor gets a small relative
/// slack.
fn check_backend<B, F>(label: &str, make: F, spn: &Spn, modes: &[QueryMode], backend_exact: bool)
where
    B: Backend,
    F: Fn() -> B,
{
    for numeric in NumericMode::ALL {
        for mode in modes {
            let query = build_query(*mode, spn.num_vars());
            let exact = reference_query_with(spn, &query, numeric).expect("reference oracle");

            // The pre-existing path (no precision anywhere in sight).
            let mut baseline = Engine::new(make(), spn, EngineOptions::default().mode(numeric))
                .expect("baseline compiles");
            let baseline_out = baseline.execute_query(&query).expect("baseline executes");

            let base_ops = OpList::from_spn(spn).with_mode(numeric);
            for precision in Precision::SWEEP {
                let context = format!("{label}/{numeric}/{mode}/{precision}");
                let mut engine = Engine::new(
                    make(),
                    spn,
                    EngineOptions::default().mode(numeric).precision(precision),
                )
                .unwrap_or_else(|e| panic!("{context}: compile failed: {e}"));
                assert_eq!(engine.precision(), precision);
                let out = engine
                    .execute_query(&query)
                    .unwrap_or_else(|e| panic!("{context}: execute failed: {e}"));
                assert_eq!(out.values.len(), query.len(), "{context}");

                // (1) F64 reproduces the pre-existing path bit for bit.
                if precision == Precision::F64 {
                    for (a, b) in out.values.iter().zip(&baseline_out.values) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{context}: F64 diverged");
                    }
                    assert_eq!(out.assignments, baseline_out.assignments, "{context}");
                }

                // (2) Differential check against the quantized reference.
                let stamped = base_ops.with_precision(precision);
                let oracle = quantized_oracle(&stamped, &query);
                for (q, (got, want)) in out.values.iter().zip(&oracle).enumerate() {
                    if backend_exact {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{context} query {q}: {got} vs oracle {want}"
                        );
                    } else {
                        let tol = 1e-9 * want.abs().max(1e-12);
                        assert!(
                            (got - want).abs() <= tol || got.to_bits() == want.to_bits(),
                            "{context} query {q}: {got} vs oracle {want}"
                        );
                    }
                }

                // (3) Accuracy vs the exact oracle, within the analytic bound.
                let k = quantization_count(&stamped);
                let m = max_intermediate(&base_ops, &query);
                for (q, (got, want)) in out.values.iter().zip(&exact.values).enumerate() {
                    if !want.is_finite() {
                        // A structural -inf (log-domain zero) must survive
                        // quantization exactly.
                        assert_eq!(got.to_bits(), want.to_bits(), "{context} query {q}");
                        continue;
                    }
                    if let Some(bound) = error_bound(
                        numeric,
                        precision,
                        *mode == QueryMode::Conditional,
                        k,
                        m,
                        *want,
                    ) {
                        assert!(
                            (got - want).abs() <= bound.max(1e-12),
                            "{context} query {q}: |{got} - {want}| > bound {bound}"
                        );
                    }
                }

                // MAP completions must respect hard evidence at every
                // precision (quantization may legitimately flip ties).
                if let (QueryBatch::Map(batch), Some(assignments)) = (&query, &out.assignments) {
                    for (q, assignment) in assignments.iter().enumerate() {
                        for (var, value) in batch.to_evidence(q).iter_observed() {
                            assert_eq!(assignment[var], value, "{context} query {q}");
                        }
                    }
                }

                // (4) The sharded path is bit-for-bit the serial path.
                let parallel = engine
                    .execute_query_parallel(&query, &Parallelism::workers(4))
                    .unwrap_or_else(|e| panic!("{context}: parallel execute failed: {e}"));
                for (a, b) in parallel.values.iter().zip(&out.values) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{context}: sharded diverged");
                }
                assert_eq!(parallel.assignments, out.assignments, "{context}");
            }
        }
    }
}

#[test]
fn random_spns_all_backends_modes_and_precisions() {
    for seed in [11u64, 29] {
        let spn = random_spn(
            &RandomSpnConfig::with_vars(8),
            &mut StdRng::seed_from_u64(seed),
        );
        check_backend("CPU", CpuModel::new, &spn, &EXACT_MODES, true);
        check_backend("GPU", GpuModel::new, &spn, &EXACT_MODES, true);
        check_backend("Ptree", ProcessorBackend::ptree, &spn, &EXACT_MODES, false);
        check_backend("Pvect", ProcessorBackend::pvect, &spn, &EXACT_MODES, false);
    }
}

#[test]
fn deep_chain_all_backends_and_precisions() {
    // One variable, 400 stacked sums: marginal and MAP exercise the long
    // dependency chain where quantization error accumulates the most (the
    // conditional mode needs more than one variable and is covered by the
    // random sweep above).
    let chain = deep_chain_spn(400, 1e-2);
    let modes = [QueryMode::Marginal, QueryMode::Map];
    check_backend("CPU", CpuModel::new, &chain, &modes, true);
    check_backend("GPU", GpuModel::new, &chain, &modes, true);
    check_backend("Ptree", ProcessorBackend::ptree, &chain, &modes, false);
    check_backend("Pvect", ProcessorBackend::pvect, &chain, &modes, false);
}

#[test]
fn reduced_precision_actually_quantizes() {
    // Guard against the sweep silently testing f64 three times: stamping a
    // random program with e8m10 must change at least one baked-in parameter
    // (random weights are almost surely not 10-bit-mantissa values), and the
    // stamped parameters must all be representable.
    let spn = random_spn(
        &RandomSpnConfig::with_vars(8),
        &mut StdRng::seed_from_u64(11),
    );
    let ops = OpList::from_spn(&spn);
    let stamped = ops.with_precision(Precision::E8M10);
    assert_ne!(ops.inputs(), stamped.inputs(), "stamping changed nothing");
    for leaf in stamped.inputs() {
        if let spn_accel::core::flatten::LeafSource::Param(w) = leaf {
            assert_eq!(round_to(Precision::E8M10, *w).to_bits(), w.to_bits());
        }
    }
    // And the engines disagree with the f64 ones beyond bit noise.
    let mut exact = Engine::new(CpuModel::new(), &spn, EngineOptions::default()).unwrap();
    let mut reduced = Engine::new(
        CpuModel::new(),
        &spn,
        EngineOptions::default()
            .mode(NumericMode::Linear)
            .precision(Precision::E8M10),
    )
    .unwrap();
    // A fully observed row (a normalised SPN's *marginal* re-rounds to
    // exactly 1.0 at any precision, so probe a non-trivial probability).
    let mut batch = EvidenceBatch::new(8);
    batch
        .push_assignment(&[true, false, true, true, false, true, false, true])
        .unwrap();
    let a = exact.execute_batch(&batch).unwrap().values[0];
    let b = reduced.execute_batch(&batch).unwrap().values[0];
    assert_ne!(a.to_bits(), b.to_bits(), "e8m10 returned the f64 value");
    assert!((a - b).abs() < 0.05 * a.abs(), "{b} too far from {a}");
}
