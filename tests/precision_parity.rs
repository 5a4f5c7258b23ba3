//! Differential testing of the emulated-precision subsystem: every backend
//! × query mode × numeric mode × precision on seeded random SPNs and a deep
//! chain, as slices of the parity matrix (`tests/parity/mod.rs`).
//!
//! Each cell asserts that `F64` is the unstamped program bit for bit, that
//! every backend returns the quantized op list's bits serially and sharded,
//! and that reduced precisions stay within an analytically derived bound of
//! the exact graph-sweep oracle (`parity::check_accuracy`).  The last test
//! guards against the sweep silently testing f64 three times.

mod parity;

use rand::rngs::StdRng;
use rand::SeedableRng;
use spn_accel::core::flatten::OpList;
use spn_accel::core::precision::round_to;
use spn_accel::core::random::{random_spn, RandomSpnConfig};
use spn_accel::core::{EvidenceBatch, NumericMode, Precision};
use spn_accel::platforms::{CpuModel, Engine, EngineOptions};

#[test]
fn random_spns_all_backends_modes_and_precisions() {
    parity::run("random_spns_all_backends_modes_and_precisions");
}

#[test]
fn deep_chain_all_backends_and_precisions() {
    parity::run("deep_chain_all_backends_and_precisions");
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
