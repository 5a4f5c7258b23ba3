//! The accuracy/throughput trade-off of emulated PE precisions.
//!
//! The paper's processor runs its PE trees in custom reduced-precision
//! floats chosen per application; this example reproduces that trade-off in
//! software.  It sweeps a set of precisions — IEEE f64/f32 and a ladder of
//! custom `e<exp>m<mant>` formats down to the paper's 8-bit-exponent /
//! 10-bit-mantissa configuration — over three workloads:
//!
//! * a random benchmark circuit in the **linear** domain, where quantization
//!   costs a bounded *relative* error per operation,
//! * a 900-level deep chain in the **linear** domain, where every answer
//!   underflows to exactly `0.0` at every format (the oracle's does too, so
//!   the error column reads 0: agreement on a useless answer), and
//! * the same chain in the **log** domain, where the formats quantize
//!   log-probabilities (the paper's log-encoded alternative) and every
//!   answer is finite — at the throughput the log-sum-exp kernels cost.
//!
//! For each configuration it reports queries/sec on the CPU model, the max
//! relative error against the exact f64 oracle — the curve that tells you
//! how few mantissa bits a deployment can afford — and how many of the
//! batch's answers are probability zero (`0.0`, or `-inf` in the log domain).
//!
//! Run with `cargo run --release --example precision_sweep`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use spn_accel::core::query::reference_query_with;
use spn_accel::core::random::{deep_chain_spn, random_spn, RandomSpnConfig};
use spn_accel::core::{Evidence, EvidenceBatch, NumericMode, Precision, QueryBatch, Spn};
use spn_accel::platforms::{CpuModel, Engine, EngineOptions};

/// A mixed batch of partial and complete observations.  (A fully
/// marginalised batch would be a bad probe: a normalised SPN's partition
/// function re-rounds to exactly 1.0 at every precision.)
fn build_batch(num_vars: usize, queries: usize) -> EvidenceBatch {
    let mut batch = EvidenceBatch::with_capacity(num_vars, queries);
    for q in 0..queries {
        match q % 3 {
            0 => batch
                .push_assignment(&(0..num_vars).map(|v| (q + v) % 3 != 0).collect::<Vec<_>>())
                .expect("arity"),
            1 => {
                let mut e = Evidence::marginal(num_vars);
                e.observe(q % num_vars, q % 2 == 0);
                batch.push(&e).expect("arity");
            }
            _ => batch.push_marginal(),
        }
    }
    batch
}

fn sweep(label: &str, spn: &Spn, numeric: NumericMode) {
    let precisions = [
        Precision::F64,
        Precision::F32,
        Precision::custom(8, 16).expect("valid format"),
        Precision::E8M10,
        Precision::custom(8, 5).expect("valid format"),
    ];
    let batch = build_batch(spn.num_vars(), 512);
    let oracle = reference_query_with(spn, &QueryBatch::Marginal(batch.clone()), numeric)
        .expect("oracle answers");

    println!("\n== {label} ({numeric} domain) ==");
    println!(
        "{:>10} {:>14} {:>16} {:>14}",
        "precision", "queries/sec", "max rel error", "zero answers"
    );
    let zero = match numeric {
        NumericMode::Linear => 0.0,
        NumericMode::Log => f64::NEG_INFINITY,
    };
    for precision in precisions {
        let mut engine = Engine::new(
            CpuModel::new(),
            spn,
            EngineOptions::default().mode(numeric).precision(precision),
        )
        .expect("compiles");
        let out = engine.execute_batch(&batch).expect("executes");
        let max_rel_error = out
            .values
            .iter()
            .zip(&oracle.values)
            .map(|(got, want)| {
                if got.to_bits() == want.to_bits() {
                    0.0
                } else {
                    (got - want).abs() / want.abs().max(1e-300)
                }
            })
            .fold(0.0, f64::max);
        let zero_answers = out.values.iter().filter(|v| **v == zero).count();

        let start = Instant::now();
        let rounds = 40;
        for _ in 0..rounds {
            engine.execute_batch(&batch).expect("executes");
        }
        let qps = (rounds * batch.len()) as f64 / start.elapsed().as_secs_f64();
        println!(
            "{:>10} {:>14.0} {:>16.3e} {:>10}/{}",
            precision.name(),
            qps,
            max_rel_error,
            zero_answers,
            batch.len()
        );
    }
}

fn main() {
    // Linear domain: relative error grows as mantissa bits shrink; the
    // exponent range is irrelevant while values stay near [1e-8, 1].
    let spn = random_spn(
        &RandomSpnConfig::with_vars(12),
        &mut StdRng::seed_from_u64(3),
    );
    sweep("random-12var", &spn, NumericMode::Linear);

    // A deep chain in both domains: the linear values underflow (f64 gives
    // exactly 0.0 from level ~400 on; an 8-bit exponent flushes after ~20
    // levels), while log-domain quantization keeps every format finite and
    // errors stay proportional to the format's unit roundoff.  The two
    // queries/sec columns are the price of answers that exist.
    let chain = deep_chain_spn(900, 1e-3);
    sweep("deep-chain-900", &chain, NumericMode::Linear);
    sweep("deep-chain-900", &chain, NumericMode::Log);

    println!(
        "\nThe error column is the paper's accuracy-vs-bit-width curve: each \
         halving of the\nmantissa roughly doubles the exponent of the error \
         while the modelled PE datapath\nshrinks; pick the narrowest format \
         whose error your application tolerates."
    );
}
