//! Bit-level pins of the sampler's output on two learned circuits and one
//! seeded random circuit.
//!
//! `tests/reference_bits.rs` pins a few sampler rows on small random SPNs;
//! this pins whole batches shaped like the `engine-modes` `expectation`
//! call (two thirds of the variables observed) on circuits large enough for
//! observed-only sub-circuits to matter, plus an all-marginal and a fully
//! observed row.  Each line hashes, with FNV-1a over `to_bits`:
//!
//! * likelihood-weighted `expectation` values and standard errors,
//! * likelihood-weighted `sample` weights and assignments,
//! * ancestral `expectation` values.
//!
//! A change to how the sampler computes must leave every constant alone; a
//! change of what it draws moves them on purpose and re-records them (run
//! with `--nocapture` for the table).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spn_accel::core::random::{random_spn, RandomSpnConfig};
use spn_accel::core::{
    Evidence, EvidenceBatch, SampleBatch, SampleMethod, SampleSpec, SamplerProgram, Spn,
};
use spn_accel::learn::Benchmark;

/// Draws per row.
const DRAWS: u32 = 64;
/// Partial rows per batch, beside the all-marginal and fully observed ones.
const PARTIAL_ROWS: usize = 16;

/// 64-bit FNV-1a over a stream of integers (eight little-endian bytes each).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(values: &[f64]) -> u64 {
        let mut h = Fnv::new();
        h.word(values.len() as u64);
        for v in values {
            h.word(v.to_bits());
        }
        h.0
    }

    fn assignments(assignments: &[Vec<bool>]) -> u64 {
        let mut h = Fnv::new();
        h.word(assignments.len() as u64);
        for a in assignments {
            h.word(a.len() as u64);
            for &bit in a {
                h.word(bit.into());
            }
        }
        h.0
    }
}

/// `PARTIAL_ROWS` rows observing each variable with probability 2/3 (the
/// benchmark's partial rows), then an all-marginal and a fully observed row.
fn rows(num_vars: usize, seed: u64) -> EvidenceBatch {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut evidences: Vec<Evidence> = (0..PARTIAL_ROWS)
        .map(|_| {
            Evidence::from_options(
                (0..num_vars)
                    .map(|_| (rng.gen_range(0..3usize) > 0).then(|| rng.gen_bool(0.5)))
                    .collect(),
            )
        })
        .collect();
    evidences.push(Evidence::marginal(num_vars));
    let full: Vec<bool> = (0..num_vars).map(|_| rng.gen_bool(0.5)).collect();
    evidences.push(Evidence::from_assignment(&full));
    EvidenceBatch::from_evidences(num_vars, &evidences).unwrap()
}

/// The five digests of one circuit: LW values, LW standard errors, LW
/// sample weights, LW sample assignments, ancestral values.
fn digests(spn: &Spn, seed: u64) -> [u64; 5] {
    let sampler = SamplerProgram::new(spn);
    let rows = rows(spn.num_vars(), seed);
    let request = |method| {
        let spec = SampleSpec {
            seed,
            n_samples: DRAWS,
            method,
        };
        SampleBatch::new(rows.clone(), spec)
    };
    let lw = request(SampleMethod::LikelihoodWeighted);
    let estimates = sampler.run_expectation_range(&lw, 0, lw.len()).unwrap();
    let samples = sampler.run_sample_range(&lw, 0, lw.len()).unwrap();
    let ancestral = request(SampleMethod::Ancestral);
    let prior = sampler
        .run_expectation_range(&ancestral, 0, ancestral.len())
        .unwrap();
    [
        Fnv::floats(&estimates.values),
        Fnv::floats(&estimates.std_err),
        Fnv::floats(&samples.values),
        Fnv::assignments(samples.assignments.as_deref().unwrap()),
        Fnv::floats(&prior.values),
    ]
}

/// Recorded at commit baaa078, before likelihood weighting re-swept only
/// each row's cone.
const PINNED: &[(&str, [u64; 5])] = &[
    (
        "Banknote",
        [
            0x594bc8635a163ea9,
            0x053b65e47f49d972,
            0xaaf137c047965095,
            0x19a673794f34f599,
            0xe501b1a8ca119b25,
        ],
    ),
    (
        "MSNBC",
        [
            0x6fdacfbaff424f25,
            0x57a0c50545296e5b,
            0x44d97d737ae69e44,
            0xe6080c6ed6639359,
            0xef46f4fe560e7586,
        ],
    ),
    (
        "random",
        [
            0xebbfbded445fc16e,
            0x0503c71c6dfee6ff,
            0x2b6644f77dd96564,
            0xa878e535b5c73198,
            0x3175615fd920ac76,
        ],
    ),
];

#[test]
fn sampler_bits_are_those_of_the_recorded_commit() {
    let circuits = [
        ("Banknote", Benchmark::Banknote.spn()),
        ("MSNBC", Benchmark::Msnbc.spn()),
        (
            "random",
            random_spn(
                &RandomSpnConfig::with_vars(10),
                &mut StdRng::seed_from_u64(2020),
            ),
        ),
    ];
    let got: Vec<(&str, [u64; 5])> = circuits
        .iter()
        .map(|(name, spn)| (*name, digests(spn, 0x5a3d)))
        .collect();
    for (name, d) in &got {
        println!(
            "    (\"{name}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}]),",
            d[0], d[1], d[2], d[3], d[4]
        );
    }
    assert_eq!(
        got.len(),
        PINNED.len(),
        "a pinned circuit was added or lost"
    );
    for ((name, d), (pinned_name, pinned)) in got.iter().zip(PINNED) {
        assert_eq!(name, pinned_name);
        for (what, (g, p)) in [
            "LW expectation values",
            "LW standard errors",
            "LW sample weights",
            "LW sample assignments",
            "ancestral expectation values",
        ]
        .iter()
        .zip(d.iter().zip(pinned))
        {
            assert_eq!(g, p, "{name}: {what} differ from the recorded ones");
        }
    }
}
