//! Bit-level pins of the MAP assignments `Engine<CpuModel>` returns.
//!
//! The parity matrix (`tests/parity/mod.rs`) holds every backend's MAP
//! values and assignments to the op list's interpreter on its own circuits;
//! this pins what the engine answers on the nine learned Fig. 4 circuits in
//! both numeric domains at full and at reduced precision, on rows with
//! partial evidence, so a change to how the traceback runs must leave every
//! constant alone (run with `--nocapture` for the table).  Beside it, a
//! hand-built circuit whose sums have tied children holds the first-wins
//! rule: each assignment must equal `Spn::mpe`'s.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spn_accel::core::{
    Evidence, EvidenceBatch, NumericMode, Precision, QueryBatch, Spn, SpnBuilder, VarId,
};
use spn_accel::learn::Benchmark;
use spn_accel::platforms::{CpuModel, Engine, EngineOptions};

/// Partial rows per batch, beside the all-marginal and fully observed ones:
/// with those, 70 rows, so the default-width pass cuts two full 32-lane
/// blocks and a ragged tail.
const PARTIAL_ROWS: usize = 68;

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

/// `PARTIAL_ROWS` rows observing each variable with probability 1/3, then
/// an all-marginal and a fully observed row.
fn rows(num_vars: usize, seed: u64) -> EvidenceBatch {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut evidences: Vec<Evidence> = (0..PARTIAL_ROWS)
        .map(|_| {
            Evidence::from_options(
                (0..num_vars)
                    .map(|_| (rng.gen_range(0..3usize) == 0).then(|| rng.gen_bool(0.5)))
                    .collect(),
            )
        })
        .collect();
    evidences.push(Evidence::marginal(num_vars));
    let full: Vec<bool> = (0..num_vars).map(|_| rng.gen_bool(0.5)).collect();
    evidences.push(Evidence::from_assignment(&full));
    EvidenceBatch::from_evidences(num_vars, &evidences).unwrap()
}

/// The four engine variants each circuit is pinned under, in table order.
const VARIANTS: [(NumericMode, Precision); 4] = [
    (NumericMode::Linear, Precision::F64),
    (NumericMode::Linear, Precision::E8M10),
    (NumericMode::Log, Precision::F64),
    (NumericMode::Log, Precision::E8M10),
];

/// The MAP assignments a default-width CPU engine lowered per `mode` and
/// `precision` returns for `rows`.
fn map_assignments(
    spn: &Spn,
    mode: NumericMode,
    precision: Precision,
    rows: &EvidenceBatch,
) -> Vec<Vec<bool>> {
    let options = EngineOptions::default().mode(mode).precision(precision);
    let mut engine = Engine::new(CpuModel::new(), spn, options).expect("engine builds");
    let output = engine
        .execute_query(&QueryBatch::Map(rows.clone()))
        .expect("MAP batch runs");
    let assignments = output.assignments.expect("a MAP batch has assignments");
    assert_eq!(assignments.len(), rows.len());
    assignments
}

/// Recorded at commit 7efec56, while the engine traced each row by
/// re-running the max-product program on it.
const PINNED: &[(&str, [u64; 4])] = &[
    (
        "Netflix",
        [
            0x20dec0ea52a4b202,
            0x20dec0ea52a4b202,
            0x20dec0ea52a4b202,
            0x47cb21b78ccdf802,
        ],
    ),
    (
        "BBC",
        [
            0x979f08c2d606912a,
            0xcb4c5499c21eb602,
            0x979f08c2d606912a,
            0xedf3dba923fa0862,
        ],
    ),
    (
        "Bio response",
        [
            0xd3329613192240d3,
            0x923e144e02207566,
            0xd3329613192240d3,
            0x23c18e406f6c180a,
        ],
    ),
    (
        "Audio",
        [
            0x4eb433d7c121ac02,
            0x569e2948fafbc002,
            0x4eb433d7c121ac02,
            0x720ea3d19842a182,
        ],
    ),
    (
        "CPU",
        [
            0x9c7399b8d09f0ec3,
            0x9c7399b8d09f0ec3,
            0x9c7399b8d09f0ec3,
            0x9c7399b8d09f0ec3,
        ],
    ),
    (
        "MSNBC",
        [
            0x443c5ad7a6848763,
            0x443c5ad7a6848763,
            0x443c5ad7a6848763,
            0x443c5ad7a6848763,
        ],
    ),
    (
        "EEG-eye",
        [
            0xaaa9c60f1001dc42,
            0x0fd02f36e2678c03,
            0xaaa9c60f1001dc42,
            0xaaa9c60f1001dc42,
        ],
    ),
    (
        "KDDCup2k",
        [
            0xabd5df971190cf03,
            0xabd5df971190cf03,
            0xabd5df971190cf03,
            0xabd5df971190cf03,
        ],
    ),
    (
        "Banknote",
        [
            0x72abcdf5ca7949c2,
            0x72abcdf5ca7949c2,
            0x72abcdf5ca7949c2,
            0x72abcdf5ca7949c2,
        ],
    ),
];

#[test]
fn map_assignments_are_those_of_the_recorded_commit() {
    let got: Vec<(&str, [u64; 4])> = Benchmark::all()
        .into_iter()
        .map(|benchmark| {
            let spn = benchmark.spn();
            let rows = rows(spn.num_vars(), 0x3a9);
            let digests = VARIANTS.map(|(mode, precision)| {
                Fnv::assignments(&map_assignments(&spn, mode, precision, &rows))
            });
            (benchmark.name(), digests)
        })
        .collect();
    for (name, d) in &got {
        println!(
            "    (\"{name}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}]),",
            d[0], d[1], d[2], d[3]
        );
    }
    assert_eq!(
        got.len(),
        PINNED.len(),
        "a pinned circuit was added or lost"
    );
    for ((name, d), (pinned_name, pinned)) in got.iter().zip(PINNED) {
        assert_eq!(name, pinned_name);
        for ((mode, precision), (g, p)) in VARIANTS.iter().zip(d.iter().zip(pinned)) {
            assert_eq!(
                g, p,
                "{name} {mode}/{precision}: MAP assignments differ from the recorded ones"
            );
        }
    }
}

/// Three variables under a root sum of three equally weighted products,
/// every sum's children tied whenever their variables are unobserved: the
/// inner sums over variable 1 list its values in both orders, so the
/// first-wins rule, not the values, decides which one a row gets.
fn tied_circuit() -> Spn {
    let mut b = SpnBuilder::new(3);
    let [x0, nx0, x1, nx1, x2, nx2] = [
        (0, true),
        (0, false),
        (1, true),
        (1, false),
        (2, true),
        (2, false),
    ]
    .map(|(var, value)| b.indicator(VarId(var), value));
    let false_first = b.sum(vec![(nx1, 0.5), (x1, 0.5)]).unwrap();
    let true_first = b.sum(vec![(x1, 0.5), (nx1, 0.5)]).unwrap();
    let var2 = b.sum(vec![(x2, 0.5), (nx2, 0.5)]).unwrap();
    let p0 = b.product(vec![x0, false_first, var2]).unwrap();
    let p1 = b.product(vec![nx0, var2, true_first]).unwrap();
    let p2 = b.product(vec![x0, true_first, var2]).unwrap();
    let third = 1.0 / 3.0;
    let root = b.sum(vec![(p0, third), (p1, third), (p2, third)]).unwrap();
    b.finish(root).unwrap()
}

#[test]
fn tied_sums_resolve_to_spn_mpe_in_every_domain_and_precision() {
    let spn = tied_circuit();
    let mut evidences = Vec::new();
    for code in 0..27u32 {
        let obs = |var: u32| [None, Some(false), Some(true)][(code / 3u32.pow(var) % 3) as usize];
        evidences.push(Evidence::from_options((0..3).map(obs).collect()));
    }
    let rows = EvidenceBatch::from_evidences(3, &evidences).unwrap();
    for (mode, precision) in VARIANTS {
        let got = map_assignments(&spn, mode, precision, &rows);
        for (q, assignment) in got.iter().enumerate() {
            let mpe = spn.mpe(&rows.to_evidence(q)).unwrap();
            assert_eq!(
                assignment,
                &mpe.assignment,
                "{mode}/{precision} row {q} ({:?})",
                rows.query(q)
            );
        }
    }
}
