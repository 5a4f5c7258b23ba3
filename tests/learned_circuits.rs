//! Bit-level pins of the nine circuits the learners produce for Fig. 4.
//!
//! `tests/compiler_fingerprints.rs` pins what the compiler emits for these
//! circuits; this pins the circuits themselves: every node in id order (its
//! kind, child ids, indicator variable and polarity, and each weight's or
//! constant's bits) plus the root id.  A change to how the learners compute
//! must leave every constant alone; a change of learned structure or
//! hyperparameters moves them on purpose and re-records them (run with
//! `--nocapture` for the table).

use spn_accel::core::{Node, Spn};
use spn_accel::learn::Benchmark;

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

    fn words<const N: usize>(&mut self, values: [u64; N]) {
        for value in values {
            self.word(value);
        }
    }

    fn spn(&mut self, spn: &Spn) {
        self.words([spn.num_vars() as u64, spn.num_nodes() as u64]);
        for (_, node) in spn.iter() {
            match node {
                Node::Sum { children, weights } => {
                    self.words([0, children.len() as u64]);
                    for (child, weight) in children.iter().zip(weights) {
                        self.words([child.0.into(), weight.to_bits()]);
                    }
                }
                Node::Product { children } => {
                    self.words([1, children.len() as u64]);
                    for child in children {
                        self.word(child.0.into());
                    }
                }
                Node::Indicator { var, value } => self.words([2, var.0.into(), (*value).into()]),
                Node::Constant(value) => self.words([3, value.to_bits()]),
            }
        }
        self.word(spn.root().0.into());
    }
}

/// Recorded at commit 7323a64, before the learners counted from bit columns.
const PINNED: &[(&str, u64)] = &[
    ("Netflix", 0x1ef85bbdee6ea14a),
    ("BBC", 0xc88b7d85241fd17c),
    ("Bio response", 0x8d15c27591fbdb72),
    ("Audio", 0xbfbab92a785a6018),
    ("CPU", 0xd3a7ea4007fc0145),
    ("MSNBC", 0x647d7a3b0fe9ab10),
    ("EEG-eye", 0x612ecb7870f243dc),
    ("KDDCup2k", 0xb1bb88e785e26aea),
    ("Banknote", 0xea5e449020e80c8f),
];

#[test]
fn learned_circuits_are_those_of_the_recorded_commit() {
    let got: Vec<(&str, u64)> = Benchmark::all()
        .iter()
        .map(|benchmark| {
            let mut h = Fnv::new();
            h.spn(&benchmark.spn());
            (benchmark.name(), h.0)
        })
        .collect();
    for (name, fingerprint) in &got {
        println!("    (\"{name}\", {fingerprint:#018x}),");
    }
    assert_eq!(
        got.len(),
        PINNED.len(),
        "a pinned circuit was added or lost"
    );
    for ((name, fingerprint), (pinned_name, pinned)) in got.iter().zip(PINNED) {
        assert_eq!(name, pinned_name);
        assert_eq!(
            fingerprint, pinned,
            "{name}: the learned circuit differs from the recorded one"
        );
    }
}
