//! Bit-level pins of what the compiled programs compute, and exact cycle
//! counts of the paper's nine circuits.
//!
//! `tests/compiler_fingerprints.rs` pins the *bits* of the emitted programs,
//! so any change of scheduling policy moves it.  This pins what a schedule
//! change must not move: the root value of every Ptree and Pvect program on
//! a seeded 64-row batch, hashed with FNV-1a over `to_bits`, for the nine
//! learned Fig. 4 circuits, the spilling `random48` program (six registers
//! per bank, tiles two levels deep) and the golden-trace op lists.  A
//! schedule only decides where and when each operation runs, never what it
//! computes, so every digest stays put.
//!
//! Beside the digests, `Program::perf().cycles` of the nine circuits on
//! Ptree and Pvect is pinned exactly.  A schedule change moves a cycle row
//! on purpose and re-records it (run with `--nocapture` for the tables).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spn_accel::compiler::{CompiledArtifact, Compiler, CompilerOptions};
use spn_accel::core::flatten::OpList;
use spn_accel::core::random::{random_spn, RandomSpnConfig};
use spn_accel::core::Evidence;
use spn_accel::learn::Benchmark;
use spn_accel::processor::{ProcessorConfig, SimState};

/// Rows per batch.
const ROWS: usize = 64;
/// Seed of the evidence rows.
const SEED: u64 = 0x5eed_0032;

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
}

/// `ROWS` rows observing each variable with probability 2/3, each observed
/// variable true or false with even odds.
fn rows(num_vars: usize) -> Vec<Evidence> {
    let mut rng = StdRng::seed_from_u64(SEED);
    (0..ROWS)
        .map(|_| {
            Evidence::from_options(
                (0..num_vars)
                    .map(|_| (rng.gen_range(0..3usize) > 0).then(|| rng.gen_bool(0.5)))
                    .collect(),
            )
        })
        .collect()
}

/// The digest of the root values `artifact` computes on the seeded rows,
/// one query at a time through the checked program's replay.
fn values(artifact: &CompiledArtifact) -> u64 {
    let mut state = SimState::default();
    let mut h = Fnv::new();
    let rows = rows(artifact.op_list.num_vars());
    h.word(rows.len() as u64);
    for evidence in &rows {
        let inputs = artifact.input_values(evidence).expect("inputs");
        let mut output = [0.0];
        artifact
            .program
            .run_block(1, &inputs, &mut output, &mut state);
        h.word(output[0].to_bits());
    }
    h.0
}

/// Recorded at commit d059afb, before values read by several tiles got a
/// second register home.
const PINNED_VALUES: &[(&str, u64)] = &[
    ("Netflix/Ptree", 0x2a3a2db213541a62),
    ("Netflix/Pvect", 0x2a3a2db213541a62),
    ("BBC/Ptree", 0xc9232321222853bb),
    ("BBC/Pvect", 0xc9232321222853bb),
    ("Bio response/Ptree", 0x4d85cae68b10f604),
    ("Bio response/Pvect", 0x4d85cae68b10f604),
    ("Audio/Ptree", 0xb279313b25aa8d9e),
    ("Audio/Pvect", 0xb279313b25aa8d9e),
    ("CPU/Ptree", 0x089559c03f2e13d8),
    ("CPU/Pvect", 0x089559c03f2e13d8),
    ("MSNBC/Ptree", 0xa432ea75b6670c08),
    ("MSNBC/Pvect", 0xa432ea75b6670c08),
    ("EEG-eye/Ptree", 0xa0748ec7dfd98e6d),
    ("EEG-eye/Pvect", 0xa0748ec7dfd98e6d),
    ("KDDCup2k/Ptree", 0x1b4acba0eb428584),
    ("KDDCup2k/Pvect", 0x1b4acba0eb428584),
    ("Banknote/Ptree", 0x7eb13782d2970a31),
    ("Banknote/Pvect", 0x7eb13782d2970a31),
    ("random48/tiny-regs/depth-2/Ptree", 0x7e9f44b8693cbd96),
    ("random48/tiny-regs/depth-2/Pvect", 0x7e9f44b8693cbd96),
    ("mixture_1core_sharded/Ptree", 0xbdd720460c61f196),
    ("mixture_1core_sharded/Pvect", 0xbdd720460c61f196),
    ("mixture_2core_sharded/Ptree", 0xbdd720460c61f196),
    ("mixture_2core_sharded/Pvect", 0xbdd720460c61f196),
    ("mixture_log_2core_sharded/Ptree", 0x5c26c4b6505da741),
    ("mixture_log_2core_sharded/Pvect", 0x5c26c4b6505da741),
    ("sampler_2core_sharded/Ptree", 0xf26f4ec21b30aa05),
    ("sampler_2core_sharded/Pvect", 0xf26f4ec21b30aa05),
];

/// `(circuit, Ptree cycles, Pvect cycles)`, recorded at commit d059afb; the
/// Netflix, BBC, Bio response and Audio rows re-recorded (all lower) when
/// values that several tiles read got a second register home, and every row
/// but Banknote's when slots holding the same indicator or parameter began
/// to share a data-memory word.  No Ptree row rose (BBC stayed at 1 142).
/// Pvect BBC rose 3 292 -> 3 354: every register offset is in use there,
/// and the rows its shared words keep resident push others out to be
/// reloaded (282 -> 310 loads).  Pvect Audio rose 414 -> 419 on five more
/// forwarding moves.
const PINNED_CYCLES: &[(&str, u64, u64)] = &[
    ("Netflix", 125, 273),
    ("BBC", 1142, 3354),
    ("Bio response", 1548, 1945),
    ("Audio", 307, 419),
    ("CPU", 34, 52),
    ("MSNBC", 142, 236),
    ("EEG-eye", 233, 381),
    ("KDDCup2k", 1052, 2034),
    ("Banknote", 7, 7),
];

/// The nine learned Fig. 4 circuits, compiled for Ptree and for Pvect.
fn fig4_programs() -> Vec<(&'static str, CompiledArtifact, CompiledArtifact)> {
    let ptree = Compiler::new(ProcessorConfig::ptree());
    let pvect = Compiler::new(ProcessorConfig::pvect());
    Benchmark::all()
        .iter()
        .map(|benchmark| {
            let ops = OpList::from_spn(&benchmark.spn());
            let tree = ptree.compile_op_list(ops.clone()).expect("compiles");
            let vect = pvect.compile_op_list(ops).expect("compiles");
            (benchmark.name(), tree, vect)
        })
        .collect()
}

#[test]
fn root_values_are_those_of_the_recorded_commit() {
    let mut programs: Vec<(String, CompiledArtifact)> = Vec::new();
    for (name, tree, vect) in fig4_programs() {
        programs.push((format!("{name}/Ptree"), tree));
        programs.push((format!("{name}/Pvect"), vect));
    }

    // The spilling program of `tests/compiler_fingerprints.rs`, on both
    // machines with six registers per bank.
    let spn = random_spn(
        &RandomSpnConfig::with_vars(48),
        &mut StdRng::seed_from_u64(31),
    );
    for config in [ProcessorConfig::ptree(), ProcessorConfig::pvect()] {
        let name = format!("random48/tiny-regs/depth-2/{}", config.name);
        let tiny = ProcessorConfig {
            regs_per_bank: 6,
            ..config
        };
        let options = CompilerOptions {
            max_tile_depth: Some(2),
        };
        let artifact = Compiler::with_options(tiny, options)
            .compile(&spn)
            .expect("compiles");
        programs.push((name, artifact));
    }

    for case in spn_bench::traces::trace_cases() {
        for config in [ProcessorConfig::ptree(), ProcessorConfig::pvect()] {
            let name = format!("{}/{}", case.name, config.name);
            let artifact = Compiler::new(config)
                .compile_op_list(case.op_list())
                .expect("compiles");
            programs.push((name, artifact));
        }
    }

    let got: Vec<(String, u64)> = programs
        .iter()
        .map(|(name, artifact)| (name.clone(), values(artifact)))
        .collect();
    for (name, digest) in &got {
        println!("    (\"{name}\", {digest:#018x}),");
    }
    assert_eq!(
        got.len(),
        PINNED_VALUES.len(),
        "a pinned program was added or lost"
    );
    for ((name, digest), (pinned_name, pinned)) in got.iter().zip(PINNED_VALUES) {
        assert_eq!(name, pinned_name);
        assert_eq!(
            digest, pinned,
            "{name}: the program computes other root values than the recorded one"
        );
    }
}

#[test]
fn cycles_are_those_of_the_recorded_commit() {
    let got: Vec<(&str, u64, u64)> = fig4_programs()
        .iter()
        .map(|(name, tree, vect)| {
            (
                *name,
                tree.program.perf().cycles,
                vect.program.perf().cycles,
            )
        })
        .collect();
    for (name, tree, vect) in &got {
        println!("    (\"{name}\", {tree}, {vect}),");
    }
    assert_eq!(got.as_slice(), PINNED_CYCLES, "a circuit's cycles moved");
}
