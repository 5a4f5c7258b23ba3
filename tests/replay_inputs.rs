//! The simulator's lane tile is filled only where the replay reads it.
//!
//! A compiled artifact fills its lane tiles with its lane recipe
//! (`CompiledArtifact::lane_recipe`): the full input recipe restricted to
//! the input slots the checked program's replay reads
//! (`CheckedProgram::inputs_read`).  The first test proves that set
//! complete: a tile poisoned with NaN and then given only the restricted
//! fill replays to the bits of a fully filled tile, on both machines, at
//! every lane width, in both numeric domains and at a reduced precision.
//!
//! The second pins, per Ptree circuit of the paper's Fig. 4, four exact
//! counts: the input slots, the slots the replay reads, the indicator lane
//! groups a block fill writes and the runs of one opcode the replay is cut
//! into.  A lowering or layout change that moves one re-records it on
//! purpose (run with `--nocapture` for the table); a count that grows is a
//! cost that grew.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spn_accel::compiler::{CompiledArtifact, Compiler};
use spn_accel::core::flatten::OpList;
use spn_accel::core::precision::Precision;
use spn_accel::core::random::{random_spn, RandomSpnConfig};
use spn_accel::core::{Evidence, EvidenceBatch};
use spn_accel::learn::Benchmark;
use spn_accel::processor::{ProcessorConfig, SimState};

/// Queries per batch: a full block of every width, and a tail.
const ROWS: usize = 19;

/// Marginal, complete and partial queries in turn.
fn batch(num_vars: usize, seed: u64) -> EvidenceBatch {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = EvidenceBatch::new(num_vars);
    for q in 0..ROWS {
        let observed = [0.0, 1.0, 0.5][q % 3];
        let row = (0..num_vars)
            .map(|_| rng.gen_bool(observed).then(|| rng.gen_bool(0.5)))
            .collect();
        batch.push(&Evidence::from_options(row)).unwrap();
    }
    batch
}

/// The root values of `batch` in blocks of `lanes` (a narrower tail after
/// the full blocks), each block's tile poisoned with NaN first and then
/// filled by `fill`.
fn replay(
    artifact: &CompiledArtifact,
    batch: &EvidenceBatch,
    lanes: usize,
    fill: impl Fn(usize, usize, &mut [f64]),
) -> Vec<u64> {
    let n = artifact.program.input_layout.len();
    let mut state = SimState::default();
    let mut values = vec![0.0; batch.len()];
    let mut start = 0;
    while start < batch.len() {
        let width = [8, 4, 2, 1]
            .into_iter()
            .find(|&w| w <= lanes && start + w <= batch.len())
            .unwrap();
        let mut tile = vec![f64::NAN; n * width];
        fill(start, width, &mut tile);
        let out = &mut values[start..start + width];
        artifact.program.run_block(width, &tile, out, &mut state);
        start += width;
    }
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn a_tile_filled_only_where_the_replay_reads_replays_to_the_full_fills_bits() {
    let mut circuits: Vec<(String, OpList)> = [Benchmark::Msnbc, Benchmark::KddCup2k]
        .iter()
        .map(|b| (b.name().to_string(), OpList::from_spn(&b.spn())))
        .collect();
    let spn = random_spn(
        &RandomSpnConfig::with_vars(24),
        &mut StdRng::seed_from_u64(36),
    );
    circuits.push(("random24".to_string(), OpList::from_spn(&spn)));
    let mut restricted_somewhere = false;
    for (name, ops) in &circuits {
        let variants = [
            ("linear", ops.clone()),
            ("log", ops.to_log_domain()),
            ("e8m10", ops.with_precision(Precision::E8M10)),
        ];
        for (domain, ops) in variants {
            for config in [ProcessorConfig::ptree(), ProcessorConfig::pvect()] {
                let case = format!("{name}/{domain}/{}", config.name);
                let artifact = Compiler::new(config).compile_op_list(ops.clone()).unwrap();
                let (full, lane) = (artifact.input_recipe(), artifact.lane_recipe());
                let read = artifact.program.inputs_read();
                assert!(read.windows(2).all(|w| w[0] < w[1]), "{case}");
                restricted_somewhere |= read.len() < full.num_inputs();
                assert!(lane.num_indicators() <= full.num_indicators(), "{case}");
                let batch = batch(ops.num_vars(), 0x5eed_0036);
                for lanes in [1, 2, 4, 8] {
                    let want = replay(&artifact, &batch, lanes, |start, width, tile| {
                        full.fill_lane_block(&batch, start, width, tile);
                    });
                    let got = replay(&artifact, &batch, lanes, |start, width, tile| {
                        lane.fill_params(width, tile);
                        lane.fill_indicators(&batch, start, width, tile);
                    });
                    assert_eq!(got, want, "{case} at {lanes} lanes");
                    assert!(
                        want.iter().all(|&bits| !f64::from_bits(bits).is_nan()),
                        "{case}: a full fill leaves no NaN"
                    );
                }
            }
        }
    }
    assert!(
        restricted_somewhere,
        "some replay leaves input slots unread"
    );
}

/// `(circuit, input slots, slots the replay reads, indicator groups per
/// block fill, replay runs)` of the Ptree programs, recorded when the
/// simulator began to fill only the slots its replay reads and to replay
/// its steps in runs of one opcode.
const PINNED: &[(&str, usize, usize, usize, usize)] = &[
    ("Netflix", 598, 591, 200, 39),
    ("BBC", 6346, 6088, 2116, 162),
    ("Bio response", 2998, 2433, 1000, 1500),
    ("Audio", 598, 584, 200, 300),
    ("CPU", 214, 132, 16, 18),
    ("MSNBC", 1684, 489, 95, 30),
    ("EEG-eye", 2946, 889, 138, 36),
    ("KDDCup2k", 15192, 2921, 981, 69),
    ("Banknote", 26, 26, 12, 7),
];

#[test]
fn input_and_run_counts_of_the_ptree_programs_are_the_recorded_ones() {
    let ptree = Compiler::new(ProcessorConfig::ptree());
    let got: Vec<(&str, usize, usize, usize, usize)> = Benchmark::all()
        .iter()
        .map(|benchmark| {
            let ops = OpList::from_spn(&benchmark.spn());
            let artifact = ptree.compile_op_list(ops).expect("compiles");
            (
                benchmark.name(),
                artifact.program.input_layout.len(),
                artifact.program.inputs_read().len(),
                artifact.lane_recipe().num_indicators(),
                artifact.program.replay_runs(),
            )
        })
        .collect();
    for row in &got {
        println!("    {row:?},");
    }
    assert_eq!(got, PINNED);
}
