//! Bit-level pins of the batch splits where every core costs the same.
//!
//! `MultiCoreProcessor::shard_ranges` is the split host threads, sampler
//! shards and simulated cores of equal cost share; `sharded_perf` is what a
//! sharded batch costs.  This pins both where no core waits on another:
//!
//! * `shard_ranges(cores, q)` for 1..=8 cores and 0..=70 queries;
//! * `sharded_perf` of the nine learned Fig. 4 circuits compiled for Ptree,
//!   at 0..=70 queries, on one core and on four cores with one shared-memory
//!   port per core.
//!
//! Each line hashes, with FNV-1a, every range bound, or every makespan and
//! per-core attribution with its work counters.  A change to how shards are
//! sized must leave every constant alone; a change of the equal-cost split
//! moves them on purpose and re-records them (run with `--nocapture` for the
//! table).

use spn_accel::compiler::Compiler;
use spn_accel::core::flatten::OpList;
use spn_accel::learn::Benchmark;
use spn_accel::processor::{
    MultiCoreConfig, MultiCorePerf, MultiCoreProcessor, PerfReport, ProcessorConfig,
};

/// Largest batch length pinned.
const QUERIES: usize = 70;

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

    fn report(&mut self, r: &PerfReport) {
        self.words([
            r.queries,
            r.cycles,
            r.source_ops,
            r.issued_ops,
            r.instructions,
            r.stall_cycles,
            r.memory_loads,
            r.memory_stores,
            r.writebacks,
            r.operand_reads,
        ]);
    }

    fn perf(&mut self, perf: &MultiCorePerf) {
        self.words([perf.makespan_cycles, perf.per_core.len() as u64]);
        for core in &perf.per_core {
            self.words([
                core.core as u64,
                core.compute_cycles,
                core.memory_stall_cycles,
                core.interconnect_stall_cycles,
                core.idle_cycles,
            ]);
            self.report(&core.work);
        }
    }
}

/// Recorded at commit a56def3, before shards were sized by their cost.
const PINNED_RANGES: u64 = 0xeee54ebacca10b8d;

/// Recorded at commit a56def3, before shards were sized by their cost; the
/// Netflix, BBC, Bio response and Audio rows re-recorded when values that
/// several tiles read got a second register home (their programs got
/// shorter), and every row but Banknote's when slots holding the same
/// indicator or parameter began to share a data-memory word (fewer loads
/// per pass, so fewer wave stalls; Banknote's program did not move).
const PINNED_PERF: &[(&str, u64)] = &[
    ("Netflix", 0xe63205613d8ac82a),
    ("BBC", 0x0aeba9c412bd494a),
    ("Bio response", 0x886cb05dd1a1063b),
    ("Audio", 0xd0e5d3e967200236),
    ("CPU", 0xc704824a2569bda9),
    ("MSNBC", 0x70886a7a69a9b0c3),
    ("EEG-eye", 0x692527eb81b6edd4),
    ("KDDCup2k", 0xc05a533bbb4f8b6b),
    ("Banknote", 0x55a0b5470cbb4655),
];

#[test]
fn equal_cost_shard_ranges_are_those_of_the_recorded_commit() {
    let mut h = Fnv::new();
    for cores in 1..=8 {
        for queries in 0..=QUERIES {
            let ranges = MultiCoreProcessor::shard_ranges(cores, queries);
            h.word(ranges.len() as u64);
            for range in ranges {
                h.words([range.start as u64, range.end as u64]);
            }
        }
    }
    println!("const PINNED_RANGES: u64 = {:#018x};", h.0);
    assert_eq!(h.0, PINNED_RANGES, "an equal-cost split moved");
}

#[test]
fn equal_cost_sharded_costs_are_those_of_the_recorded_commit() {
    let ptree = ProcessorConfig::ptree();
    let compiler = Compiler::new(ptree.clone());
    let single = MultiCoreProcessor::new(MultiCoreConfig::new(1, ptree.clone())).expect("1 core");
    let mut quad = MultiCoreConfig::new(4, ptree);
    quad.shared_memory.ports = 4;
    let quad = MultiCoreProcessor::new(quad).expect("4 cores");
    let got: Vec<(&str, u64)> = Benchmark::all()
        .iter()
        .map(|benchmark| {
            let ops = OpList::from_spn(&benchmark.spn());
            let compiled = compiler.compile_op_list(ops).expect("compiles");
            let mut h = Fnv::new();
            for machine in [&single, &quad] {
                for queries in 0..=QUERIES {
                    let perf = machine
                        .sharded_perf(&compiled.program, queries)
                        .expect("same machine");
                    h.perf(&perf);
                }
            }
            (benchmark.name(), h.0)
        })
        .collect();
    for (name, fingerprint) in &got {
        println!("    (\"{name}\", {fingerprint:#018x}),");
    }
    assert_eq!(
        got.len(),
        PINNED_PERF.len(),
        "a pinned circuit was added or lost"
    );
    for ((name, fingerprint), (pinned_name, pinned)) in got.iter().zip(PINNED_PERF) {
        assert_eq!(name, pinned_name);
        assert_eq!(
            fingerprint, pinned,
            "{name}: the equal-cost sharded cost differs from the recorded one"
        );
    }
}
