//! The paper scoreboard: every quantitative claim of the source paper
//! (arXiv 2103.00266) beside our value and a verdict.
//!
//! This module is the one place in the code outside `benchmark/` that
//! writes the paper's numbers, Table I's CPU line included.  Each [`Row`]
//! holds a claim, the paper's value, the claim's [`Direction`] and our
//! value; [`Row::verdict`] judges it with one fixed `TOLERANCE` (10 %).  Our
//! values are deterministic model outputs, so `tests/figures.rs` pins each
//! row's value and verdict, and a row that changes verdict fails there
//! until the pin says so.

use spn_processor::ProcessorConfig;

use crate::PlatformRun;
use Direction::{About, AtLeast, AtMost};

/// Relative distance from the paper's value that still counts as the
/// paper's value (see [`Row::verdict`]).
pub(crate) const TOLERANCE: f64 = 0.10;

/// Table I: the GPU block's CUDA cores, 32-bit registers, KB of shared
/// memory and banks, each the ceiling or the point a row of ours meets.
const GPU: [(&str, Direction, usize); 4] = [
    ("PEs vs the GPU's CUDA cores", AtMost, 128),
    ("registers", AtMost, 64 * 1024),
    ("data memory KB vs shared memory", AtMost, 64),
    ("memory banks", About, 32),
];

/// How our value must stand against the paper's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// The paper's value is a floor.
    AtLeast,
    /// The paper's value is a point estimate.
    About,
    /// The paper's value is a ceiling.
    AtMost,
}

/// Whether a claim holds on our models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Our value meets the claim.
    Holds,
    /// Our value misses the claim.
    Gap,
    /// Our value beats a floor or a ceiling by more than `TOLERANCE`.
    Exceeds,
}

/// One claim of the paper beside our value.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// `Fig. 2c`, `Fig. 4` or `Table I`.
    pub figure: &'static str,
    /// What is compared.
    pub claim: String,
    /// The paper's value.
    pub paper: f64,
    /// How our value must stand against it.
    pub direction: Direction,
    /// Our value.
    pub ours: f64,
}

impl Row {
    /// The one rule: "at least" is a gap below the paper's value and
    /// exceeds it above `1 + TOLERANCE` times it; "at most" is the mirror
    /// image; "about" holds within `±TOLERANCE` and is a gap elsewhere.
    /// A value that is not finite is a gap.
    pub fn verdict(&self) -> Verdict {
        let off = (self.ours - self.paper) / self.paper;
        match self.direction {
            _ if !off.is_finite() => Verdict::Gap,
            AtLeast if off < 0.0 => Verdict::Gap,
            AtLeast if off > TOLERANCE => Verdict::Exceeds,
            AtMost if off > 0.0 => Verdict::Gap,
            AtMost if off < -TOLERANCE => Verdict::Exceeds,
            About if off.abs() > TOLERANCE => Verdict::Gap,
            _ => Verdict::Holds,
        }
    }
}

/// Geometric mean of `platform`'s ops/cycle over `results`.
pub fn geomean(results: &[PlatformRun], platform: &str) -> f64 {
    let logs: Vec<f64> = results
        .iter()
        .filter(|r| r.perf.platform == platform)
        .map(|r| r.perf.ops_per_cycle().max(1e-12).ln())
        .collect();
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

fn rows<const N: usize>(
    figure: &'static str,
    claims: [(&str, Direction, f64, f64); N],
) -> Vec<Row> {
    let row = |(claim, direction, paper, ours): (&str, _, _, _)| Row {
        figure,
        claim: claim.to_string(),
        paper,
        direction,
        ours,
    };
    claims.into_iter().map(row).collect()
}

/// Fig. 2c's rows from the ops/cycle of the CPU model and of the 1- and
/// 256-thread GPU models on MSNBC.  The paper's GPU runs 0.95 ops/cycle and
/// its CPU 0.55.
pub fn fig2c(cpu: f64, gpu_1: f64, gpu_256: f64) -> Vec<Row> {
    rows(
        "Fig. 2c",
        [
            ("256 / 1 GPU threads, MSNBC", About, 4.1, gpu_256 / gpu_1),
            ("GPU(256) / CPU, MSNBC", About, 0.95 / 0.55, gpu_256 / cpu),
        ],
    )
}

/// Fig. 4's rows from [`crate::run_all_platforms`]' results on the nine
/// circuits: Ptree's peak, and its geometric mean over each other
/// platform's.
pub fn fig4(results: &[PlatformRun]) -> Vec<Row> {
    let ptree = geomean(results, "Ptree");
    let vs = |platform| ptree / geomean(results, platform);
    let peak = results
        .iter()
        .filter(|r| r.perf.platform == "Ptree")
        .fold(0.0, |peak: f64, r| peak.max(r.perf.ops_per_cycle()));
    rows(
        "Fig. 4",
        [
            ("Ptree peak ops/cycle", AtLeast, 11.6, peak),
            ("Ptree / CPU, geomean", AtLeast, 12.0, vs("CPU")),
            ("Ptree / GPU, geomean", AtLeast, 12.0, vs("GPU")),
            ("Ptree / Pvect, geomean", About, 2.0, vs("Pvect")),
        ],
    )
}

/// One configuration's PEs, registers, KB of data memory (unrounded, so a
/// byte over a ceiling shows) and banks.
fn resources(config: &ProcessorConfig) -> [f64; 4] {
    let (registers, _, data_bytes) = config.storage_summary();
    [
        config.num_pes() as f64,
        registers as f64,
        data_bytes as f64 / 1024.0,
        config.total_banks() as f64,
    ]
}

/// Table I's rows: each of our two configurations' resources against the
/// GPU block's.
pub fn table1() -> Vec<Row> {
    let mut out = Vec::new();
    for config in [ProcessorConfig::ptree(), ProcessorConfig::pvect()] {
        let ours = GPU.iter().zip(resources(&config));
        out.extend(ours.map(|(&(what, direction, gpu), ours)| Row {
            figure: "Table I",
            claim: format!("{} {what}", config.name),
            paper: gpu as f64,
            direction,
            ours,
        }));
    }
    out
}

/// Table I as the paper prints it, with our two configurations' rows taken
/// from [`ProcessorConfig`].
pub fn table1_markdown() -> String {
    let [cores, registers, shared_kb, banks] = GPU.map(|(_, _, value)| value);
    let mut out = format!(
        "| Platform | Compute units | Immediate memory | Memory banks |\n|---|---|---|---|\n\
         | CPU | 2 arith. units in a superscalar core | 168 80b registers + 32 KB L1 cache | 16 |\n\
         | GPU | {cores} CUDA cores | {}K 32b registers + {shared_kb} KB shared mem. | {banks} |\n",
        registers / 1024
    );
    for config in [ProcessorConfig::pvect(), ProcessorConfig::ptree()] {
        let [pes, registers, data_kb, banks] = resources(&config);
        let registers = registers / 1024.0;
        out += &format!(
            "| Ours ({}) | {pes} PEs | {registers}K 32b registers + {data_kb:.0} KB data mem. | {banks} |\n",
            config.name
        );
    }
    out
}

/// A count as an integer, anything else to two decimals.
fn decimals(value: f64) -> String {
    format!("{value:.*}", if value.fract() == 0.0 { 0 } else { 2 })
}

/// The scoreboard as a markdown table, one line per row.
pub fn markdown(rows: &[Row]) -> String {
    let mut out =
        String::from("| figure | claim | ours | paper | verdict |\n|---|---|---|---|---|\n");
    for row in rows {
        let direction = match row.direction {
            AtLeast => "at least",
            About => "about",
            AtMost => "at most",
        };
        out.push_str(&format!(
            "| {} | {} | {} | {direction} {} | {} |\n",
            row.figure,
            row.claim,
            decimals(row.ours),
            decimals(row.paper),
            format!("{:?}", row.verdict()).to_lowercase(),
        ));
    }
    out
}
