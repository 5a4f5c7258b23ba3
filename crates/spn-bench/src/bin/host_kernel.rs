//! The host lane kernel's speed per circuit: how many operations per
//! nanosecond `LaneProgram::run_block` — the kernel every CPU and GPU model
//! batch runs on — does on this machine, at each lane width.
//!
//! For each of the nine Fig. 4 circuits (linear domain, `F64`), a
//! 1024-row marginal batch is cut into blocks of one supported width at a
//! time, every width from 8 lanes up to `MAX_LANES`, and run through the
//! circuit's lane program on 1 thread and on 2 (each thread takes half the
//! batch and has its own register file).  A repetition runs the batch
//! enough times to do at least `ops_per_repeat` operations, at each width
//! in turn; a row prints each width's best of `repeats` as ops per ns
//! (circuit ops × rows ÷ wall ns, all threads together), beside the
//! register file one block takes at the widest width and the CPU model's
//! modelled ops per cycle.  Ops per
//! nominal cycle divide by the clock `/proc/cpuinfo` gives: the `@ … GHz`
//! of the model name, or else its first `cpu MHz` line.  Under turbo or a
//! shared host the true ops per cycle is lower.
//!
//! A last table sets a MAP batch beside the marginal pass, on 1 thread:
//! `MaxProductProgram::trace_batch` over the same rows — the max-product
//! lane pass at `MAX_LANES` that records each maximisation's winner, plus
//! the traceback of every row from those bits, which is what
//! `Engine::execute_query` adds to a MAP batch's value pass — in ns per
//! row against the marginal pass's, best of the same repetitions.
//!
//! Every width's values, on both thread counts, are checked bit for bit
//! against the scalar reference `OpList::run_into`, and every MAP
//! assignment against the one `Engine<CpuModel>` returns; any mismatch
//! exits 1.
//! The output is markdown on stdout.  It is not pinned: a number worth
//! quoting is committed with the host it was measured on (`docs/`).
//!
//! Run with `cargo run --release -p spn-bench --bin host_kernel [-- --smoke]`;
//! `--smoke` (the CI mode) keeps every circuit, width and check and shrinks
//! the batch and the repetitions.

use std::time::Instant;

use spn_core::batch::EvidenceBatch;
use spn_core::flatten::OpList;
use spn_core::query::{MaxProductProgram, TraceScratch};
use spn_core::vectorized::{LaneProgram, MAX_LANES};
use spn_core::{Evidence, QueryBatch};
use spn_learn::Benchmark;
use spn_platforms::{Backend, BackendError, CpuModel, Engine, EngineOptions};

/// What `--smoke` shrinks; the circuits, widths and checks are the same.
struct Sizes {
    rows: usize,
    repeats: usize,
    ops_per_repeat: usize,
}

const FULL: Sizes = Sizes {
    rows: 1024,
    repeats: 15,
    ops_per_repeat: 20_000_000,
};

const SMOKE: Sizes = Sizes {
    rows: 128,
    repeats: 2,
    ops_per_repeat: 200_000,
};

/// Thread counts timed per circuit and width.
const THREADS: [usize; 2] = [1, 2];

/// The timed widths: every supported width from 8 lanes up.
fn widths() -> Vec<usize> {
    (3..)
        .map(|k| 1usize << k)
        .take_while(|&w| w <= MAX_LANES)
        .collect()
}

/// `rows` queries over `num_vars` variables, each cell marginal, true or
/// false by a fixed hash of (query, variable), so every run sees the same
/// batch.
fn mixed_batch(num_vars: usize, rows: usize) -> Result<EvidenceBatch, BackendError> {
    let mut batch = EvidenceBatch::with_capacity(num_vars, rows);
    for q in 0..rows as u64 {
        let row = (0..num_vars as u64)
            .map(|v| {
                // SplitMix64's finaliser over (query, variable).
                let mut z = (q << 32 | v).wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                [None, Some(true), Some(false)][((z ^ (z >> 31)) % 3) as usize]
            })
            .collect();
        batch.push(&Evidence::from_options(row))?;
    }
    Ok(batch)
}

/// Runs queries `first .. first + out.len()` of `batch` through `program`
/// in blocks of `lanes`, writing their root values to `out`, whose length
/// is a multiple of `lanes`.
fn run_range(
    program: &LaneProgram,
    batch: &EvidenceBatch,
    first: usize,
    lanes: usize,
    registers: &mut [f64],
    out: &mut [f64],
) {
    for (block, values) in out.chunks_exact_mut(lanes).enumerate() {
        program.run_block(batch, first + block * lanes, lanes, registers, values);
    }
    // Each pass rewrites the same values: keep the compiler from folding
    // repeated passes into one.
    std::hint::black_box(out);
}

/// One repetition: `passes` runs of `batch` at `lanes` on one thread per
/// register file in `registers` (thread `t` takes the `t`-th share of the
/// rows into the `t`-th share of `values`), in ns of wall time.
fn time_once(
    program: &LaneProgram,
    batch: &EvidenceBatch,
    lanes: usize,
    passes: usize,
    registers: &mut [Vec<f64>],
    values: &mut [f64],
) -> f64 {
    let share = batch.len() / registers.len();
    let start = Instant::now();
    if let [registers] = registers {
        for _ in 0..passes {
            run_range(program, batch, 0, lanes, registers, values);
        }
    } else {
        std::thread::scope(|scope| {
            let parts = values.chunks_mut(share).zip(registers.iter_mut());
            for (t, (out, registers)) in parts.enumerate() {
                scope.spawn(move || {
                    for _ in 0..passes {
                        run_range(program, batch, t * share, lanes, registers, out);
                    }
                });
            }
        });
    }
    start.elapsed().as_secs_f64() * 1e9
}

/// One repetition of the MAP column: `passes` traces of `batch` on one
/// thread, in ns of wall time, and the last pass's assignments.
fn time_map(
    program: &MaxProductProgram,
    batch: &EvidenceBatch,
    passes: usize,
    scratch: &mut TraceScratch,
) -> Result<(f64, Vec<Vec<bool>>), BackendError> {
    let start = Instant::now();
    let mut assignments = Vec::new();
    for _ in 0..passes {
        assignments = std::hint::black_box(program.trace_batch(batch, scratch)?);
    }
    Ok((start.elapsed().as_secs_f64() * 1e9, assignments))
}

/// The host's CPU model string and nominal clock in GHz, with where the
/// clock came from, read from `/proc/cpuinfo`.
fn host_cpu() -> (String, Option<(f64, &'static str)>) {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |name: &str| {
        info.lines()
            .filter_map(|line| line.split_once(':'))
            .find(|(key, _)| key.trim() == name)
            .map(|(_, value)| value.trim().to_string())
    };
    let model = field("model name").unwrap_or_else(|| "unknown".to_string());
    let from_name = model
        .split_once('@')
        .and_then(|(_, clock)| clock.trim().trim_end_matches("GHz").trim().parse().ok())
        .map(|ghz| (ghz, "model name"));
    let from_mhz = || {
        field("cpu MHz")
            .and_then(|mhz| mhz.parse::<f64>().ok())
            .map(|mhz| (mhz / 1000.0, "cpu MHz"))
    };
    (model, from_name.or_else(from_mhz))
}

/// One circuit's measured rows: ops/ns per thread count and width.
struct Circuit {
    name: &'static str,
    ops: usize,
    slots: usize,
    model_ops_per_cycle: f64,
    ops_per_ns: Vec<Vec<f64>>,
    /// `MaxProductProgram::trace_batch`'s ns per row on 1 thread.
    map_ns_per_row: f64,
}

fn measure(benchmark: Benchmark, sizes: &Sizes) -> Result<Circuit, BackendError> {
    // At the most threads, every thread's share is whole blocks of every
    // width.
    let most_threads = THREADS[THREADS.len() - 1];
    assert!(sizes.rows.is_multiple_of(most_threads * MAX_LANES));
    let spn = benchmark.spn();
    let ops = OpList::from_spn(&spn);
    let program = LaneProgram::from_op_list(&ops);
    let batch = mixed_batch(ops.num_vars(), sizes.rows)?;
    let recipe = ops.input_recipe();
    let (mut inputs, mut results) = (vec![0.0; recipe.num_inputs()], vec![0.0; ops.num_ops()]);
    let want: Vec<u64> = (0..batch.len())
        .map(|q| {
            recipe.fill_query(&batch, q, &mut inputs);
            ops.run_into(&inputs, &mut results).to_bits()
        })
        .collect();
    let work = ops.num_ops() * batch.len();
    let passes = sizes.ops_per_repeat.div_ceil(work.max(1));
    let widths = widths();
    let mut ops_per_ns = Vec::new();
    for threads in THREADS {
        // The widths take turns within each repetition, so a slow phase of
        // a shared host falls on all of them; the first round is a warm-up.
        let mut best = vec![f64::INFINITY; widths.len()];
        for repeat in 0..=sizes.repeats {
            for (w, &lanes) in widths.iter().enumerate() {
                let mut registers = vec![vec![0.0; program.slots() * lanes]; threads];
                let mut values = vec![f64::NAN; batch.len()];
                let ns = time_once(&program, &batch, lanes, passes, &mut registers, &mut values);
                if !values.iter().map(|v| v.to_bits()).eq(want.iter().copied()) {
                    return Err(format!(
                        "{}: {lanes} lanes on {threads} threads differ from OpList::run_into",
                        benchmark.name()
                    )
                    .into());
                }
                if repeat > 0 {
                    best[w] = best[w].min(ns);
                }
            }
        }
        ops_per_ns.push(best.iter().map(|ns| (work * passes) as f64 / ns).collect());
    }
    let max_product = MaxProductProgram::from_op_list(&ops);
    let mut engine = Engine::new(CpuModel::new(), &spn, EngineOptions::default())?;
    let want = engine
        .execute_query(&QueryBatch::Map(batch.clone()))?
        .assignments
        .ok_or("a MAP batch answers with assignments")?;
    let mut scratch = TraceScratch::default();
    let mut map_ns = f64::INFINITY;
    for repeat in 0..=sizes.repeats {
        let (ns, assignments) = time_map(&max_product, &batch, passes, &mut scratch)?;
        if assignments != want {
            return Err(format!(
                "{}: MAP assignments differ from Engine::execute_query's",
                benchmark.name()
            )
            .into());
        }
        if repeat > 0 {
            map_ns = map_ns.min(ns);
        }
    }
    let cpu = CpuModel::new();
    Ok(Circuit {
        name: benchmark.name(),
        ops: ops.num_ops(),
        slots: program.slots(),
        model_ops_per_cycle: cpu.compile(&ops)?.perf_per_query().ops_per_cycle(),
        ops_per_ns,
        map_ns_per_row: map_ns / (passes * batch.len()) as f64,
    })
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0), |(sum, n), v| (sum + v.ln(), n + 1));
    (sum / f64::from(n)).exp()
}

fn print_tables(circuits: &[Circuit], clock: Option<(f64, &'static str)>) {
    let widths = widths();
    let head: String = widths.iter().map(|w| format!(" {w} lanes |")).collect();
    let rule = "---|".repeat(widths.len());
    for (t, threads) in THREADS.iter().enumerate() {
        println!("\n## {threads} thread(s): ops per ns\n");
        println!(
            "| circuit | ops | lane groups | register file at {MAX_LANES} lanes (KiB) |{head} {MAX_LANES} / 8 \
             | ops per nominal cycle at {MAX_LANES} | CPU model ops/cycle |"
        );
        println!("|---|---|---|---|{rule}---|---|---|");
        let per_cycle = |ops_per_ns: f64| {
            clock.map_or_else(
                || "-".to_string(),
                |(ghz, _)| format!("{:.2}", ops_per_ns / ghz),
            )
        };
        for c in circuits {
            let row = &c.ops_per_ns[t];
            let cells: String = row.iter().map(|r| format!(" {r:.2} |")).collect();
            let widest = row[row.len() - 1];
            println!(
                "| {} | {} | {} | {:.1} |{cells} {:.2}x | {} | {:.2} |",
                c.name,
                c.ops,
                c.slots,
                (c.slots * MAX_LANES * 8) as f64 / 1024.0,
                widest / row[0],
                per_cycle(widest),
                c.model_ops_per_cycle
            );
        }
        let column = |w: usize| geomean(circuits.iter().map(|c| c.ops_per_ns[t][w]));
        let cells: String = (0..widths.len())
            .map(|w| format!(" {:.2} |", column(w)))
            .collect();
        let widest = column(widths.len() - 1);
        println!(
            "| geomean | | | |{cells} {:.2}x | {} | {:.2} |",
            widest / column(0),
            per_cycle(widest),
            geomean(circuits.iter().map(|c| c.model_ops_per_cycle))
        );
    }
}

fn print_map_table(circuits: &[Circuit]) {
    println!("\n## MAP beside marginal: 1 thread, {MAX_LANES} lanes, ns per row\n");
    println!("| circuit | marginal pass | MAP bit pass + traceback | MAP / marginal |");
    println!("|---|---|---|---|");
    // The marginal pass's ns per row at the widest width on 1 thread.
    let marginal = |c: &Circuit| c.ops as f64 / c.ops_per_ns[0][c.ops_per_ns[0].len() - 1];
    for c in circuits {
        println!(
            "| {} | {:.1} | {:.1} | {:.2}x |",
            c.name,
            marginal(c),
            c.map_ns_per_row,
            c.map_ns_per_row / marginal(c)
        );
    }
    println!(
        "| geomean | {:.1} | {:.1} | {:.2}x |",
        geomean(circuits.iter().map(marginal)),
        geomean(circuits.iter().map(|c| c.map_ns_per_row)),
        geomean(circuits.iter().map(|c| c.map_ns_per_row / marginal(c)))
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sizes = match args.as_slice() {
        [] => &FULL,
        [flag] if flag == "--smoke" => &SMOKE,
        _ => {
            eprintln!("usage: host_kernel [--smoke]");
            std::process::exit(2);
        }
    };
    let (model, clock) = host_cpu();
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("# Host lane kernel: `LaneProgram::run_block`, linear F64\n");
    println!("- host: {model}, {host_cores} logical CPUs");
    match clock {
        Some((ghz, source)) => println!("- nominal clock: {ghz:.2} GHz (`/proc/cpuinfo` {source})"),
        None => println!("- nominal clock: unknown (`/proc/cpuinfo` names none)"),
    }
    println!(
        "- {} marginal rows per circuit, best of {} repetitions of at least {} ops each",
        sizes.rows, sizes.repeats, sizes.ops_per_repeat
    );
    let circuits: Result<Vec<Circuit>, BackendError> = Benchmark::all()
        .into_iter()
        .map(|benchmark| measure(benchmark, sizes))
        .collect();
    match circuits {
        Ok(circuits) => {
            print_tables(&circuits, clock);
            print_map_table(&circuits);
        }
        Err(err) => {
            eprintln!("host_kernel failed: {err}");
            std::process::exit(1);
        }
    }
}
