//! Cycle-by-cycle list scheduling of tiles onto the processor datapath.
//!
//! The scheduler walks the tiles in topological order and, for each tile,
//! finds the earliest cycle at which it can issue on one of the PE trees.
//! A placement has to satisfy every structural rule of the architecture:
//!
//! * its leaf-PE footprint must be free on the chosen tree in that cycle,
//! * every register operand must be readable (its producing write committed
//!   in an earlier cycle) and its bank must not be read by anyone else that
//!   cycle (the crossbar serves one read per bank per cycle),
//! * the root's write-back needs a destination bank that the root PE can
//!   reach, whose write port is free in the commit cycle, and that has a
//!   register lane the allocator can hand out safely.
//!
//! Program inputs live in the data memory and are loaded row by row before
//! first use.  Slots of one source may share a word (see `layout`); such a
//! word is one value, read by every tile that reads one of its slots.  When
//! two operands of one tile live in the same bank, the scheduler inserts a
//! forwarding *move* (a pass-through PE writing a copy to a different bank);
//! when the register file runs out, resident rows are dropped or scalar
//! offsets are spilled back to the data memory.
//!
//! A value that two or more tiles read may hold more than one register
//! *home*, so its readers need not queue on one bank's read port: the root
//! PE of such a result writes a second bank of its span in the same cycle,
//! and a reader blocked at its earliest cycle because every home's bank is
//! read by someone else gets a move into a free bank, kept as a further home
//! for later readers.  Each placement gives every operand whichever of its
//! homes is free, and every home dies at the value's last read.  A value
//! with one reader tile has one home.

use spn_core::flatten::{LeafSource, OpList, OperandRef};
use spn_processor::config::{PePosition, ProcessorConfig};
use spn_processor::isa::{
    InputSlot, Instruction, MemOp, PeOp, Program, ReadSel, TreeInstr, ValueLocation, WriteCmd,
};

use crate::alloc::{Home, Loc, RegAllocator, Tenant, Use, ValueMap};
use crate::error::CompileError;
use crate::layout::{lay_out, InputLayout};
use crate::report::CompileReport;
use crate::tile::{LeafRead, Tile};
use crate::Result;

/// Maps a program's `spn_core` precision onto the simulator's mirrored
/// `spn_processor` type (the two crates share no dependency; their
/// quantizers are pinned bit-for-bit by this crate's tests).
pub(crate) fn pe_precision(
    precision: spn_core::precision::Precision,
) -> spn_processor::precision::Precision {
    match precision {
        spn_core::precision::Precision::F64 => spn_processor::precision::Precision::F64,
        spn_core::precision::Precision::F32 => spn_processor::precision::Precision::F32,
        spn_core::precision::Precision::Custom {
            exp_bits,
            mant_bits,
        } => spn_processor::precision::Precision::Custom {
            exp_bits,
            mant_bits,
        },
    }
}

/// How many cycles past the operands' ready time the scheduler searches for
/// a dense placement before simply appending a new cycle to the schedule.
const SEARCH_WINDOW: u64 = 48;

/// Widest machine [`CycleInfo`]'s masks can book: one bit per register bank
/// in `read_banks`/`write_banks`, one per leaf PE in `leaf_used`.
const MAX_BANKS: usize = u64::BITS as usize;
const MAX_LEAF_PES: usize = u16::BITS as usize;

/// Per-cycle resource bookings.
#[derive(Debug, Clone, Default)]
struct CycleInfo {
    /// Bitmask of banks read this cycle (crossbar + store traffic).
    read_banks: u64,
    /// Bitmask of banks with a write committing this cycle.
    write_banks: u64,
    /// Bitmask of occupied leaf PEs, one entry per tree.
    leaf_used: Vec<u16>,
    /// Whether the single data-memory port is taken.
    mem_used: bool,
}

/// How one leaf slot of a tile gets its value.
#[derive(Debug, Clone, Copy)]
enum SlotSource {
    /// Constant zero from the crossbar.
    Zero(OperandRef),
    /// Constant one from the crossbar.
    One(OperandRef),
    /// Read the operand from whichever of its register homes is free.
    Value(OperandRef),
    /// Read a temporary copy created by a forwarding move.
    Copy(Home),
}

/// Most register reads one tile has: two per leaf PE of a tree.
const MAX_READS: usize = 2 * MAX_LEAF_PES;

/// No read, or no home.
const NONE: u16 = u16::MAX;

/// For each register read of a tile, the index in [`ReadOptions::homes`]
/// of the home it reads, or [`NONE`].
type Chosen = [u16; MAX_READS];

/// The register homes each register read of a tile may use: read `k`
/// chooses among `homes[starts[k]..starts[k + 1]]`.
#[derive(Debug, Default)]
struct ReadOptions {
    homes: Vec<Home>,
    starts: Vec<usize>,
}

impl ReadOptions {
    /// Lists every home of every register read of `sources`, reusing the
    /// buffers.
    fn fill(&mut self, values: &ValueMap, sources: &[(usize, SlotSource)]) {
        self.homes.clear();
        self.starts.clear();
        self.starts.push(0);
        for (_, source) in sources {
            match *source {
                SlotSource::Value(operand) => self.homes.extend(values.homes(operand)),
                SlotSource::Copy(home) => self.homes.push(home),
                SlotSource::Zero(_) | SlotSource::One(_) => continue,
            }
            self.starts.push(self.homes.len());
        }
    }

    fn reads(&self) -> usize {
        self.starts.len() - 1
    }

    /// Banks any read could use.
    fn banks(&self) -> u64 {
        self.homes
            .iter()
            .fold(0, |banks, home| banks | 1 << home.bank)
    }

    /// The first cycle every read has a home committed by.
    fn earliest(&self) -> u64 {
        let first_ready = |read: &[usize]| {
            self.homes[read[0]..read[1]]
                .iter()
                .map(|h| h.ready + 1)
                .min()
        };
        self.starts
            .windows(2)
            .filter_map(first_ready)
            .max()
            .unwrap_or(0)
    }

    /// The home each read takes when `usable` tells which homes can be read
    /// in a cycle, or `None` when some read cannot have one in a bank of
    /// its own.
    fn assign(&self, usable: impl Fn(&Home) -> bool) -> Option<Chosen> {
        let chosen = self.match_banks(usable);
        (!chosen[..self.reads()].contains(&NONE)).then_some(chosen)
    }

    /// Whether [`ReadOptions::assign`] finds a home for every read.  With
    /// one home per read (their banks distinct, as a tile's resolution
    /// leaves them) that is every home being usable, which the placement
    /// search tests on every cycle it tries.
    fn assignable(&self, usable: impl Fn(&Home) -> bool) -> bool {
        if self.homes.len() == self.reads() {
            return self.homes.iter().all(usable);
        }
        // A read with no usable home fails the matching, and is far cheaper
        // to find first.
        let some_home = |read: &[usize]| self.homes[read[0]..read[1]].iter().any(&usable);
        self.starts.windows(2).all(some_home) && self.assign(usable).is_some()
    }

    /// Gives every read a home `usable` accepts in a bank of its own, in
    /// read order, by augmenting paths: a read whose every option is taken
    /// tries to move the reads holding them to another of their options.  A
    /// read that still finds none is left [`NONE`].
    fn match_banks(&self, usable: impl Fn(&Home) -> bool) -> Chosen {
        let mut chosen = [NONE; MAX_READS];
        let mut holder = [NONE; MAX_BANKS];
        for read in 0..self.reads() {
            self.augment(read, &usable, &mut 0, &mut holder, &mut chosen);
        }
        chosen
    }

    fn augment(
        &self,
        read: usize,
        usable: &impl Fn(&Home) -> bool,
        seen: &mut u64,
        holder: &mut [u16; MAX_BANKS],
        chosen: &mut Chosen,
    ) -> bool {
        for option in self.starts[read]..self.starts[read + 1] {
            let home = &self.homes[option];
            if *seen & (1 << home.bank) != 0 || !usable(home) {
                continue;
            }
            *seen |= 1 << home.bank;
            let held_by = holder[home.bank];
            if held_by == NONE || self.augment(held_by.into(), usable, seen, holder, chosen) {
                holder[home.bank] = read as u16;
                chosen[read] = option as u16;
                return true;
            }
        }
        false
    }
}

/// A chosen placement for one tile.
#[derive(Debug, Clone, Copy)]
struct Placement {
    cycle: u64,
    tree: usize,
    block: usize,
    /// `(bank, reg)` the root writes back to.
    dest: (usize, usize),
    /// The second `(bank, reg)` a result several tiles read is written to.
    second: Option<(usize, usize)>,
    /// The home each register read of the tile reads.
    reads: Chosen,
}

/// Schedules `tiles` (extracted from `ops`) onto `config`, producing the VLIW
/// program and a compilation report.
///
/// # Errors
///
/// Returns [`CompileError`] when the configuration is invalid or wider than
/// the scheduler's per-cycle masks, when the working set cannot be made to
/// fit the register file and data memory, or when the output cannot be
/// materialised.
pub(crate) fn schedule(
    config: &ProcessorConfig,
    ops: &OpList,
    tiles: &[Tile],
) -> Result<(Program, CompileReport)> {
    config.validate()?;
    if config.total_banks() > MAX_BANKS || config.leaf_pes_per_tree > MAX_LEAF_PES {
        return Err(CompileError::InvalidTarget {
            reason: format!(
                "{} register banks and {} leaf PEs per tree: the scheduler books at most \
                 {MAX_BANKS} banks and {MAX_LEAF_PES} leaf PEs per tree",
                config.total_banks(),
                config.leaf_pes_per_tree
            ),
        });
    }
    let mut scheduler = Scheduler::new(config, ops, tiles);
    for tile in tiles {
        scheduler.schedule_tile(tile)?;
    }
    scheduler.finish()
}

struct Scheduler<'a> {
    config: &'a ProcessorConfig,
    ops: &'a OpList,
    values: ValueMap,
    alloc: RegAllocator,
    cycles: Vec<CycleInfo>,
    instructions: Vec<Instruction>,
    /// For every data-memory row: the values stored there and their lanes.
    mem_rows: Vec<Vec<(OperandRef, usize)>>,
    /// Earliest cycle at which each data-memory row holds valid data
    /// (0 for input rows, the store cycle + 1 for spill rows).
    row_available_from: Vec<u64>,
    /// Latest commit cycle booked so far (pipeline drain horizon).
    last_commit_booked: u64,
    /// How many values have been written to each bank (allocation heuristic).
    bank_pressure: Vec<u64>,
    /// Per op result: the banks its reader tiles' memory inputs load into,
    /// which the destination of a result several tiles read avoids.
    reader_input_banks: Vec<u64>,
    /// Where the program inputs live in the data memory.
    layout: InputLayout,
    /// Scan hint for finding a free data-memory cycle.
    mem_hint: u64,
    /// The homes the reads of the tile being scheduled may use (a buffer
    /// kept across tiles).
    read_options: ReadOptions,
    report: CompileReport,
}

impl<'a> Scheduler<'a> {
    /// Lays the program inputs out in the data memory and counts the uses
    /// of every value.
    fn new(config: &'a ProcessorConfig, ops: &'a OpList, tiles: &[Tile]) -> Self {
        let layout = lay_out(config, ops, tiles);
        let mut this = Scheduler {
            config,
            ops,
            values: ValueMap::new(ops.num_inputs(), ops.num_ops()),
            alloc: RegAllocator::new(config.regs_per_bank, config.total_banks()),
            cycles: Vec::new(),
            instructions: Vec::new(),
            mem_rows: vec![Vec::new(); layout.rows],
            row_available_from: vec![0; layout.rows],
            last_commit_booked: 0,
            bank_pressure: vec![0; config.total_banks()],
            reader_input_banks: vec![0; ops.num_ops()],
            layout,
            mem_hint: 0,
            read_options: ReadOptions::default(),
            report: CompileReport {
                source_ops: ops.num_ops(),
                tiles: tiles.len(),
                ..CompileReport::default()
            },
        };
        // The owner of each input word stands for every slot laid out there.
        for (i, leaf) in ops.inputs().iter().enumerate() {
            let operand = OperandRef::Input(i as u32);
            if this.layout.canonical(operand) != operand {
                continue;
            }
            let InputSlot { row, lane } = this.layout.slots[i];
            let (row, lane) = (row as usize, lane as usize);
            this.mem_rows[row].push((operand, lane));
            let loc = match leaf {
                LeafSource::Param(p) if *p == 0.0 => Loc::ConstZero,
                LeafSource::Param(p) if *p == 1.0 => Loc::ConstOne,
                _ => Loc::Mem { row, lane },
            };
            this.values.set_loc(operand, loc);
        }

        // Every read is a use, and the output gets a phantom use so the
        // scheduler never frees its storage; `finish` resolves where it
        // ended up.  Count which values several tiles read, and where each
        // reader tile's memory inputs load (into the bank of their word's
        // lane).
        this.values.add_uses(this.layout.canonical(ops.output()), 1);
        let mut operands: Vec<OperandRef> = Vec::new();
        for tile in tiles {
            operands.clear();
            let mut input_banks = 0u64;
            for read in &tile.reads {
                let operand = this.operand(read);
                this.values.add_uses(operand, 1);
                if !operands.contains(&operand) {
                    operands.push(operand);
                    this.values.add_reader_tile(operand);
                }
                if let Loc::Mem { lane, .. } = this.values.loc(operand) {
                    input_banks |= 1 << lane;
                }
            }
            for operand in &operands {
                if let OperandRef::Op(j) = *operand {
                    this.reader_input_banks[j as usize] |= input_banks;
                }
            }
        }
        let inputs = (0..ops.num_inputs()).map(|i| OperandRef::Input(i as u32));
        let results = (0..ops.num_ops()).map(|j| OperandRef::Op(j as u32));
        let constant = |v| matches!(this.values.loc(v), Loc::ConstZero | Loc::ConstOne);
        this.report.shared_values = inputs
            .chain(results)
            .filter(|&v| this.values.is_shared(v) && !constant(v))
            .count();
        this
    }

    fn ensure_cycle(&mut self, cycle: u64) {
        while self.cycles.len() <= cycle as usize {
            self.cycles.push(CycleInfo {
                leaf_used: vec![0; self.config.num_trees],
                ..Default::default()
            });
            self.instructions.push(Instruction::nop(self.config));
        }
    }

    /// The value `read` reads: the owner of its word for a program input.
    fn operand(&self, read: &LeafRead) -> OperandRef {
        self.layout.canonical(read.operand)
    }

    fn fresh_cycle(&self) -> u64 {
        self.cycles.len() as u64
    }

    /// Offsets that currently hold operands of `tile` (must not be evicted).
    fn protected_offsets(&self, tile: &Tile) -> Vec<usize> {
        let mut protected = Vec::new();
        for read in &tile.reads {
            protected.extend(self.values.homes(self.operand(read)).map(|home| home.reg));
        }
        protected
    }

    // ------------------------------------------------------------------
    // Memory traffic
    // ------------------------------------------------------------------

    /// Loads data-memory row `row` into the register file, spilling other
    /// offsets when necessary, and returns the offset it is resident at.
    fn ensure_loaded(&mut self, row: usize, protected: &[usize]) -> Result<usize> {
        if let Some(offset) = self.alloc.offset_of_row(row) {
            return Ok(offset);
        }
        let available = self.row_available_from[row];
        loop {
            // Every free offset may still have reads booked in the future;
            // loading later (once such an offset becomes reusable) avoids an
            // unnecessary spill.
            let loaded = self.try_load(row, available).or_else(|| {
                let reuse_at = self.alloc.earliest_row_reuse()?;
                self.try_load(row, reuse_at.max(available))
            });
            if let Some(offset) = loaded {
                return Ok(offset);
            }
            if !self.spill_something(protected) {
                return Err(CompileError::ResourceExhausted {
                    reason: format!(
                        "cannot load input row {row}: register file full and nothing left to spill"
                    ),
                });
            }
        }
    }

    /// Books a vector load of `row` at the first cycle from `not_before` (and
    /// the scan hint) on with a free memory port and no committing writes,
    /// if an offset is reusable then, and moves the row's live values into
    /// the offset's lanes.
    fn try_load(&mut self, row: usize, not_before: u64) -> Option<usize> {
        let mut cycle = self.mem_hint.max(not_before);
        while let Some(info) = self.cycles.get(cycle as usize) {
            if !info.mem_used && info.write_banks == 0 {
                break;
            }
            cycle += 1;
        }
        let offset = self.alloc.alloc_row(row, cycle)?;
        self.ensure_cycle(cycle);
        let info = &mut self.cycles[cycle as usize];
        info.mem_used = true;
        info.write_banks = bank_mask(self.config.total_banks());
        self.instructions[cycle as usize].mem = MemOp::Load {
            row: row as u32,
            reg: offset as u16,
        };
        self.mem_hint = cycle + 1;
        self.last_commit_booked = self.last_commit_booked.max(cycle);
        self.alloc.touch_offset(offset, cycle);
        for &(value, lane) in &self.mem_rows[row] {
            let in_row = matches!(self.values.loc(value), Loc::Mem { row: r, .. } if r == row);
            if in_row && self.values.uses(value) > 0 {
                self.alloc.install(offset, lane, value);
                let home = Home {
                    bank: lane,
                    reg: offset,
                    ready: cycle,
                };
                self.values.set_loc(value, Loc::Reg(home));
            }
        }
        Some(offset)
    }

    /// Frees one register offset, either by dropping a resident row (still
    /// backed by memory) or by storing a scalar offset to a fresh spill row.
    /// Returns `false` when nothing can be evicted.
    fn spill_something(&mut self, protected: &[usize]) -> bool {
        let Some(offset) = self.alloc.pick_victim(protected) else {
            return false;
        };
        let kind = self.alloc.kind(offset);
        let row = match kind {
            Use::Row(row) => row,
            _ => {
                // Store the whole offset past every booking: the memory port
                // is free there, no bank is read (the store occupies every
                // read port) and every write booked so far has committed, so
                // no lane of the offset is in flight.
                let cycle = self.fresh_cycle().max(self.last_commit_booked + 1);
                self.ensure_cycle(cycle);
                let spill_row = self.mem_rows.len();
                let info = &mut self.cycles[cycle as usize];
                info.mem_used = true;
                info.read_banks = bank_mask(self.config.total_banks());
                self.instructions[cycle as usize].mem = MemOp::Store {
                    row: spill_row as u32,
                    reg: offset as u16,
                };
                self.alloc.touch_offset(offset, cycle);
                // The spilled data only exists in memory after the store has
                // executed.
                self.row_available_from.push(cycle + 1);
                spill_row
            }
        };
        let evicted = self.alloc.evict(offset);
        for &(value, lane) in &evicted {
            if !self.values.drop_home(value, lane, offset) {
                self.values.set_loc(value, Loc::Mem { row, lane });
            }
        }
        if kind == Use::Scalar {
            self.mem_rows.push(evicted);
        }
        true
    }

    // ------------------------------------------------------------------
    // Forwarding moves (bank-conflict resolution)
    // ------------------------------------------------------------------

    /// Creates a temporary register copy of `operand`, read once, in a bank
    /// outside `avoid_banks`, using a pass-through PE.  Returns where it sits
    /// and when it commits, and consumes one use of the original.
    fn make_copy(
        &mut self,
        operand: OperandRef,
        avoid_banks: u64,
        protected: &[usize],
    ) -> Result<Home> {
        let Loc::Reg(Home {
            bank: src_bank,
            reg: src_reg,
            ready,
        }) = self.values.loc(operand)
        else {
            return Err(CompileError::ResourceExhausted {
                reason: "copy source is not register resident".to_string(),
            });
        };
        let leaf_count = self.config.leaf_pes_per_tree;
        let mut cycle = ready + 1;
        loop {
            // Beyond every existing booking the only possible blocker is the
            // register allocator; remember this before extending the schedule.
            let beyond_bookings = cycle as usize >= self.cycles.len();
            self.ensure_cycle(cycle);
            let feasible = {
                let info = &self.cycles[cycle as usize];
                info.read_banks & (1 << src_bank) == 0
            };
            if feasible {
                // Try every leaf PE; its two writable banks are candidates.
                for tree in 0..self.config.num_trees {
                    let leaf_used = self.cycles[cycle as usize].leaf_used[tree];
                    for leaf in 0..leaf_count {
                        if leaf_used & (1 << leaf) != 0 {
                            continue;
                        }
                        let position = PePosition {
                            tree,
                            level: 0,
                            index: leaf,
                        };
                        for bank in self.config.writable_banks(position) {
                            if avoid_banks & (1 << bank) != 0 {
                                continue;
                            }
                            if self.cycles[cycle as usize].write_banks & (1 << bank) != 0 {
                                continue;
                            }
                            let Some(reg) = self.alloc.alloc_scalar(bank, cycle, Tenant::Copy)
                            else {
                                continue;
                            };
                            self.book_move(cycle, tree, leaf, (src_bank, src_reg), (bank, reg));
                            self.consume_read(operand, src_bank, src_reg, cycle);
                            return Ok(Home {
                                bank,
                                reg,
                                ready: cycle,
                            });
                        }
                    }
                }
            }
            if beyond_bookings {
                // Only the register allocator can be blocking out here; make
                // room and keep scanning forward (freed lanes become usable
                // once the schedule passes their last booked read).
                let mut protected = protected.to_vec();
                protected.push(src_reg);
                if !self.spill_something(&protected) {
                    return Err(CompileError::ResourceExhausted {
                        reason: "no register lane available for a forwarding copy".to_string(),
                    });
                }
            }
            cycle += 1;
        }
    }

    /// Gives the shared `operand` one more register home in a bank outside
    /// `avoid_banks`, readable from cycle `by` on: a move from a home whose
    /// bank's read port is free, issued at most [`SEARCH_WINDOW`] cycles
    /// before `by`, the latest such cycle first.  Returns `None` when no
    /// cycle of the window has a source port, a leaf PE, a write port and a
    /// register lane free.
    fn forward_home(&mut self, operand: OperandRef, by: u64, avoid_banks: u64) -> Option<Home> {
        // A bank with no lane free at some cycle has none at any earlier
        // one, so the backward scan drops it for good.
        let mut avoid_banks = avoid_banks;
        let all_banks = bank_mask(self.config.total_banks());
        // No cycle up to the first home's commit has a source to read.
        let first_ready = self.values.homes(operand).map(|h| h.ready).min()?;
        let oldest = by.saturating_sub(SEARCH_WINDOW).max(first_ready + 1);
        for cycle in (oldest..by).rev() {
            if avoid_banks & all_banks == all_banks {
                break;
            }
            let info = &self.cycles[cycle as usize];
            let free_source =
                |home: &Home| home.ready < cycle && info.read_banks & (1 << home.bank) == 0;
            let Some(src) = self.values.homes(operand).find(free_source) else {
                continue;
            };
            for tree in 0..self.config.num_trees {
                for leaf in 0..self.config.leaf_pes_per_tree {
                    let info = &self.cycles[cycle as usize];
                    if info.leaf_used[tree] & (1 << leaf) != 0 {
                        continue;
                    }
                    let position = PePosition {
                        tree,
                        level: 0,
                        index: leaf,
                    };
                    for bank in self.config.writable_banks(position) {
                        let busy = avoid_banks | self.cycles[cycle as usize].write_banks;
                        if busy & (1 << bank) != 0 {
                            continue;
                        }
                        let tenant = Tenant::Value(operand);
                        let Some(reg) = self.alloc.alloc_scalar(bank, cycle, tenant) else {
                            avoid_banks |= 1 << bank;
                            continue;
                        };
                        self.book_move(cycle, tree, leaf, (src.bank, src.reg), (bank, reg));
                        self.alloc.touch(src.reg, src.bank, cycle);
                        let home = Home {
                            bank,
                            reg,
                            ready: cycle,
                        };
                        self.values.add_home(operand, home);
                        return Some(home);
                    }
                }
            }
        }
        None
    }

    /// Books a move on leaf PE `leaf` of `tree` in `cycle`: a pass-through
    /// reading `(bank, reg)` `src` and writing `dst`, committing in `cycle`.
    fn book_move(
        &mut self,
        cycle: u64,
        tree: usize,
        leaf: usize,
        src: (usize, usize),
        dst: (usize, usize),
    ) {
        self.last_commit_booked = self.last_commit_booked.max(cycle);
        self.alloc.touch(dst.1, dst.0, cycle);
        let info = &mut self.cycles[cycle as usize];
        info.read_banks |= 1 << src.0;
        info.write_banks |= 1 << dst.0;
        info.leaf_used[tree] |= 1 << leaf;
        let tree_instr = &mut self.instructions[cycle as usize].trees[tree];
        tree_instr.reads[2 * leaf] = ReadSel::Reg {
            bank: src.0 as u16,
            reg: src.1 as u16,
        };
        let flat = TreeInstr::pe_flat_index(self.config, 0, leaf);
        tree_instr.pe_ops[flat] = PeOp::PassA;
        tree_instr.writes.push(WriteCmd {
            level: 0,
            pe: leaf as u8,
            bank: dst.0 as u16,
            reg: dst.1 as u16,
        });
        self.report.copy_moves += 1;
        self.bank_pressure[dst.0] += 1;
    }

    /// Books the read of `operand` from its home `(bank, reg)` at `cycle`
    /// and frees every home of it when that was its last use.
    fn consume_read(&mut self, operand: OperandRef, bank: usize, reg: usize, cycle: u64) {
        self.alloc.touch(reg, bank, cycle);
        if self.values.consume_use(operand) {
            for home in self.values.take_homes(operand) {
                self.alloc.release(home.reg, home.bank);
            }
        }
    }

    // ------------------------------------------------------------------
    // Tile scheduling
    // ------------------------------------------------------------------

    fn schedule_tile(&mut self, tile: &Tile) -> Result<()> {
        // 1. Bring every memory-resident operand into the register file,
        //    protecting rows already brought in for this tile from eviction.
        let mut protected = self.protected_offsets(tile);
        loop {
            let mut needed_rows: Vec<usize> = tile
                .reads
                .iter()
                .filter_map(|r| match self.values.loc(self.operand(r)) {
                    Loc::Mem { row, .. } => Some(row),
                    _ => None,
                })
                .collect();
            needed_rows.sort_unstable();
            needed_rows.dedup();
            if needed_rows.is_empty() {
                break;
            }
            for row in needed_rows {
                let offset = self.ensure_loaded(row, &protected)?;
                protected.push(offset);
            }
        }

        // 2. Give every register read a bank of its own among its operand's
        //    homes; a read left without one reads a temporary copy routed
        //    through a bank none of the other reads was given.
        let mut slot_sources: Vec<(usize, SlotSource)> = Vec::with_capacity(tile.reads.len());
        for read in &tile.reads {
            let operand = self.operand(read);
            let source = match self.values.loc(operand) {
                Loc::ConstZero => SlotSource::Zero(operand),
                Loc::ConstOne => SlotSource::One(operand),
                Loc::Reg(_) => SlotSource::Value(operand),
                Loc::Mem { .. } | Loc::Unready => {
                    return Err(CompileError::Unschedulable {
                        op: tile.root,
                        reason: "operand not resident when scheduling tile".to_string(),
                    })
                }
            };
            slot_sources.push((read.slot, source));
        }
        let mut options = std::mem::take(&mut self.read_options);
        options.fill(&self.values, &slot_sources);
        let mut tile_banks = options.banks();
        let matched = options.match_banks(|_| true);
        let mut matched_banks = matched[..options.reads()]
            .iter()
            .filter(|&&option| option != NONE)
            .fold(0u64, |banks, &option| {
                banks | 1 << options.homes[usize::from(option)].bank
            });
        let mut copied = false;
        let value_reads = slot_sources
            .iter_mut()
            .filter(|(_, source)| matches!(source, SlotSource::Value(_)));
        for ((_, source), chosen) in value_reads.zip(matched) {
            if let (SlotSource::Value(operand), NONE) = (*source, chosen) {
                let copy = self.make_copy(operand, matched_banks, &protected)?;
                matched_banks |= 1 << copy.bank;
                tile_banks |= 1 << copy.bank;
                protected.push(copy.reg);
                *source = SlotSource::Copy(copy);
                copied = true;
            }
        }
        if copied {
            options.fill(&self.values, &slot_sources);
        }

        // 3. Earliest issue cycle: every register read must have a home
        //    committed.
        let earliest = options.earliest();

        // 4. A value several tiles read, blocked at that cycle because every
        //    home's bank is read by someone else, gets one more home in a
        //    bank free then (kept for later readers too).
        let read_then = self
            .cycles
            .get(earliest as usize)
            .map_or(0, |info| info.read_banks);
        for &(_, source) in &slot_sources {
            let SlotSource::Value(operand) = source else {
                continue;
            };
            let blocked = |home: Home| home.ready >= earliest || read_then & (1 << home.bank) != 0;
            if self.values.is_shared(operand) && self.values.homes(operand).all(blocked) {
                if let Some(home) = self.forward_home(operand, earliest, tile_banks | read_then) {
                    tile_banks |= 1 << home.bank;
                    protected.push(home.reg);
                    options.fill(&self.values, &slot_sources);
                }
            }
        }

        // 5. Find and commit a placement.
        let placement = self.find_placement(tile, &options, earliest, &protected)?;
        self.commit_placement(tile, &slot_sources, &options, placement);
        self.read_options = options;
        Ok(())
    }

    fn find_placement(
        &mut self,
        tile: &Tile,
        options: &ReadOptions,
        earliest: u64,
        protected: &[usize],
    ) -> Result<Placement> {
        let window_end = earliest + SEARCH_WINDOW;
        let mut cycle = earliest;
        while cycle <= window_end {
            if let Some(p) = self.try_place_at(cycle, tile, options) {
                return Ok(p);
            }
            cycle += 1;
        }
        // Dense placement failed: append at the end of the schedule, spilling
        // if the register file is the limiting factor.
        loop {
            let cycle = self.fresh_cycle().max(earliest);
            if let Some(p) = self.try_place_at(cycle, tile, options) {
                return Ok(p);
            }
            if !self.spill_something(protected) {
                return Err(CompileError::Unschedulable {
                    op: tile.root,
                    reason: "no destination register available even after spilling".to_string(),
                });
            }
        }
    }

    fn try_place_at(
        &mut self,
        cycle: u64,
        tile: &Tile,
        options: &ReadOptions,
    ) -> Option<Placement> {
        self.ensure_cycle(cycle);
        let root_level = tile.depth - 1;
        let commit = cycle + self.config.commit_latency(root_level);
        self.ensure_cycle(commit);
        let footprint = tile.leaf_footprint();
        let blocks = self.config.leaf_pes_per_tree / footprint;
        let footprint_mask: u16 = (((1u32 << footprint) - 1) & 0xffff) as u16;

        // Every register read needs a committed home in a bank nobody else
        // reads this cycle, and no two reads may share a bank.
        let info_reads = self.cycles[cycle as usize].read_banks;
        let usable = |home: &Home| home.ready < cycle && info_reads & (1 << home.bank) == 0;
        if !options.assignable(usable) {
            return None;
        }

        // Prefer the tree with more free leaf PEs this cycle.
        let mut tree_order: Vec<usize> = (0..self.config.num_trees).collect();
        tree_order.sort_by_key(|&t| self.cycles[cycle as usize].leaf_used[t].count_ones());

        // A result several tiles read goes to two banks, both away from the
        // banks its reader tiles' memory inputs load into where it can.
        let result = OperandRef::Op(tile.root as u32);
        let shared = self.values.is_shared(result);
        let avoid = self.reader_input_banks[tile.root];
        for tree in tree_order {
            let leaf_used = self.cycles[cycle as usize].leaf_used[tree];
            for block in 0..blocks {
                let mask = footprint_mask << (block * footprint);
                if leaf_used & mask != 0 {
                    continue;
                }
                // Destination bank for the root's write-back.
                let position = PePosition {
                    tree,
                    level: root_level,
                    index: block,
                };
                let mut candidates: Vec<usize> = self.config.writable_banks(position).collect();
                if shared {
                    candidates.sort_by_key(|&b| (avoid >> b & 1, self.bank_pressure[b]));
                } else {
                    candidates.sort_by_key(|&b| self.bank_pressure[b]);
                }
                let write_banks = self.cycles[commit as usize].write_banks;
                candidates.retain(|&bank| write_banks & (1 << bank) == 0);
                // Allocation is keyed on the issue cycle so the lane's
                // previous value is not even in flight while it is still
                // being read (keeps the processor's hazard oracle happy).
                let mut homes = candidates.iter().filter_map(|&bank| {
                    let reg = self
                        .alloc
                        .alloc_scalar(bank, cycle, Tenant::Value(result))?;
                    Some((bank, reg))
                });
                if let Some(dest) = homes.next() {
                    let second = if shared { homes.next() } else { None };
                    let reads = options.assign(usable).expect("assignable this cycle");
                    return Some(Placement {
                        cycle,
                        tree,
                        block,
                        dest,
                        second,
                        reads,
                    });
                }
            }
        }
        None
    }

    fn commit_placement(
        &mut self,
        tile: &Tile,
        slot_sources: &[(usize, SlotSource)],
        options: &ReadOptions,
        placement: Placement,
    ) {
        let Placement {
            cycle,
            tree,
            block,
            dest,
            second,
            reads,
        } = placement;
        let root_level = tile.depth - 1;
        let commit = cycle + self.config.commit_latency(root_level);
        let footprint = tile.leaf_footprint();
        let leaf_base = block * footprint;

        self.ensure_cycle(commit);
        // Book leaf occupancy and the destination writes.
        {
            let footprint_mask: u16 = (((1u32 << footprint) - 1) & 0xffff) as u16;
            let info = &mut self.cycles[cycle as usize];
            info.leaf_used[tree] |= footprint_mask << leaf_base;
        }
        self.last_commit_booked = self.last_commit_booked.max(commit);
        for (bank, reg) in std::iter::once(dest).chain(second) {
            self.cycles[commit as usize].write_banks |= 1 << bank;
            self.bank_pressure[bank] += 1;
            self.alloc.touch(reg, bank, commit);
        }

        // Emit reads.
        let mut homes = reads
            .iter()
            .map(|&option| options.homes[usize::from(option)]);
        for (slot, source) in slot_sources {
            let global_slot = leaf_base * 2 + slot;
            let sel = match source {
                SlotSource::Zero(_) => ReadSel::Zero,
                SlotSource::One(_) => ReadSel::One,
                SlotSource::Value(_) | SlotSource::Copy(_) => {
                    let home = homes.next().expect("one home per register read");
                    self.cycles[cycle as usize].read_banks |= 1 << home.bank;
                    ReadSel::Reg {
                        bank: home.bank as u16,
                        reg: home.reg as u16,
                    }
                }
            };
            self.instructions[cycle as usize].trees[tree].reads[global_slot] = sel;
        }

        // Emit PE opcodes for the tile's operations and pass-throughs.
        for placed in &tile.ops {
            let global_index = (leaf_base >> placed.level) + placed.pos;
            let flat = TreeInstr::pe_flat_index(self.config, placed.level, global_index);
            self.instructions[cycle as usize].trees[tree].pe_ops[flat] = match placed.kind {
                spn_core::flatten::OpKind::Add => PeOp::Add,
                spn_core::flatten::OpKind::Mul => PeOp::Mul,
                spn_core::flatten::OpKind::Max => PeOp::Max,
                spn_core::flatten::OpKind::LogAdd => PeOp::Lse,
                spn_core::flatten::OpKind::Sam => PeOp::Sam,
            };
        }
        for pass in &tile.passes {
            let global_index = (leaf_base >> pass.level) + pass.pos;
            let flat = TreeInstr::pe_flat_index(self.config, pass.level, global_index);
            self.instructions[cycle as usize].trees[tree].pe_ops[flat] = PeOp::PassA;
        }

        // Emit the root's write-backs and record its homes (`try_place_at`
        // made it their tenant).
        let result = OperandRef::Op(tile.root as u32);
        for (bank, reg) in std::iter::once(dest).chain(second) {
            self.instructions[cycle as usize].trees[tree]
                .writes
                .push(WriteCmd {
                    level: root_level as u8,
                    pe: block as u8,
                    bank: bank as u16,
                    reg: reg as u16,
                });
        }
        let home = |(bank, reg)| Home {
            bank,
            reg,
            ready: commit,
        };
        self.values.set_loc(result, Loc::Reg(home(dest)));
        if let Some(second) = second {
            self.values.add_home(result, home(second));
        }

        // Consume operand uses and free dead storage.
        let mut homes = reads
            .iter()
            .map(|&option| options.homes[usize::from(option)]);
        for (_, source) in slot_sources {
            match *source {
                SlotSource::Zero(operand) | SlotSource::One(operand) => {
                    self.values.consume_use(operand);
                }
                SlotSource::Value(operand) => {
                    let home = homes.next().expect("one home per register read");
                    self.consume_read(operand, home.bank, home.reg, cycle);
                }
                SlotSource::Copy(copy) => {
                    // Temporary copies die immediately after their single read.
                    homes.next();
                    self.alloc.value_dead(copy.reg, copy.bank, cycle);
                }
            }
        }

        let live = self.alloc.offsets_in_use();
        self.report.peak_live_offsets = self.report.peak_live_offsets.max(live);
    }

    /// Where `operand` lives after the program has run (for the output
    /// peek).
    fn final_location(&self, operand: OperandRef) -> Result<ValueLocation> {
        match operand {
            // Inputs always keep their copy in the data memory image.
            OperandRef::Input(i) => {
                let slot = self.layout.slots[i as usize];
                Ok(ValueLocation::Memory {
                    row: slot.row,
                    lane: slot.lane,
                })
            }
            OperandRef::Op(i) => match self.values.loc(operand) {
                Loc::Reg(home) => Ok(ValueLocation::Register {
                    bank: home.bank as u16,
                    reg: home.reg as u16,
                }),
                Loc::Mem { row, lane } => Ok(ValueLocation::Memory {
                    row: row as u32,
                    lane: lane as u16,
                }),
                Loc::Unready | Loc::ConstZero | Loc::ConstOne => Err(CompileError::Unschedulable {
                    op: i as usize,
                    reason: "program output was never materialised".to_string(),
                }),
            },
        }
    }

    fn finish(self) -> Result<(Program, CompileReport)> {
        let output = self.final_location(self.ops.output())?;

        let program = Program {
            config: self.config.clone(),
            instructions: self.instructions,
            input_layout: self.layout.slots,
            memory_rows_used: self.mem_rows.len(),
            output,
            num_source_ops: self.ops.num_ops(),
            pe_precision: pe_precision(self.ops.precision()),
        };
        let perf = program.perf();
        let report = CompileReport {
            instructions: perf.instructions as usize,
            nop_instructions: perf.stall_cycles as usize,
            memory_loads: perf.memory_loads as usize,
            memory_stores: perf.memory_stores as usize,
            estimated_cycles: perf.cycles,
            ..self.report
        };
        Ok((program, report))
    }
}

fn bank_mask(banks: usize) -> u64 {
    if banks >= 64 {
        u64::MAX
    } else {
        (1u64 << banks) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::extract_tiles;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spn_core::random::{random_spn, RandomSpnConfig};
    use spn_core::{Evidence, SpnBuilder, VarId};
    use spn_processor::Processor;

    fn compile_and_run(
        config: &ProcessorConfig,
        spn: &spn_core::Spn,
        evidence: &Evidence,
    ) -> (f64, f64, CompileReport) {
        let ops = OpList::from_spn(spn);
        let tiles = extract_tiles(&ops, config.tree_levels);
        let (program, report) = schedule(config, &ops, &tiles).expect("schedule");
        let inputs = ops.input_values(evidence).expect("inputs");
        let processor = Processor::new(config.clone()).expect("processor");
        let run = processor.run(&program, &inputs).expect("run");
        let reference = spn.evaluate(evidence).expect("reference");
        (run.output, reference, report)
    }

    fn small_mixture() -> spn_core::Spn {
        let mut b = SpnBuilder::new(2);
        let x0 = b.indicator(VarId(0), true);
        let nx0 = b.indicator(VarId(0), false);
        let x1 = b.indicator(VarId(1), true);
        let nx1 = b.indicator(VarId(1), false);
        let p0 = b.product(vec![x0, x1]).unwrap();
        let p1 = b.product(vec![nx0, nx1]).unwrap();
        let root = b.sum(vec![(p0, 0.3), (p1, 0.7)]).unwrap();
        b.finish(root).unwrap()
    }

    #[test]
    fn small_mixture_runs_correctly_on_ptree() {
        let spn = small_mixture();
        for assignment in [[true, true], [true, false], [false, false]] {
            let (got, expected, _) = compile_and_run(
                &ProcessorConfig::ptree(),
                &spn,
                &Evidence::from_assignment(&assignment),
            );
            assert!((got - expected).abs() < 1e-12, "{assignment:?}");
        }
    }

    #[test]
    fn small_mixture_runs_correctly_on_pvect() {
        let spn = small_mixture();
        let (got, expected, _) =
            compile_and_run(&ProcessorConfig::pvect(), &spn, &Evidence::marginal(2));
        assert!((got - expected).abs() < 1e-12);
    }

    #[test]
    fn random_spns_run_correctly_on_both_configs() {
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..4u64 {
            let spn = random_spn(&RandomSpnConfig::with_vars(10), &mut rng);
            let evidence = Evidence::marginal(10);
            for config in [ProcessorConfig::ptree(), ProcessorConfig::pvect()] {
                let (got, expected, report) = compile_and_run(&config, &spn, &evidence);
                assert!(
                    (got - expected).abs() < 1e-9 * expected.abs().max(1.0),
                    "trial {trial} on {}",
                    config.name
                );
                assert_eq!(report.source_ops, OpList::from_spn(&spn).num_ops());
            }
        }
    }

    #[test]
    fn ptree_packs_more_ops_per_instruction_than_pvect() {
        let mut rng = StdRng::seed_from_u64(29);
        let spn = random_spn(&RandomSpnConfig::with_vars(24), &mut rng);
        let evidence = Evidence::marginal(24);
        let (_, _, tree_report) = compile_and_run(&ProcessorConfig::ptree(), &spn, &evidence);
        let (_, _, vect_report) = compile_and_run(&ProcessorConfig::pvect(), &spn, &evidence);
        assert!(
            tree_report.ops_per_instruction() > vect_report.ops_per_instruction(),
            "tree: {:.2}, vect: {:.2}",
            tree_report.ops_per_instruction(),
            vect_report.ops_per_instruction()
        );
    }

    #[test]
    fn tiny_register_file_forces_extra_memory_traffic_but_stays_correct() {
        let mut config = ProcessorConfig::ptree();
        config.regs_per_bank = 6;
        config.name = "tiny".to_string();
        let mut rng = StdRng::seed_from_u64(31);
        let spn = random_spn(&RandomSpnConfig::with_vars(48), &mut rng);
        let evidence = Evidence::marginal(48);

        // Shallow tiles keep the per-tile operand footprint within the tiny
        // register file; the working set still does not fit as a whole.
        let ops = OpList::from_spn(&spn);
        let tiles = extract_tiles(&ops, 2);
        let (program, report) = schedule(&config, &ops, &tiles).expect("schedule");
        let inputs = ops.input_values(&evidence).expect("inputs");
        let processor = Processor::new(config).expect("processor");
        let run = processor.run(&program, &inputs).expect("run");
        let expected = spn.evaluate(&evidence).expect("reference");

        assert!((run.output - expected).abs() < 1e-9 * expected.abs().max(1.0));
        let minimum_rows = ops.num_inputs().div_ceil(32);
        assert!(
            report.memory_loads >= minimum_rows,
            "input rows must still be loaded: {report}"
        );
        // With six registers per bank the working set does not fit: rows must
        // be re-loaded or intermediates spilled.
        assert!(
            report.memory_loads > minimum_rows || report.memory_stores > 0,
            "expected eviction traffic: {report}"
        );
    }

    #[test]
    fn report_is_the_programs_perf_drain_and_spill_traffic_included() {
        // A shallow-tiled circuit on a tiny register file spills; a mixture
        // whose root tile is three levels deep ends in its pipeline drain.
        let mut tiny = ProcessorConfig::ptree();
        tiny.regs_per_bank = 6;
        let mut rng = StdRng::seed_from_u64(31);
        let spilling = random_spn(&RandomSpnConfig::with_vars(48), &mut rng);
        for (config, spn, tile_depth) in [
            (ProcessorConfig::ptree(), small_mixture(), 4),
            (tiny, spilling, 2),
        ] {
            let ops = OpList::from_spn(&spn);
            let tiles = extract_tiles(&ops, tile_depth);
            let (program, report) = schedule(&config, &ops, &tiles).expect("schedule");
            let inputs = ops
                .input_values(&Evidence::marginal(spn.num_vars()))
                .expect("inputs");
            let run = Processor::new(config.clone())
                .expect("processor")
                .run(&program, &inputs)
                .expect("run");

            // Counted here from the instruction stream, not through perf().
            let last_issue = program.instructions.iter().rposition(|i| !i.is_nop());
            let mut last_commit = 0;
            for (cycle, instr) in program.instructions.iter().enumerate() {
                for w in instr.trees.iter().flat_map(|t| &t.writes) {
                    let commit = cycle as u64 + config.commit_latency(w.level as usize);
                    last_commit = last_commit.max(commit);
                }
            }
            let mem_ops = |want: fn(&MemOp) -> bool| {
                program.instructions.iter().filter(|i| want(&i.mem)).count()
            };
            if tile_depth == 4 {
                assert!(last_commit > last_issue.expect("an issue slot") as u64);
            } else {
                assert!(report.memory_stores > 0, "expected spills: {report}");
            }
            assert!(report.estimated_cycles > last_commit);
            assert_eq!(report.estimated_cycles, run.perf.cycles);
            assert_eq!(report.instructions, program.len());
            assert_eq!(
                report.memory_loads,
                mem_ops(|m| matches!(m, MemOp::Load { .. }))
            );
            assert_eq!(
                report.memory_stores,
                mem_ops(|m| matches!(m, MemOp::Store { .. }))
            );
            assert_eq!(report.memory_loads as u64, run.perf.memory_loads);
            assert_eq!(report.memory_stores as u64, run.perf.memory_stores);
        }
    }

    #[test]
    fn a_read_holding_a_bank_moves_to_its_other_home() {
        let home = |bank, reg| Home {
            bank,
            reg,
            ready: 0,
        };
        // Read 0 may use bank 3 or 5, read 1 only bank 3: first come first
        // served would leave read 1 without a bank.
        let options = ReadOptions {
            homes: vec![home(3, 0), home(5, 1), home(3, 2)],
            starts: vec![0, 2, 3],
        };
        let chosen = options.assign(|_| true).expect("both reads fit");
        assert_eq!(chosen[..2], [1, 2]);
        // With bank 5 busy, read 0 cannot move and read 1 goes without.
        assert_eq!(options.match_banks(|h| h.bank != 5)[..2], [0, NONE]);
        assert!(options.assign(|h| h.bank != 5).is_none());
    }

    #[test]
    fn a_forwarding_copy_avoids_only_the_banks_the_other_reads_were_given() {
        // On eight banks per tree the homes of this circuit's shared input
        // words cover every bank of some tile's reads: a copy that avoided
        // them all found no bank and the compile failed.
        let spn = crate::layout::tests::learnspn_style(16, 26);
        let ops = OpList::from_spn(&spn);
        let mut config = ProcessorConfig::ptree();
        config.banks_per_tree = 8;
        let tiles = extract_tiles(&ops, config.tree_levels);
        let (program, report) = schedule(&config, &ops, &tiles).expect("schedule");
        assert!(report.copy_moves > 0, "{report}");
        let processor = Processor::new(config).unwrap();
        for assignment in [[true; 16], [false; 16]] {
            let evidence = Evidence::from_assignment(&assignment);
            let run = processor.run(&program, &ops.input_values(&evidence).unwrap());
            assert_eq!(run.unwrap().output, ops.evaluate(&evidence).unwrap());
        }
    }

    /// `x*y` feeds two sums, so the product's result has two reader tiles.
    fn shared_product() -> spn_core::Spn {
        let mut b = SpnBuilder::new(2);
        let x = b.indicator(VarId(0), true);
        let y = b.indicator(VarId(1), true);
        let nx = b.indicator(VarId(0), false);
        let ny = b.indicator(VarId(1), false);
        let shared = b.product(vec![x, y]).unwrap();
        let other = b.product(vec![nx, ny]).unwrap();
        let s1 = b.sum(vec![(shared, 0.5), (other, 0.5)]).unwrap();
        let s2 = b.sum(vec![(shared, 0.2), (other, 0.8)]).unwrap();
        let root = b.product(vec![s1, s2]).unwrap();
        b.finish(root).unwrap()
    }

    #[test]
    fn a_result_several_tiles_read_is_written_to_two_banks() {
        // Full-depth Ptree tiles would fold both sums into the root's tile.
        let spn = shared_product();
        for (config, depth) in [(ProcessorConfig::ptree(), 2), (ProcessorConfig::pvect(), 1)] {
            let ops = OpList::from_spn(&spn);
            let tiles = extract_tiles(&ops, depth);
            let (program, report) = schedule(&config, &ops, &tiles).unwrap();
            assert!(report.shared_values >= 2, "{}: {report:?}", config.name);
            let doubled = program
                .instructions
                .iter()
                .flat_map(|i| &i.trees)
                .any(|t| t.writes.len() == 2 && t.writes[0].pe == t.writes[1].pe);
            assert!(doubled, "{}: no PE wrote two banks", config.name);
            for assignment in [[true, true], [true, false], [false, false]] {
                let evidence = Evidence::from_assignment(&assignment);
                let inputs = ops.input_values(&evidence).unwrap();
                let run = Processor::new(config.clone())
                    .unwrap()
                    .run(&program, &inputs)
                    .unwrap();
                assert_eq!(run.output, ops.evaluate(&evidence).unwrap());
            }
        }
    }

    #[test]
    fn single_leaf_program_needs_no_instructions() {
        let mut b = SpnBuilder::new(1);
        let x = b.indicator(VarId(0), true);
        let spn = b.finish(x).unwrap();
        let ops = OpList::from_spn(&spn);
        let tiles = extract_tiles(&ops, 4);
        assert!(tiles.is_empty());
        let config = ProcessorConfig::ptree();
        let (program, report) = schedule(&config, &ops, &tiles).unwrap();
        assert!(program.is_empty());
        assert_eq!(report.source_ops, 0);
        let processor = Processor::new(config).unwrap();
        let run = processor
            .run(
                &program,
                &ops.input_values(&Evidence::from_assignment(&[true]))
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(run.output, 1.0);
    }

    fn invalid_target_reason(config: &ProcessorConfig) -> String {
        config.validate().expect("the processor model accepts it");
        let ops = OpList::from_spn(&small_mixture());
        let tiles = extract_tiles(&ops, config.tree_levels);
        match schedule(config, &ops, &tiles) {
            Err(CompileError::InvalidTarget { reason }) => reason,
            other => panic!("expected InvalidTarget, got {other:?}"),
        }
    }

    #[test]
    fn more_than_64_banks_is_an_invalid_target() {
        let mut config = ProcessorConfig::ptree();
        config.banks_per_tree = 64;
        assert!(invalid_target_reason(&config).starts_with("128 register banks"));
        // 64 banks in total is the widest machine the masks book.
        config.banks_per_tree = 32;
        let ops = OpList::from_spn(&small_mixture());
        let tiles = extract_tiles(&ops, config.tree_levels);
        assert!(schedule(&config, &ops, &tiles).is_ok());
    }

    #[test]
    fn more_than_16_leaf_pes_per_tree_is_an_invalid_target() {
        let mut config = ProcessorConfig::ptree();
        config.banks_per_tree = 32;
        config.leaf_pes_per_tree = 32;
        assert!(invalid_target_reason(&config).contains("32 leaf PEs per tree"));
        // Sixteen leaf PEs fill the leaf mask exactly.
        config.leaf_pes_per_tree = 16;
        config.tree_levels = 5;
        let (got, expected, _) = compile_and_run(&config, &small_mixture(), &Evidence::marginal(2));
        assert!((got - expected).abs() < 1e-12);
    }

    #[test]
    fn schedule_report_counts_are_consistent() {
        let mut rng = StdRng::seed_from_u64(37);
        let spn = random_spn(&RandomSpnConfig::with_vars(16), &mut rng);
        let ops = OpList::from_spn(&spn);
        let config = ProcessorConfig::ptree();
        let tiles = extract_tiles(&ops, config.tree_levels);
        let (program, report) = schedule(&config, &ops, &tiles).unwrap();
        assert_eq!(report.tiles, tiles.len());
        assert_eq!(report.instructions, program.instructions.len());
        assert!(report.memory_loads >= ops.num_inputs().div_ceil(config.total_banks()) / 2);
        assert!(report.peak_live_offsets <= config.regs_per_bank);
        let issued: usize = program
            .instructions
            .iter()
            .map(Instruction::arithmetic_ops)
            .sum();
        assert_eq!(issued, ops.num_ops());
    }
}
