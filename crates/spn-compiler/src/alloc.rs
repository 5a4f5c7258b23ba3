//! Register-file and data-memory allocation.
//!
//! The register file is addressed as `bank × offset`.  The allocator manages
//! the offsets of the whole file and distinguishes two uses:
//!
//! * **row offsets** hold one data-memory row after a vector load (the same
//!   offset in every bank), used for program inputs and reloaded spills;
//! * **scalar offsets** hold individual PE write-backs, one value per bank
//!   lane, so independent values can share an offset across banks.
//!
//! Because the schedule books reads at future cycles, a freed lane may only
//! be reused by a write that commits strictly after the last scheduled read
//! of the previous occupant (tracked per `(offset, bank)` lane), otherwise
//! the new value would clobber an operand that is still going to be read.
//!
//! A value that several tiles read may hold more than one register *home*
//! (the [`ValueMap`] lists them), each a lane of its own with the value as
//! tenant, so its readers need not queue on one bank's read port.

use spn_core::flatten::OperandRef;

/// What a register offset is used for, across all banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Use {
    /// No lane of the offset has a tenant.
    Free,
    /// The offset holds what is still live of this data-memory row.
    Row(usize),
    /// The offset holds scalar write-backs, one per bank lane.
    Scalar,
}

/// What one `(offset, bank)` lane holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tenant {
    /// Nothing that will be read again.
    Empty,
    /// A forwarding copy, dead after its single read.
    Copy,
    /// A program value with uses left.
    Value(OperandRef),
}

/// The register file as the scheduler sees it: the use of every offset, the
/// tenant of every lane and the cycle after which the lane may be rewritten.
/// The live count of a row, the occupancy of a scalar offset, the offset a
/// row is resident at and the value sitting in a register are all read from
/// this one table.
#[derive(Debug, Clone)]
pub(crate) struct RegAllocator {
    uses: Vec<Use>,
    /// `tenants[bank * offsets + offset]` — bank-major, like `free_after`,
    /// because the scheduler's hot loop (`alloc_scalar` under `make_copy`)
    /// scans the registers of one bank.
    tenants: Vec<Tenant>,
    /// `free_after[bank * offsets + offset]`: the earliest commit cycle at
    /// which a new value may safely occupy this lane.
    free_after: Vec<u64>,
    total_banks: usize,
}

impl RegAllocator {
    /// Creates an allocator for `regs_per_bank` offsets over `total_banks`
    /// banks.
    pub(crate) fn new(regs_per_bank: usize, total_banks: usize) -> Self {
        RegAllocator {
            uses: vec![Use::Free; regs_per_bank],
            tenants: vec![Tenant::Empty; regs_per_bank * total_banks],
            free_after: vec![0; regs_per_bank * total_banks],
            total_banks,
        }
    }

    fn lane(&self, offset: usize, bank: usize) -> usize {
        bank * self.uses.len() + offset
    }

    fn lanes(&self, offset: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.total_banks).map(move |bank| self.lane(offset, bank))
    }

    /// Number of offsets that are not completely free.
    pub(crate) fn offsets_in_use(&self) -> usize {
        self.uses.iter().filter(|&&u| u != Use::Free).count()
    }

    /// What `offset` is currently used for.
    pub(crate) fn kind(&self, offset: usize) -> Use {
        self.uses[offset]
    }

    /// The offset data-memory row `row` is resident at, if any.
    pub(crate) fn offset_of_row(&self, row: usize) -> Option<usize> {
        self.uses.iter().position(|&u| u == Use::Row(row))
    }

    /// Number of lanes of `offset` that hold a tenant.
    fn live(&self, offset: usize) -> usize {
        self.lanes(offset)
            .filter(|&lane| self.tenants[lane] != Tenant::Empty)
            .count()
    }

    /// Records that `(offset, bank)` is read, or written by a write
    /// committing, at `cycle`: the lane may only be re-occupied by values
    /// whose writes are issued after that, so a new tenant can neither
    /// clobber an operand that is still going to be read nor be clobbered by
    /// a booked-but-future write.
    pub(crate) fn touch(&mut self, offset: usize, bank: usize, cycle: u64) {
        let lane = self.lane(offset, bank);
        self.free_after[lane] = self.free_after[lane].max(cycle + 1);
    }

    /// [`RegAllocator::touch`] for every bank: vector loads and stores.
    pub(crate) fn touch_offset(&mut self, offset: usize, cycle: u64) {
        for bank in 0..self.total_banks {
            self.touch(offset, bank, cycle);
        }
    }

    fn offset_free_after(&self, offset: usize) -> u64 {
        self.lanes(offset)
            .map(|lane| self.free_after[lane])
            .max()
            .unwrap_or(0)
    }

    /// Allocates an offset for a load of `row` committing at `cycle`; the
    /// caller [`install`](RegAllocator::install)s the row's live values.
    ///
    /// Returns `None` when no offset can safely be reused at that cycle.
    pub(crate) fn alloc_row(&mut self, row: usize, cycle: u64) -> Option<usize> {
        let idx = (0..self.uses.len())
            .find(|&i| self.uses[i] == Use::Free && self.offset_free_after(i) <= cycle)?;
        self.uses[idx] = Use::Row(row);
        Some(idx)
    }

    /// Earliest cycle at which some completely free offset can be re-occupied
    /// (useful when every free offset still has reads booked in the future).
    pub(crate) fn earliest_row_reuse(&self) -> Option<u64> {
        (0..self.uses.len())
            .filter(|&i| self.uses[i] == Use::Free)
            .map(|i| self.offset_free_after(i))
            .min()
    }

    /// Makes `value` the tenant of lane `bank` of a row offset.
    pub(crate) fn install(&mut self, offset: usize, bank: usize, value: OperandRef) {
        let lane = self.lane(offset, bank);
        self.tenants[lane] = Tenant::Value(value);
    }

    /// Allocates a register of `bank` for a scalar write-back committing at
    /// `cycle` and makes `tenant` its occupant.  Partially used scalar
    /// offsets are preferred over opening fresh ones.
    pub(crate) fn alloc_scalar(
        &mut self,
        bank: usize,
        cycle: u64,
        tenant: Tenant,
    ) -> Option<usize> {
        debug_assert!(bank < self.total_banks);
        // The lane is tested before the offset: in the scheduler's hottest
        // loop (`make_copy`'s probes) nearly every lane is occupied.
        let mut fresh = None;
        let mut shared = None;
        let bank_lanes = self.lane(0, bank)..self.lane(0, bank + 1);
        let lanes = self.tenants[bank_lanes.clone()]
            .iter()
            .zip(&self.free_after[bank_lanes]);
        for (idx, (held, &free_after)) in lanes.enumerate() {
            if *held != Tenant::Empty || free_after > cycle {
                continue;
            }
            match self.uses[idx] {
                Use::Scalar => {
                    shared = Some(idx);
                    break;
                }
                Use::Free if fresh.is_none() => fresh = Some(idx),
                _ => {}
            }
        }
        let idx = shared.or(fresh)?;
        self.uses[idx] = Use::Scalar;
        let lane = self.lane(idx, bank);
        self.tenants[lane] = tenant;
        Some(idx)
    }

    /// Releases the tenant of `(offset, bank)` after its final read at
    /// `cycle`; frees the offset when it was the last one.
    pub(crate) fn value_dead(&mut self, offset: usize, bank: usize, cycle: u64) {
        self.touch(offset, bank, cycle);
        self.release(offset, bank);
    }

    /// Releases the tenant of `(offset, bank)`, whose reads and write are
    /// already booked; frees the offset when it was the last one.
    pub(crate) fn release(&mut self, offset: usize, bank: usize) {
        let lane = self.lane(offset, bank);
        self.tenants[lane] = Tenant::Empty;
        if self.live(offset) == 0 {
            self.uses[offset] = Use::Free;
        }
    }

    /// Picks a spill victim that is not in `protected`: prefers the resident
    /// row with the fewest live values (free to drop because the backing
    /// memory still holds them), otherwise the scalar offset with the most
    /// occupied lanes.
    pub(crate) fn pick_victim(&self, protected: &[usize]) -> Option<usize> {
        let of_kind = |scalar: bool| {
            (0..self.uses.len()).filter(move |i| {
                !protected.contains(i)
                    && match self.uses[*i] {
                        Use::Free => false,
                        Use::Row(_) => !scalar,
                        Use::Scalar => scalar,
                    }
            })
        };
        of_kind(false)
            .min_by_key(|&i| self.live(i))
            .or_else(|| of_kind(true).max_by_key(|&i| self.live(i)))
    }

    /// Empties `offset` and returns the values it held with their banks, in
    /// bank order.  A dropped row may be overwritten as soon as its booked
    /// reads are over; the caller of a spill store
    /// [`touch_offset`](RegAllocator::touch_offset)es the store cycle first.
    pub(crate) fn evict(&mut self, offset: usize) -> Vec<(OperandRef, usize)> {
        self.uses[offset] = Use::Free;
        let mut values = Vec::new();
        for bank in 0..self.total_banks {
            let lane = self.lane(offset, bank);
            if let Tenant::Value(value) = std::mem::replace(&mut self.tenants[lane], Tenant::Empty)
            {
                values.push((value, bank));
            }
        }
        values
    }
}

/// Where a value currently lives, from the scheduler's point of view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Loc {
    /// The value has not been computed yet.
    Unready,
    /// The value sits in data memory.
    Mem {
        /// Data-memory row.
        row: usize,
        /// Lane (bank column) within the row.
        lane: usize,
    },
    /// The value sits in the register file: its first home.
    Reg(Home),
    /// The value is the constant zero (never stored anywhere).
    ConstZero,
    /// The value is the constant one (never stored anywhere).
    ConstOne,
}

impl Loc {
    /// The register home of a register-resident value.
    fn home(self) -> Option<Home> {
        match self {
            Loc::Reg(home) => Some(home),
            _ => None,
        }
    }
}

/// One register home of a value: the register a copy of it sits in and the
/// cycle that copy's write commits (readable afterwards).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Home {
    /// Global bank index.
    pub bank: usize,
    /// Register offset.
    pub reg: usize,
    /// Commit cycle of the write that put the value there.
    pub ready: u64,
}

/// What the scheduler knows of one value.
#[derive(Debug, Clone, Copy)]
struct Slot {
    loc: Loc,
    /// Not-yet-scheduled uses.
    uses: usize,
    /// Distinct tiles that read the value.
    reader_tiles: u32,
    /// One past the index in [`ValueMap::spare_lists`] of the value's homes
    /// beside the [`Loc::Reg`] one; 0 while it never had any.
    spares: u32,
}

/// Tracks the location, the register homes and the remaining uses of every
/// value of the program (inputs and operation results).
///
/// A register-resident value has its first home in [`Loc::Reg`] and any
/// further ones beside it; every home dies with the value's last read, and
/// a value whose homes are all evicted goes back to the data memory.
#[derive(Debug, Clone)]
pub(crate) struct ValueMap {
    /// Inputs first, then op results.
    slots: Vec<Slot>,
    /// The further homes of each value that has had any (only a value that
    /// several tiles read does), kept out of the slots so those stay small.
    spare_lists: Vec<Vec<Home>>,
    num_inputs: usize,
}

impl ValueMap {
    /// Creates a map for `num_inputs` inputs and `num_ops` operation results.
    pub(crate) fn new(num_inputs: usize, num_ops: usize) -> Self {
        let slot = Slot {
            loc: Loc::Unready,
            uses: 0,
            reader_tiles: 0,
            spares: 0,
        };
        ValueMap {
            slots: vec![slot; num_inputs + num_ops],
            spare_lists: Vec::new(),
            num_inputs,
        }
    }

    fn index(&self, value: OperandRef) -> usize {
        match value {
            OperandRef::Input(i) => i as usize,
            OperandRef::Op(i) => self.num_inputs + i as usize,
        }
    }

    fn slot(&mut self, value: OperandRef) -> &mut Slot {
        let index = self.index(value);
        &mut self.slots[index]
    }

    /// Where in `spare_lists` the further homes of `value` are, if it ever
    /// had any.
    fn list(&self, value: OperandRef) -> Option<usize> {
        (self.slots[self.index(value)].spares as usize).checked_sub(1)
    }

    /// Current location of `value` (its first home when register resident).
    pub(crate) fn loc(&self, value: OperandRef) -> Loc {
        self.slots[self.index(value)].loc
    }

    /// Updates the location of `value`.
    pub(crate) fn set_loc(&mut self, value: OperandRef, loc: Loc) {
        self.slot(value).loc = loc;
    }

    /// Every register home of `value`, the [`Loc::Reg`] one first.
    pub(crate) fn homes(&self, value: OperandRef) -> impl Iterator<Item = Home> + '_ {
        let spares = self
            .list(value)
            .map_or(&[][..], |list| &self.spare_lists[list]);
        let first = self.loc(value).home();
        first.into_iter().chain(spares.iter().copied())
    }

    /// Gives the register-resident `value` one more home.
    pub(crate) fn add_home(&mut self, value: OperandRef, home: Home) {
        debug_assert!(
            matches!(self.loc(value), Loc::Reg(_)),
            "a first home comes first"
        );
        let list = self.list(value).unwrap_or_else(|| {
            self.spare_lists.push(Vec::new());
            self.slot(value).spares = self.spare_lists.len() as u32;
            self.spare_lists.len() - 1
        });
        self.spare_lists[list].push(home);
    }

    /// Drops the home of `value` at `(bank, reg)`, promoting a remaining
    /// one when it was the first.  Returns `false` when no home is left;
    /// the caller then records where the value went.
    pub(crate) fn drop_home(&mut self, value: OperandRef, bank: usize, reg: usize) -> bool {
        let first = self.loc(value);
        let spares = match self.list(value) {
            Some(list) => &mut self.spare_lists[list],
            None => &mut Vec::new(),
        };
        if let Some(i) = spares.iter().position(|h| (h.bank, h.reg) == (bank, reg)) {
            spares.remove(i);
            return true;
        }
        debug_assert!(
            matches!(first, Loc::Reg(h) if (h.bank, h.reg) == (bank, reg)),
            "not a home of the value"
        );
        if spares.is_empty() {
            return false;
        }
        let promoted = spares.remove(0);
        self.set_loc(value, Loc::Reg(promoted));
        true
    }

    /// Forgets every home of `value` after its last read and returns them.
    pub(crate) fn take_homes(&mut self, value: OperandRef) -> impl Iterator<Item = Home> + '_ {
        let first = self.loc(value).home();
        let spares = self
            .list(value)
            .map(|list| self.spare_lists[list].drain(..));
        first.into_iter().chain(spares.into_iter().flatten())
    }

    /// Remaining number of not-yet-scheduled uses of `value`.
    pub(crate) fn uses(&self, value: OperandRef) -> usize {
        self.slots[self.index(value)].uses
    }

    /// Adds `n` expected uses of `value`.
    pub(crate) fn add_uses(&mut self, value: OperandRef, n: usize) {
        self.slot(value).uses += n;
    }

    /// Consumes one use of `value`; returns `true` when it was the last one.
    pub(crate) fn consume_use(&mut self, value: OperandRef) -> bool {
        let uses = &mut self.slot(value).uses;
        debug_assert!(*uses > 0, "value consumed more often than counted");
        *uses -= 1;
        *uses == 0
    }

    /// Counts one more tile that reads `value`.
    pub(crate) fn add_reader_tile(&mut self, value: OperandRef) {
        self.slot(value).reader_tiles += 1;
    }

    /// Whether two or more tiles read `value`, so it may hold more than one
    /// register home.
    pub(crate) fn is_shared(&self, value: OperandRef) -> bool {
        self.slots[self.index(value)].reader_tiles >= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_allocation_and_release() {
        let mut a = RegAllocator::new(4, 32);
        let o = a.alloc_row(3, 1).unwrap();
        a.install(o, 0, OperandRef::Input(96));
        a.install(o, 1, OperandRef::Input(97));
        assert_eq!(a.offsets_in_use(), 1);
        assert_eq!(a.offset_of_row(3), Some(o));
        a.value_dead(o, 0, 5);
        assert_eq!(a.offsets_in_use(), 1);
        a.value_dead(o, 1, 9);
        assert_eq!(a.offsets_in_use(), 0);
        assert_eq!(a.offset_of_row(3), None);
        // Reuse of that offset is only allowed after the last read (cycle 9);
        // other offsets remain usable.
        assert_ne!(a.alloc_row(7, 8), Some(o));
        assert!(a.alloc_row(8, 10).is_some());
    }

    #[test]
    fn scalar_slots_share_offsets_across_banks() {
        let mut a = RegAllocator::new(2, 32);
        let s0 = a.alloc_scalar(0, 1, Tenant::Copy).unwrap();
        let s1 = a.alloc_scalar(1, 1, Tenant::Copy).unwrap();
        // Both scalars fit the same offset because they sit in different banks.
        assert_eq!(s0, s1);
        let s2 = a.alloc_scalar(0, 1, Tenant::Copy).unwrap();
        assert_ne!(s2, s0);
        // Bank 0 now has no free offsets left.
        assert!(a.alloc_scalar(0, 1, Tenant::Copy).is_none());
        // Freeing lane 0 of the first offset makes room again, but only for
        // writes that commit after the last read of the old value.
        a.value_dead(s0, 0, 10);
        assert!(a.alloc_scalar(0, 5, Tenant::Copy).is_none());
        let s3 = a.alloc_scalar(0, 11, Tenant::Copy).unwrap();
        assert_eq!(s3, s0);
    }

    #[test]
    fn lane_reuse_respects_pending_reads() {
        let mut a = RegAllocator::new(1, 4);
        let reg = a.alloc_scalar(2, 1, Tenant::Copy).unwrap();
        a.value_dead(reg, 2, 50);
        // The lane is dead but was read at cycle 50: a write committing at 20
        // must not land there.
        assert!(a.alloc_scalar(2, 20, Tenant::Copy).is_none());
        assert!(a.alloc_scalar(2, 51, Tenant::Copy).is_some());
    }

    #[test]
    fn victim_prefers_rows_and_respects_protection() {
        let mut a = RegAllocator::new(3, 32);
        let value = OperandRef::Op(4);
        let reg = a.alloc_scalar(0, 1, Tenant::Value(value)).unwrap();
        let row_offset = a.alloc_row(9, 1).unwrap();
        a.install(row_offset, 5, OperandRef::Input(293));
        assert_eq!(a.pick_victim(&[]), Some(row_offset));
        // Protecting the row forces the scalar to be chosen.
        assert_eq!(a.pick_victim(&[row_offset]), Some(reg));
        assert_eq!(a.kind(row_offset), Use::Row(9));
        assert_eq!(a.evict(row_offset), vec![(OperandRef::Input(293), 5)]);
        assert_eq!(a.kind(reg), Use::Scalar);
        a.touch_offset(reg, 5);
        assert_eq!(a.evict(reg), vec![(value, 0)]);
        assert_eq!(a.offsets_in_use(), 0);
        assert!(a.pick_victim(&[]).is_none());
        // The stored offset is busy until its store has read it.
        assert!(a.alloc_scalar(7, 5, Tenant::Copy).is_some_and(|r| r != reg));
    }

    #[test]
    fn value_map_tracks_uses_and_locations() {
        let mut vm = ValueMap::new(2, 2);
        let input = OperandRef::Input(0);
        let op = OperandRef::Op(1);
        vm.add_uses(input, 2);
        vm.add_uses(op, 1);
        assert_eq!(vm.uses(input), 2);
        assert!(!vm.consume_use(input));
        assert!(vm.consume_use(input));
        assert!(vm.consume_use(op));
        let home = Home {
            bank: 3,
            reg: 7,
            ready: 11,
        };
        vm.set_loc(op, Loc::Reg(home));
        assert_eq!(vm.loc(op), Loc::Reg(home));
        assert_eq!(vm.loc(input), Loc::Unready);
    }

    #[test]
    fn shared_values_keep_their_homes_until_the_last_one_goes() {
        let mut vm = ValueMap::new(1, 1);
        let value = OperandRef::Op(0);
        vm.add_reader_tile(value);
        assert!(!vm.is_shared(value));
        vm.add_reader_tile(value);
        assert!(vm.is_shared(value));
        let first = Home {
            bank: 2,
            reg: 0,
            ready: 4,
        };
        let second = Home {
            bank: 3,
            reg: 5,
            ready: 4,
        };
        let third = Home {
            bank: 9,
            reg: 1,
            ready: 7,
        };
        vm.set_loc(value, Loc::Reg(first));
        vm.add_home(value, second);
        vm.add_home(value, third);
        assert_eq!(vm.homes(value).collect::<Vec<_>>(), [first, second, third]);
        // An evicted spare goes; an evicted first home hands over.
        assert!(vm.drop_home(value, 9, 1));
        assert!(vm.drop_home(value, 2, 0));
        assert_eq!(vm.homes(value).collect::<Vec<_>>(), [second]);
        assert!(!vm.drop_home(value, 3, 5));
        vm.add_home(value, third);
        assert_eq!(vm.take_homes(value).collect::<Vec<_>>(), [second, third]);
    }

    #[test]
    fn is_free_and_num_offsets() {
        let mut a = RegAllocator::new(2, 8);
        assert_eq!(a.offsets_in_use(), 0);
        assert_eq!(a.kind(0), Use::Free);
        let reg = a.alloc_scalar(1, 1, Tenant::Copy).unwrap();
        assert_eq!(a.kind(reg), Use::Scalar);
        assert_eq!(a.offsets_in_use(), 1);
    }
}
