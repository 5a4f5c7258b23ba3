//! Where the program inputs live in the data memory.
//!
//! The flattener gives every leaf of the SPN its own input slot, so a
//! circuit learned by LearnSPN holds the same indicator or the same
//! parameter in many slots.  A slot whose source equals an earlier slot's —
//! the same indicator `(var, value)`, or a parameter with the same bits —
//! may share that slot's data-memory word instead of getting a word of its
//! own.  A shared word holds the bits every slot laid out there would hold,
//! so the values computed are those of one word per slot; what changes is
//! the number of rows a pass loads.  `External` slots, filled from another
//! core at run time, never share.
//!
//! Sharing has a price in the register file and at the read ports: a row
//! stays resident until the last reader of each of its words has run, and
//! the readers of one word queue on one bank.  So the layout walks the
//! slots in order and lets a slot the tiles read from memory share a word
//! only if the word
//!
//! * lies in an earlier row than the next fresh word, and at most
//!   [`Limits::window_rows`] rows before it, so the rows kept resident for
//!   later readers stay few and no load is shared that saves none;
//! * holds fewer than [`Limits::word_slots`] slots, so no word feeds more
//!   reads than one tree has inputs;
//! * sits in a bank no other read of the slot's tiles uses, so no tile needs
//!   a forwarding copy for it;
//! * leaves the shared words one tile reads within [`Limits::tile_rows`]
//!   rows, so the loads one tile waits for stay few.
//!
//! A slot the tiles never read from memory (a crossbar constant) shares any
//! word of its source.  Every other slot takes the next word, row-major,
//! skipping a bank a shared word of its tiles sits in; a skipped word goes
//! to the next slot that fits it.  So with nothing to share every slot `i`
//! gets row `i / banks`, lane `i % banks`, and sharing never takes more rows
//! than one word per slot would.

use std::collections::{BTreeSet, HashMap};

use spn_core::flatten::{LeafSource, OpList, OperandRef};
use spn_processor::config::ProcessorConfig;
use spn_processor::isa::InputSlot;

use crate::tile::Tile;

/// What an input slot holds, as far as sharing a word goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Source {
    Indicator { var: u32, value: bool },
    Param(u64),
}

impl Source {
    /// The source of `leaf`; `None` for a slot that never shares.
    fn of(leaf: &LeafSource) -> Option<Source> {
        match *leaf {
            LeafSource::Indicator { var, value } => Some(Source::Indicator { var: var.0, value }),
            LeafSource::Param(p) => Some(Source::Param(p.to_bits())),
            LeafSource::External => None,
        }
    }
}

/// Whether the scheduler reads `leaf` as a crossbar constant instead of
/// from the data memory.
fn is_constant(leaf: &LeafSource) -> bool {
    matches!(*leaf, LeafSource::Param(p) if p == 0.0 || p == 1.0)
}

/// The bounds on sharing, derived from the target machine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Limits {
    /// Most slots one word holds: the inputs of one tree.
    pub word_slots: usize,
    /// How many rows back a read may share a word.  The window holds the
    /// words all trees take in over `regs_per_bank / 2` cycles, and at most
    /// half the register offsets in rows, so the rows held for later
    /// readers leave the other half to results.  It is zero — no sharing —
    /// when that is fewer rows than a word holds slots: too short for a
    /// word's readers to spread over.
    pub window_rows: usize,
    /// Most rows the shared words one tile reads may lie in: an eighth of
    /// the window, at least one.
    pub tile_rows: usize,
}

impl Limits {
    /// The limits for `config`.
    pub(crate) fn of(config: &ProcessorConfig) -> Limits {
        let word_slots = config.tree_inputs_per_tree();
        let half = config.regs_per_bank / 2;
        let words = half * config.num_trees * word_slots;
        let window = (words / config.total_banks()).min(half);
        let window_rows = if window >= word_slots { window } else { 0 };
        Limits {
            word_slots,
            window_rows,
            tile_rows: (window_rows / 8).max(1),
        }
    }
}

/// The data-memory layout of a program's inputs.
#[derive(Debug)]
pub(crate) struct InputLayout {
    /// The word of every input slot ([`spn_processor::Program::input_layout`]).
    pub slots: Vec<InputSlot>,
    /// For every input slot, the slot that owns its word: the first slot
    /// laid out there, which stands for every slot of the word.
    pub owner: Vec<u32>,
    /// Data-memory rows the inputs take.
    pub rows: usize,
}

impl InputLayout {
    /// The operand that stands for `operand`: the owner of its word for an
    /// input, `operand` itself for an op result.
    pub(crate) fn canonical(&self, operand: OperandRef) -> OperandRef {
        match operand {
            OperandRef::Input(i) => OperandRef::Input(self.owner[i as usize]),
            OperandRef::Op(_) => operand,
        }
    }
}

/// The banks and rows of one tile's reads laid out so far.
#[derive(Debug, Clone, Default)]
struct Footprint {
    /// Banks of every read.
    lanes: u64,
    /// Banks of the reads that share a word another slot owns.
    shared_lanes: u64,
    /// Rows of those shared words.
    shared_rows: Vec<usize>,
}

impl Footprint {
    /// Adds a read of a word in `row` and `lane`, one another slot owns
    /// when `shared`.
    fn add_read(&mut self, row: usize, lane: usize, shared: bool) {
        self.lanes |= 1 << lane;
        if shared {
            self.shared_lanes |= 1 << lane;
            self.add_shared_row(row);
        }
    }

    fn add_shared_row(&mut self, row: usize) {
        if !self.shared_rows.contains(&row) {
            self.shared_rows.push(row);
        }
    }

    fn add(&mut self, other: &Footprint) {
        self.lanes |= other.lanes;
        self.shared_lanes |= other.shared_lanes;
        for &row in &other.shared_rows {
            self.add_shared_row(row);
        }
    }
}

/// One data-memory word holding program inputs.
#[derive(Debug, Clone, Copy)]
struct Word {
    row: usize,
    lane: usize,
    /// Slots laid out in the word.
    slots: usize,
    /// The first of them.
    owner: u32,
}

/// The tiles that read each input slot from the data memory: those of slot
/// `i` are `tiles[starts[i]..starts[i + 1]]`.
struct Readers {
    starts: Vec<usize>,
    tiles: Vec<usize>,
}

impl Readers {
    fn of(ops: &OpList, tiles: &[Tile]) -> Readers {
        let n = ops.num_inputs();
        // Each (slot, tile) pair once, in tile order.
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut last = vec![usize::MAX; n];
        for (t, tile) in tiles.iter().enumerate() {
            for read in &tile.reads {
                let OperandRef::Input(i) = read.operand else {
                    continue;
                };
                let i = i as usize;
                if !is_constant(&ops.inputs()[i]) && last[i] != t {
                    last[i] = t;
                    pairs.push((i, t));
                }
            }
        }
        let mut starts = vec![0; n + 1];
        for &(i, _) in &pairs {
            starts[i + 1] += 1;
        }
        for i in 0..n {
            starts[i + 1] += starts[i];
        }
        let mut next = starts.clone();
        let mut readers = vec![0; pairs.len()];
        for (i, t) in pairs {
            readers[next[i]] = t;
            next[i] += 1;
        }
        Readers {
            starts,
            tiles: readers,
        }
    }

    fn of_slot(&self, input: usize) -> &[usize] {
        &self.tiles[self.starts[input]..self.starts[input + 1]]
    }
}

/// Lays the inputs of `ops` out for `tiles` on `config`.
pub(crate) fn lay_out(config: &ProcessorConfig, ops: &OpList, tiles: &[Tile]) -> InputLayout {
    let mut layout = Layout {
        banks: config.total_banks(),
        limits: Limits::of(config),
        readers: Readers::of(ops, tiles),
        used: vec![Footprint::default(); tiles.len()],
        word_of: vec![None; ops.num_inputs()],
        words: Vec::new(),
        by_source: HashMap::new(),
        next: 0,
        holes: BTreeSet::new(),
        shared: 0,
    };
    for (i, leaf) in ops.inputs().iter().enumerate() {
        let source = Source::of(leaf);
        let used = layout.footprint(i);
        let word = source.and_then(|source| {
            let words = layout.by_source.get(&source)?;
            if layout.readers.of_slot(i).is_empty() {
                // Read as a crossbar constant or not at all: any word of
                // its source will do.
                words.first().copied()
            } else {
                layout.shareable(&used, words)
            }
        });
        let word = word.unwrap_or_else(|| layout.fresh(i, source, &used));
        layout.place(i, word);
    }
    layout.finish()
}

struct Layout {
    banks: usize,
    limits: Limits,
    readers: Readers,
    /// What the reads of each tile laid out so far use.
    used: Vec<Footprint>,
    /// The word of every slot laid out so far.
    word_of: Vec<Option<usize>>,
    words: Vec<Word>,
    /// The words holding each source, oldest first.
    by_source: HashMap<Source, Vec<usize>>,
    /// The first position (row-major word index) never handed out.
    next: usize,
    /// Positions before `next` skipped because of a bank clash.
    holes: BTreeSet<usize>,
    /// Slots laid out in a word another slot owns.
    shared: usize,
}

impl Layout {
    /// What the reads of `input`'s tiles laid out so far use (`input` is
    /// not laid out yet).
    fn footprint(&self, input: usize) -> Footprint {
        match self.readers.of_slot(input) {
            [] => Footprint::default(),
            [tile] => self.used[*tile].clone(),
            tiles => {
                let mut used = Footprint::default();
                for &t in tiles {
                    used.add(&self.used[t]);
                }
                used
            }
        }
    }

    /// The word among `words` (of one source) that a slot whose tiles use
    /// `used` may share, the newest first, if any.
    fn shareable(&self, used: &Footprint, words: &[usize]) -> Option<usize> {
        let row = self.next / self.banks;
        let fits = |word: &Word| {
            word.slots < self.limits.word_slots
                && word.row < row
                && word.row + self.limits.window_rows >= row
                && used.lanes & (1 << word.lane) == 0
                && (used.shared_rows.contains(&word.row)
                    || used.shared_rows.len() < self.limits.tile_rows)
        };
        words.iter().rev().copied().find(|&w| fits(&self.words[w]))
    }

    /// A word of its own for `input`: the first free position whose bank no
    /// shared read of its tiles uses.  Positions skipped and still free
    /// never outnumber the slots that share, so the words end within the
    /// positions one word per slot would fill.
    fn fresh(&mut self, input: usize, source: Option<Source>, used: &Footprint) -> usize {
        let mut avoid = used.shared_lanes;
        if avoid.count_ones() as usize >= self.banks {
            avoid = 0;
        }
        let clashes = |position: usize| avoid & (1 << (position % self.banks)) != 0;
        let position = match self.holes.iter().copied().find(|&p| !clashes(p)) {
            Some(hole) => {
                self.holes.remove(&hole);
                hole
            }
            None => {
                while clashes(self.next) && self.holes.len() < self.shared {
                    self.holes.insert(self.next);
                    self.next += 1;
                }
                self.next += 1;
                self.next - 1
            }
        };
        self.words.push(Word {
            row: position / self.banks,
            lane: position % self.banks,
            slots: 0,
            owner: input as u32,
        });
        let word = self.words.len() - 1;
        if let Some(source) = source {
            self.by_source.entry(source).or_default().push(word);
        }
        word
    }

    /// Lays `input` out in `word` and adds it to its tiles' footprints.
    fn place(&mut self, input: usize, word: usize) {
        self.word_of[input] = Some(word);
        let word = &mut self.words[word];
        word.slots += 1;
        let shared = word.owner as usize != input;
        self.shared += usize::from(shared);
        let (row, lane) = (word.row, word.lane);
        for &t in self.readers.of_slot(input) {
            self.used[t].add_read(row, lane, shared);
        }
    }

    fn finish(self) -> InputLayout {
        let mut slots = Vec::with_capacity(self.word_of.len());
        let mut owner = Vec::with_capacity(self.word_of.len());
        for word in &self.word_of {
            let word = self.words[word.expect("every input laid out")];
            slots.push(InputSlot {
                row: word.row as u32,
                lane: word.lane as u16,
            });
            owner.push(word.owner);
        }
        let used = self.words.iter().map(|w| w.row * self.banks + w.lane + 1);
        InputLayout {
            slots,
            owner,
            rows: used.max().unwrap_or(0).div_ceil(self.banks),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tile::extract_tiles;
    use crate::Compiler;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spn_core::{Evidence, NodeId, Spn, SpnBuilder, VarId};
    use spn_processor::{Program, SimState};

    /// Sum weights: exact in binary, so `1 - w` repeats them too.
    const WEIGHTS: [f64; 4] = [0.125, 0.25, 0.375, 0.5];

    /// A random circuit shaped like LearnSPN's: products split their scope
    /// in two, sums mix two products over the same scope, and every leaf is
    /// a Bernoulli sum over indicator nodes of its own, so the flattener
    /// gives each leaf its own slots and the same indicators and weights
    /// fill many of them.
    pub(crate) fn learnspn_style(num_vars: usize, seed: u64) -> Spn {
        fn grow(b: &mut SpnBuilder, scope: &[u32], split: bool, rng: &mut StdRng) -> NodeId {
            let w = WEIGHTS[rng.gen_range(0..WEIGHTS.len())];
            if let [var] = *scope {
                let x = b.indicator(VarId(var), true);
                let nx = b.indicator(VarId(var), false);
                return b.sum(vec![(x, w), (nx, 1.0 - w)]).unwrap();
            }
            if split {
                let (left, right) = scope.split_at(rng.gen_range(1..scope.len()));
                let parts = vec![grow(b, left, false, rng), grow(b, right, false, rng)];
                b.product(parts).unwrap()
            } else {
                let a = grow(b, scope, true, rng);
                let c = grow(b, scope, true, rng);
                b.sum(vec![(a, w), (c, 1.0 - w)]).unwrap()
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = SpnBuilder::new(num_vars);
        let scope: Vec<u32> = (0..num_vars as u32).collect();
        let root = grow(&mut b, &scope, true, &mut rng);
        b.finish(root).unwrap()
    }

    /// The slots laid out in each word, keyed by `(row, lane)`.
    fn words(layout: &[InputSlot]) -> HashMap<(u32, u16), Vec<usize>> {
        let mut words: HashMap<(u32, u16), Vec<usize>> = HashMap::new();
        for (i, slot) in layout.iter().enumerate() {
            words.entry((slot.row, slot.lane)).or_default().push(i);
        }
        words
    }

    /// Every word holds one value: its slots have one source, and an
    /// external slot has its word to itself.
    fn assert_one_value_per_word(ops: &OpList, layout: &[InputSlot]) {
        for slots in words(layout).values() {
            let sources: Vec<_> = slots
                .iter()
                .map(|&i| Source::of(&ops.inputs()[i]))
                .collect();
            assert!(
                sources.iter().all(|s| *s == sources[0]),
                "slots {slots:?} share a word but hold {sources:?}"
            );
            assert!(
                sources[0].is_some() || slots.len() == 1,
                "external slots {slots:?} share"
            );
        }
    }

    fn ptree(regs_per_bank: usize) -> ProcessorConfig {
        ProcessorConfig {
            regs_per_bank,
            ..ProcessorConfig::ptree()
        }
    }

    #[test]
    fn the_limits_follow_the_machine() {
        let limits = |config: &ProcessorConfig| {
            let l = Limits::of(config);
            (l.word_slots, l.window_rows, l.tile_rows)
        };
        assert_eq!(limits(&ProcessorConfig::ptree()), (16, 32, 4));
        assert_eq!(limits(&ProcessorConfig::pvect()), (16, 32, 4));
        // Rows twice as wide: half the rows hold the same words.
        let wide = ProcessorConfig {
            banks_per_tree: 32,
            ..ProcessorConfig::ptree()
        };
        assert_eq!(limits(&wide), (16, 16, 2));
        assert_eq!(limits(&ptree(32)), (16, 16, 2));
        // Eight or sixteen registers leave too short a window to share in.
        assert_eq!(limits(&ptree(16)), (16, 0, 1));
        assert_eq!(limits(&ptree(8)), (16, 0, 1));
    }

    #[test]
    fn with_nothing_to_share_every_slot_gets_the_next_word() {
        // Every indicator once, every weight its own.
        let vars = 40;
        let mut b = SpnBuilder::new(vars);
        let leaves: Vec<NodeId> = (0..vars)
            .map(|v| {
                let w = 0.55 + v as f64 / 128.0;
                let x = b.indicator(VarId(v as u32), true);
                let nx = b.indicator(VarId(v as u32), false);
                b.sum(vec![(x, w), (nx, 1.0 - w)]).unwrap()
            })
            .collect();
        let root = b.product(leaves).unwrap();
        let ops = OpList::from_spn(&b.finish(root).unwrap());
        let config = ProcessorConfig::ptree();
        let banks = config.total_banks();
        let layout = lay_out(&config, &ops, &extract_tiles(&ops, 4, &[]));
        for (i, slot) in layout.slots.iter().enumerate() {
            assert_eq!(
                (slot.row as usize, usize::from(slot.lane)),
                (i / banks, i % banks)
            );
        }
        assert_eq!(layout.rows, ops.num_inputs().div_ceil(banks));
    }

    #[test]
    fn repeated_indicators_and_parameters_share_words() {
        let ops = OpList::from_spn(&learnspn_style(16, 1));
        let program = Compiler::new(ProcessorConfig::ptree())
            .compile_op_list(ops.clone())
            .unwrap()
            .program;
        assert_one_value_per_word(&ops, &program.input_layout);
        let shared: Vec<Source> = words(&program.input_layout)
            .values()
            .filter(|slots| slots.len() > 1)
            .filter_map(|slots| Source::of(&ops.inputs()[slots[0]]))
            .collect();
        assert!(shared.iter().any(|s| matches!(s, Source::Indicator { .. })));
        assert!(shared.iter().any(|s| matches!(s, Source::Param(_))));
        let banks = program.config.total_banks();
        assert!(program.memory_rows_used < ops.num_inputs().div_ceil(banks));
    }

    #[test]
    fn parameters_an_ulp_apart_and_external_slots_never_share() {
        // Leaves alternate between a weight and the next float up.
        let w = 0.3f64;
        let up = f64::from_bits(w.to_bits() + 1);
        let mut b = SpnBuilder::new(8);
        let leaves: Vec<NodeId> = (0..64)
            .map(|k| {
                let var = VarId(k % 8);
                let x = b.indicator(var, true);
                let nx = b.indicator(var, false);
                let p = if k % 2 == 0 { w } else { up };
                b.sum(vec![(x, p), (nx, 1.0 - p)]).unwrap()
            })
            .collect();
        let groups: Vec<NodeId> = leaves
            .chunks(8)
            .map(|leaves| b.product(leaves.to_vec()).unwrap())
            .collect();
        let root = b
            .sum(groups.into_iter().map(|g| (g, 0.125)).collect())
            .unwrap();
        let ops = OpList::from_spn(&b.finish(root).unwrap());
        let compiler = Compiler::new(ProcessorConfig::ptree());
        let program = compiler.compile_op_list(ops.clone()).unwrap().program;
        assert_one_value_per_word(&ops, &program.input_layout);
        let bits = |slots: &Vec<usize>| match ops.inputs()[slots[0]] {
            LeafSource::Param(p) => Some(p.to_bits()),
            _ => None,
        };
        let words = words(&program.input_layout);
        for target in [w.to_bits(), up.to_bits()] {
            let holding = words.values().filter(|s| bits(s) == Some(target));
            assert!(holding.clone().any(|slots| slots.len() > 1));
        }

        // The later stages of a partitioned circuit read external slots.
        let parted = compiler
            .compile_partitioned(OpList::from_spn(&learnspn_style(12, 2)), 3)
            .unwrap();
        let parts = parted.op_list.partition(3);
        let mut externals = 0;
        for (stage, part) in parted.parts.stages.iter().zip(&parts) {
            assert_one_value_per_word(&part.ops, &stage.program.input_layout);
            let external = |leaf: &&LeafSource| matches!(leaf, LeafSource::External);
            externals += part.ops.inputs().iter().filter(external).count();
        }
        assert!(externals > 0);
    }

    /// The layouts of LearnSPN-style circuits on Ptree with 8, 32 and 64
    /// registers per bank (no window, a 16-row and a 32-row one) and tiles
    /// one to four levels deep, with their op lists and tiles.
    fn layouts() -> Vec<(ProcessorConfig, OpList, Vec<Tile>, InputLayout)> {
        let mut cases = Vec::new();
        for (seed, vars) in [(3, 12), (4, 20), (5, 28)] {
            let ops = OpList::from_spn(&learnspn_style(vars, seed));
            for regs in [8, 32, 64] {
                for depth in 1..=4 {
                    let config = ptree(regs);
                    let tiles = extract_tiles(&ops, depth, &[]);
                    let layout = lay_out(&config, &ops, &tiles);
                    cases.push((config, ops.clone(), tiles, layout));
                }
            }
        }
        cases
    }

    #[test]
    fn a_shared_word_takes_no_bank_another_read_of_its_tile_uses() {
        for (config, ops, tiles, layout) in layouts() {
            assert_one_value_per_word(&ops, &layout.slots);
            let limits = Limits::of(&config);
            for tile in &tiles {
                let reads: Vec<usize> = tile
                    .reads
                    .iter()
                    .filter_map(|read| match read.operand {
                        OperandRef::Input(i) if !is_constant(&ops.inputs()[i as usize]) => {
                            Some(i as usize)
                        }
                        _ => None,
                    })
                    .collect();
                let shared = reads.iter().filter(|&&i| layout.owner[i] as usize != i);
                let mut shared_rows: Vec<u32> =
                    shared.clone().map(|&i| layout.slots[i].row).collect();
                shared_rows.sort_unstable();
                shared_rows.dedup();
                assert!(
                    shared_rows.len() <= limits.tile_rows,
                    "tile {} reads shared words in rows {shared_rows:?}",
                    tile.root
                );
                for &i in shared {
                    let clash = reads
                        .iter()
                        .find(|&&j| j != i && layout.slots[j].lane == layout.slots[i].lane);
                    assert!(
                        clash.is_none(),
                        "tile {}: slot {i} shares a word in the bank of slot {clash:?}",
                        tile.root
                    );
                }
            }
        }
    }

    #[test]
    fn sharing_never_takes_more_rows_than_a_word_per_slot() {
        for (config, ops, _, layout) in layouts() {
            let per_slot = ops.num_inputs().div_ceil(config.total_banks());
            assert!(layout.rows <= per_slot, "{} rows > {per_slot}", layout.rows);
            assert!(layout.slots.iter().all(|s| (s.row as usize) < layout.rows));
        }
    }

    /// `rows` rows of evidence, each variable observed false, observed
    /// true or left unobserved.
    fn batch(num_vars: usize, rows: usize) -> Vec<Evidence> {
        let mut rng = StdRng::seed_from_u64(0x1a70_0733);
        (0..rows)
            .map(|_| {
                let values = (0..num_vars).map(|_| match rng.gen_range(0..3usize) {
                    0 => Some(false),
                    1 => Some(true),
                    _ => None,
                });
                Evidence::from_options(values.collect())
            })
            .collect()
    }

    #[test]
    fn shared_words_compute_the_op_lists_values_bit_for_bit() {
        for (seed, vars) in [(6, 10), (7, 18), (8, 26)] {
            let ops = OpList::from_spn(&learnspn_style(vars, seed));
            let evidence = batch(vars, 16);
            let mut results = vec![0.0; ops.num_ops()];
            for regs in [8, 32, 64] {
                for depth in 1..=4 {
                    let options = crate::CompilerOptions {
                        max_tile_depth: Some(depth),
                    };
                    let artifact = Compiler::with_options(ptree(regs), options)
                        .compile_op_list(ops.clone())
                        .unwrap();
                    // Every spill store takes a fresh row past the inputs.
                    let program: &Program = &artifact.program;
                    let input_rows = program.memory_rows_used - artifact.report.memory_stores;
                    let banks = program.config.total_banks();
                    assert!(input_rows <= ops.num_inputs().div_ceil(banks));
                    let mut state = SimState::default();
                    for row in &evidence {
                        let inputs = ops.input_values(row).unwrap();
                        let expected = ops.run_into(&inputs, &mut results);
                        let mut output = [0.0];
                        artifact
                            .program
                            .run_block(1, &inputs, &mut output, &mut state);
                        assert_eq!(
                            output[0].to_bits(),
                            expected.to_bits(),
                            "seed {seed}, {regs} registers, depth {depth}"
                        );
                    }
                }
            }
        }
    }
}
