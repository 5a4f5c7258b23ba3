//! Tile extraction: packing the operation DAG into PE-tree shaped passes.
//!
//! A *tile* is a connected sub-tree of the flattened operation DAG that is
//! executed by one pass through a PE tree: its root occupies a PE at level
//! `depth-1`, internal operations occupy the PEs below it, external operands
//! enter at the leaf level (passed up through forwarding PEs where needed),
//! and only the root's result leaves the tree.
//!
//! Tiles are extracted by maximal munch over the DAG in reverse topological
//! order: an operation joins its consumer's tile when it has exactly one use
//! and the tile still has depth budget.  Every operation with fanout greater
//! than one becomes a tile root, because its value must be written back to the
//! register file anyway.

use spn_core::flatten::{OpKind, OpList, OperandRef};

/// One operation placed inside a tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlacedOp {
    /// Index of the operation in the originating [`OpList`].
    pub op: usize,
    /// Level within the tile (0 = crossbar-fed level, `depth-1` = tile root).
    pub level: usize,
    /// Position within the level, relative to the tile (root has position 0).
    pub pos: usize,
    /// The arithmetic the PE performs.
    pub kind: OpKind,
}

/// A forwarding PE inside a tile (routes an external operand upwards).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PassThrough {
    /// Level of the forwarding PE within the tile.
    pub level: usize,
    /// Position within the level, relative to the tile.
    pub pos: usize,
}

/// An external operand entering the tile at the leaf level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LeafRead {
    /// Tree-input slot relative to the tile (0 .. 2^depth).
    pub slot: usize,
    /// The value being read.
    pub operand: OperandRef,
}

/// A PE-tree shaped group of operations scheduled as one unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Tile {
    /// Index of the root operation in the [`OpList`].
    pub root: usize,
    /// Number of PE levels the tile occupies (1 ..= tree levels).
    pub depth: usize,
    /// Operations executed by the tile (always contains the root).
    pub ops: Vec<PlacedOp>,
    /// Forwarding PEs used to route external operands upwards.
    pub passes: Vec<PassThrough>,
    /// External operands and the leaf slots they enter at.
    pub reads: Vec<LeafRead>,
}

impl Tile {
    /// Number of leaf-level PEs the tile occupies when placed
    /// (`2^(depth-1)`).
    pub(crate) fn leaf_footprint(&self) -> usize {
        1 << (self.depth - 1)
    }
}

/// Extracts tiles from `ops` with at most `max_depth` PE levels per tile.
///
/// Every operation belongs to exactly one tile.  Tiles are returned in
/// ascending root-operation order, which is a valid topological order of the
/// tile dependency graph.
///
/// Every operand in `exports` (none for a whole program) gets an extra
/// phantom use, so an exported operation is never absorbed into its
/// consumer's tile — it becomes a tile root, and its result is committed to
/// the register file where a multi-core runtime can peek it (tile-internal
/// values only ever exist inside the PE datapath).
///
/// # Panics
///
/// Panics if `max_depth` is zero.
pub(crate) fn extract_tiles(ops: &OpList, max_depth: usize, exports: &[OperandRef]) -> Vec<Tile> {
    assert!(max_depth >= 1, "tiles need at least one level");
    let n = ops.num_ops();

    // Fanout of each op result: uses by later ops plus one if it is the
    // output or an exported value.
    let mut fanout = vec![0usize; n];
    for op in ops.ops() {
        for operand in [op.lhs, op.rhs] {
            if let OperandRef::Op(i) = operand {
                fanout[i as usize] += 1;
            }
        }
    }
    if let OperandRef::Op(i) = ops.output() {
        fanout[i as usize] += 1;
    }
    for &export in exports {
        if let OperandRef::Op(i) = export {
            fanout[i as usize] += 1;
        }
    }

    let mut owner: Vec<Option<usize>> = vec![None; n]; // op -> tile root
    let mut tiles = Vec::new();

    for root in (0..n).rev() {
        if owner[root].is_some() {
            continue;
        }
        // Grow the tile rooted at `root` by recursive munch (iterative, via an
        // explicit stack of (op, distance-from-root, path)).
        let mut members: Vec<(usize, usize, usize)> = Vec::new(); // (op, dist, path)
        let mut externals: Vec<(usize, usize, usize, OperandRef)> = Vec::new(); // (dist of consumer, path of consumer, side, value)
        let mut stack = vec![(root, 0usize, 0usize)];
        owner[root] = Some(root);
        let mut max_dist = 0usize;
        while let Some((op_idx, dist, path)) = stack.pop() {
            members.push((op_idx, dist, path));
            max_dist = max_dist.max(dist);
            let op = ops.ops()[op_idx];
            for (side, operand) in [(0usize, op.lhs), (1usize, op.rhs)] {
                let child_path = path * 2 + side;
                let absorb = match operand {
                    OperandRef::Op(j) => {
                        let j = j as usize;
                        dist + 1 < max_depth && fanout[j] == 1 && owner[j].is_none()
                    }
                    OperandRef::Input(_) => false,
                };
                if let (true, OperandRef::Op(j)) = (absorb, operand) {
                    let j = j as usize;
                    owner[j] = Some(root);
                    stack.push((j, dist + 1, child_path));
                } else {
                    externals.push((dist, path, side, operand));
                }
            }
        }

        let depth = max_dist + 1;
        // Convert distances (from the root) into levels (from the leaves).
        let mut placed_ops = Vec::with_capacity(members.len());
        for (op_idx, dist, path) in &members {
            placed_ops.push(PlacedOp {
                op: *op_idx,
                level: depth - 1 - dist,
                pos: *path,
                kind: ops.ops()[*op_idx].kind,
            });
        }
        let mut passes = Vec::new();
        let mut reads = Vec::new();
        for (dist, path, side, operand) in externals {
            let consumer_level = depth - 1 - dist;
            // The operand must appear as the `side` input of the consumer PE.
            if consumer_level == 0 {
                reads.push(LeafRead {
                    slot: path * 2 + side,
                    operand,
                });
            } else {
                // Chain of forwarding PEs from level consumer_level-1 down to 0.
                let mut pos = path * 2 + side;
                for level in (0..consumer_level).rev() {
                    passes.push(PassThrough { level, pos });
                    if level > 0 {
                        pos *= 2;
                    }
                }
                reads.push(LeafRead {
                    slot: pos * 2,
                    operand,
                });
            }
        }
        placed_ops.sort_by_key(|p| (p.level, p.pos));
        tiles.push(Tile {
            root,
            depth,
            ops: placed_ops,
            passes,
            reads,
        });
    }

    tiles.sort_by_key(|t| t.root);
    tiles
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spn_core::random::{random_spn, RandomSpnConfig};
    use spn_core::{SpnBuilder, VarId};

    fn small_ops() -> OpList {
        // ((x0 * x1) + (nx0 * nx1)) weighted mixture: 3-level op DAG.
        let mut b = SpnBuilder::new(2);
        let x0 = b.indicator(VarId(0), true);
        let nx0 = b.indicator(VarId(0), false);
        let x1 = b.indicator(VarId(1), true);
        let nx1 = b.indicator(VarId(1), false);
        let p0 = b.product(vec![x0, x1]).unwrap();
        let p1 = b.product(vec![nx0, nx1]).unwrap();
        let root = b.sum(vec![(p0, 0.3), (p1, 0.7)]).unwrap();
        OpList::from_spn(&b.finish(root).unwrap())
    }

    /// Every op appears in exactly one tile.
    fn check_partition(ops: &OpList, tiles: &[Tile]) {
        let mut seen = vec![false; ops.num_ops()];
        for tile in tiles {
            for p in &tile.ops {
                assert!(!seen[p.op], "op {} in two tiles", p.op);
                seen[p.op] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some ops not covered by tiles");
    }

    /// Structural soundness of a tile: root at the top level, children of each
    /// placed op are either placed at the expected position one level below or
    /// reachable from a leaf read through the expected pass chain.
    fn check_tile_wiring(ops: &OpList, tile: &Tile) {
        use std::collections::HashMap;
        let placed: HashMap<(usize, usize), &PlacedOp> =
            tile.ops.iter().map(|p| ((p.level, p.pos), p)).collect();
        let passes: std::collections::HashSet<(usize, usize)> =
            tile.passes.iter().map(|p| (p.level, p.pos)).collect();
        let reads: HashMap<usize, OperandRef> =
            tile.reads.iter().map(|r| (r.slot, r.operand)).collect();

        // Resolve what value each position (level, pos) produces.
        fn value_at(
            level: isize,
            pos: usize,
            placed: &HashMap<(usize, usize), &PlacedOp>,
            passes: &std::collections::HashSet<(usize, usize)>,
            reads: &HashMap<usize, OperandRef>,
        ) -> Option<OperandRef> {
            if level < 0 {
                return reads.get(&pos).copied();
            }
            let key = (level as usize, pos);
            if let Some(p) = placed.get(&key) {
                return Some(OperandRef::Op(p.op as u32));
            }
            if passes.contains(&key) {
                // Forwarding PEs always forward their left input.
                return value_at(level - 1, pos * 2, placed, passes, reads);
            }
            None
        }

        let root = tile.ops.iter().find(|p| p.op == tile.root).unwrap();
        assert_eq!(root.level, tile.depth - 1);
        assert_eq!(root.pos, 0);

        for p in &tile.ops {
            let op = ops.ops()[p.op];
            for (side, expected) in [(0usize, op.lhs), (1usize, op.rhs)] {
                let got = value_at(
                    p.level as isize - 1,
                    p.pos * 2 + side,
                    &placed,
                    &passes,
                    &reads,
                )
                .unwrap_or_else(|| panic!("op {} side {side} has no wired value", p.op));
                assert_eq!(got, expected, "op {} side {side} wired incorrectly", p.op);
            }
        }
    }

    #[test]
    fn depth_one_tiles_are_single_ops() {
        let ops = small_ops();
        let tiles = extract_tiles(&ops, 1, &[]);
        assert_eq!(tiles.len(), ops.num_ops());
        check_partition(&ops, &tiles);
        for tile in &tiles {
            assert_eq!(tile.depth, 1);
            assert_eq!(tile.ops.len(), 1);
            assert_eq!(tile.reads.len(), 2);
            assert!(tile.passes.is_empty());
            check_tile_wiring(&ops, tile);
        }
    }

    #[test]
    fn deep_tiles_absorb_single_use_chains() {
        let ops = small_ops();
        let tiles = extract_tiles(&ops, 4, &[]);
        check_partition(&ops, &tiles);
        // The whole 5-op expression fits one tile of depth 3.
        assert!(tiles.len() < ops.num_ops());
        let biggest = tiles.iter().map(|t| t.ops.len()).max().unwrap();
        assert!(biggest >= 3);
        for tile in &tiles {
            assert!(tile.depth <= 4);
            check_tile_wiring(&ops, tile);
        }
    }

    #[test]
    fn shared_values_split_tiles() {
        // x*y used twice: the shared op must be its own tile root.
        let mut b = SpnBuilder::new(2);
        let x = b.indicator(VarId(0), true);
        let y = b.indicator(VarId(1), true);
        let shared = b.product(vec![x, y]).unwrap();
        let nx = b.indicator(VarId(0), false);
        let ny = b.indicator(VarId(1), false);
        let other = b.product(vec![nx, ny]).unwrap();
        let s1 = b.sum(vec![(shared, 0.5), (other, 0.5)]).unwrap();
        let s2 = b.sum(vec![(shared, 0.2), (other, 0.8)]).unwrap();
        let root = b.product(vec![s1, s2]).unwrap();
        // Root is not decomposable but flattening does not care; this is a
        // stress test for sharing.
        let ops = OpList::from_spn(&b.finish(root).unwrap());
        let tiles = extract_tiles(&ops, 4, &[]);
        check_partition(&ops, &tiles);
        for tile in &tiles {
            check_tile_wiring(&ops, tile);
        }
        // Find the op index of the shared product: it must be a tile root.
        let shared_roots: Vec<_> = tiles
            .iter()
            .filter(|t| {
                t.ops.len() == 1
                    && t.reads
                        .iter()
                        .all(|r| matches!(r.operand, OperandRef::Input(_)))
            })
            .collect();
        assert!(!shared_roots.is_empty());
    }

    #[test]
    fn random_spn_tiles_are_wired_correctly() {
        let mut rng = StdRng::seed_from_u64(17);
        let spn = random_spn(&RandomSpnConfig::with_vars(12), &mut rng);
        let ops = OpList::from_spn(&spn);
        for depth in [1, 2, 4] {
            let tiles = extract_tiles(&ops, depth, &[]);
            check_partition(&ops, &tiles);
            for tile in &tiles {
                assert!(tile.depth <= depth);
                assert!(tile.leaf_footprint() <= 1 << (depth - 1));
                check_tile_wiring(&ops, tile);
            }
        }
    }

    #[test]
    fn tiles_are_topologically_ordered() {
        let mut rng = StdRng::seed_from_u64(18);
        let spn = random_spn(&RandomSpnConfig::with_vars(10), &mut rng);
        let ops = OpList::from_spn(&spn);
        let tiles = extract_tiles(&ops, 4, &[]);
        use std::collections::HashMap;
        let root_of: HashMap<usize, usize> = tiles
            .iter()
            .flat_map(|t| t.ops.iter().map(move |p| (p.op, t.root)))
            .collect();
        for (i, tile) in tiles.iter().enumerate() {
            for read in &tile.reads {
                if let OperandRef::Op(j) = read.operand {
                    let producer_root = root_of[&(j as usize)];
                    let producer_idx = tiles.iter().position(|t| t.root == producer_root).unwrap();
                    assert!(producer_idx < i, "tile order violates dependencies");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_depth_panics() {
        let ops = small_ops();
        let _ = extract_tiles(&ops, 0, &[]);
    }
}
