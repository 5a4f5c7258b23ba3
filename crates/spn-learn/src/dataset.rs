//! Binary datasets and synthetic data generators.
//!
//! Beside its rows, a [`Dataset`] keeps a bit-packed, variable-major column
//! store, built by [`Dataset::new`]: variable `v`'s column is `⌈rows/64⌉`
//! words in which bit `r % 64` of word `r / 64` is row `r`'s value, and each
//! column's ones count is stored with it.  Every count the learners take is
//! an `AND` and a `count_ones` over a column's words, restricted to a row
//! mask where LearnSPN works on a subset of the rows, instead of a walk over
//! the rows.  The counts of a variable pair form one record (`n`, `ones_a`,
//! `ones_b`, `both`), and `Dataset::marginal`, `Dataset::joint`,
//! `Dataset::mutual_information` and LearnSPN's leaves and independence
//! tests all compute from such a record through the same smoothed formulas.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dataset of fully observed binary rows.
///
/// The column store is a function of the rows, so the derived equality
/// still means "same variables, same rows".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dataset {
    num_vars: usize,
    rows: Vec<Vec<bool>>,
    /// Variable-major bit columns, [`Dataset::words`] words per variable.
    columns: Vec<u64>,
    /// `ones[v]`: how many rows have variable `v` true.
    ones: Vec<usize>,
}

impl Dataset {
    /// Creates a dataset from explicit rows.
    ///
    /// # Panics
    ///
    /// Panics if any row has a different length than `num_vars`.
    pub fn new(num_vars: usize, rows: Vec<Vec<bool>>) -> Self {
        assert!(
            rows.iter().all(|r| r.len() == num_vars),
            "all rows must have {num_vars} variables"
        );
        let words = rows.len().div_ceil(64);
        let mut columns = vec![0u64; num_vars * words];
        for (r, row) in rows.iter().enumerate() {
            let bit = 1u64 << (r % 64);
            for (v, _) in row.iter().enumerate().filter(|&(_, &value)| value) {
                columns[v * words + r / 64] |= bit;
            }
        }
        let mut data = Dataset {
            num_vars,
            rows,
            columns,
            ones: Vec::new(),
        };
        data.ones = (0..num_vars)
            .map(|v| data.column(v).iter().map(|w| w.count_ones() as usize).sum())
            .collect();
        data
    }

    /// Words per bit column.
    fn words(&self) -> usize {
        self.rows.len().div_ceil(64)
    }

    /// Variable `var`'s bit column.
    fn column(&self, var: usize) -> &[u64] {
        let words = self.words();
        &self.columns[var * words..][..words]
    }

    /// The counts of `var_a` and `var_b` over every row.
    fn counts(&self, var_a: usize, var_b: usize) -> Counts {
        Counts {
            n: self.num_rows(),
            ones_a: self.ones[var_a],
            ones_b: self.ones[var_b],
            both: ones_and(self.column(var_a), self.column(var_b)),
        }
    }

    /// Number of variables (columns).
    pub(crate) fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of rows.
    pub(crate) fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the dataset has no rows.
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Access to the raw rows.
    pub fn rows(&self) -> &[Vec<bool>] {
        &self.rows
    }

    /// The empirical probability of variable `var` being `true`, with
    /// add-one (Laplace) smoothing.
    pub(crate) fn marginal(&self, var: usize) -> f64 {
        self.counts(var, var).marginal_a()
    }

    /// The smoothed empirical joint probability `P(var_a = a, var_b = b)`.
    pub(crate) fn joint(&self, var_a: usize, a: bool, var_b: usize, b: bool) -> f64 {
        self.counts(var_a, var_b).joint(a, b)
    }

    /// Pairwise mutual information between two variables (in nats), computed
    /// from smoothed counts.
    pub(crate) fn mutual_information(&self, var_a: usize, var_b: usize) -> f64 {
        if var_a == var_b {
            return f64::INFINITY;
        }
        self.counts(var_a, var_b).mutual_information()
    }

    /// Splits the dataset into a training and a test part (`train_fraction`
    /// of the rows go to the training set, preserving row order).
    #[cfg(test)]
    pub(crate) fn split(&self, train_fraction: f64) -> (Dataset, Dataset) {
        let cut = ((self.num_rows() as f64) * train_fraction).round() as usize;
        let cut = cut.min(self.num_rows());
        (
            Dataset::new(self.num_vars, self.rows[..cut].to_vec()),
            Dataset::new(self.num_vars, self.rows[cut..].to_vec()),
        )
    }
}

/// A subset of a dataset's rows, one bit per row in the column layout.
#[derive(Debug)]
pub(crate) struct RowMask {
    words: Vec<u64>,
    len: usize,
}

impl RowMask {
    /// The rows `rows` (distinct indices) of `data`.
    pub(crate) fn new(data: &Dataset, rows: &[usize]) -> RowMask {
        let mut words = vec![0u64; data.words()];
        for &r in rows {
            words[r / 64] |= 1u64 << (r % 64);
        }
        let len = words.iter().map(|w| w.count_ones() as usize).sum();
        RowMask { words, len }
    }

    /// How many rows of the mask have variable `var` true.
    pub(crate) fn ones(&self, data: &Dataset, var: usize) -> usize {
        ones_and(&self.words, data.column(var))
    }

    /// Laplace-smoothed `P(var = true)` over the mask's rows.
    pub(crate) fn marginal(&self, data: &Dataset, var: usize) -> f64 {
        smoothed_marginal(self.ones(data, var), self.len)
    }

    /// The counts of `var_a` and `var_b` over the mask's rows, given their
    /// ones counts from [`RowMask::ones`].
    pub(crate) fn counts(
        &self,
        data: &Dataset,
        (var_a, ones_a): (usize, usize),
        (var_b, ones_b): (usize, usize),
    ) -> Counts {
        let both = self
            .words
            .iter()
            .zip(data.column(var_a))
            .zip(data.column(var_b))
            .map(|((m, a), b)| (m & a & b).count_ones() as usize)
            .sum();
        Counts {
            n: self.len,
            ones_a,
            ones_b,
            both,
        }
    }
}

/// The integer counts of a variable pair over `n` rows, from which every
/// probability this crate estimates is computed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Counts {
    n: usize,
    /// Rows with variable `a` true.
    ones_a: usize,
    /// Rows with variable `b` true.
    ones_b: usize,
    /// Rows with both true.
    both: usize,
}

impl Counts {
    /// Laplace-smoothed `P(a = true)`.
    fn marginal_a(self) -> f64 {
        smoothed_marginal(self.ones_a, self.n)
    }

    /// Laplace-smoothed `P(a = value_a, b = value_b)`.
    fn joint(self, value_a: bool, value_b: bool) -> f64 {
        let count = match (value_a, value_b) {
            (true, true) => self.both,
            (true, false) => self.ones_a - self.both,
            (false, true) => self.ones_b - self.both,
            // Added before subtracting: `ones_a + ones_b` may exceed `n`.
            (false, false) => self.n + self.both - self.ones_a - self.ones_b,
        };
        (count as f64 + 1.0) / (self.n as f64 + 4.0)
    }

    /// Mutual information between `a` and `b` in nats, from the smoothed
    /// probabilities.
    pub(crate) fn mutual_information(self) -> f64 {
        let marginal_b = smoothed_marginal(self.ones_b, self.n);
        let mut mi = 0.0;
        for a in [false, true] {
            for b in [false, true] {
                let p_ab = self.joint(a, b);
                let p_a = if a {
                    self.marginal_a()
                } else {
                    1.0 - self.marginal_a()
                };
                let p_b = if b { marginal_b } else { 1.0 - marginal_b };
                mi += p_ab * (p_ab / (p_a * p_b)).ln();
            }
        }
        mi.max(0.0)
    }
}

/// Laplace-smoothed probability of a variable that is true in `ones` of `n`
/// rows.
fn smoothed_marginal(ones: usize, n: usize) -> f64 {
    (ones as f64 + 1.0) / (n as f64 + 2.0)
}

/// Set bits in the `AND` of two equally long word slices.
fn ones_and(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// Shape of the dependency structure used by [`synthetic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// All variables independent.
    Independent,
    /// A first-order chain: each variable depends on the previous one.
    Chain,
    /// A mixture of `k` prototype rows with bit-flip noise (clustered data).
    Clustered {
        /// Number of mixture components.
        clusters: usize,
    },
}

/// Generates a synthetic binary dataset over `num_vars` variables.
///
/// The three structures cover the regimes found in the real benchmarks:
/// independent noise, chain-correlated signals (sensor-like data such as
/// EEG-eye), and cluster-structured data (recommendation data such as
/// Netflix or text data such as BBC).
pub fn synthetic<R: Rng + ?Sized>(
    num_vars: usize,
    num_rows: usize,
    structure: Structure,
    rng: &mut R,
) -> Dataset {
    let mut rows = Vec::with_capacity(num_rows);
    match structure {
        Structure::Independent => {
            let probs: Vec<f64> = (0..num_vars).map(|_| rng.gen_range(0.1..0.9)).collect();
            for _ in 0..num_rows {
                rows.push(probs.iter().map(|&p| rng.gen_bool(p)).collect());
            }
        }
        Structure::Chain => {
            let stay = 0.85;
            for _ in 0..num_rows {
                let mut row = Vec::with_capacity(num_vars);
                let mut prev = rng.gen_bool(0.5);
                for _ in 0..num_vars {
                    let value = if rng.gen_bool(stay) { prev } else { !prev };
                    row.push(value);
                    prev = value;
                }
                rows.push(row);
            }
        }
        Structure::Clustered { clusters } => {
            let clusters = clusters.max(1);
            let prototypes: Vec<Vec<bool>> = (0..clusters)
                .map(|_| (0..num_vars).map(|_| rng.gen_bool(0.5)).collect())
                .collect();
            for _ in 0..num_rows {
                let proto = &prototypes[rng.gen_range(0..clusters)];
                rows.push(
                    proto
                        .iter()
                        .map(|&b| if rng.gen_bool(0.1) { !b } else { b })
                        .collect(),
                );
            }
        }
    }
    Dataset::new(num_vars, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_accessors() {
        let d = Dataset::new(2, vec![vec![true, false], vec![true, true]]);
        assert_eq!(d.num_vars(), 2);
        assert_eq!(d.num_rows(), 2);
        assert!(!d.is_empty());
        assert!(d.marginal(0) > 0.7);
    }

    #[test]
    #[should_panic(expected = "variables")]
    fn mismatched_rows_panic() {
        let _ = Dataset::new(3, vec![vec![true, false]]);
    }

    #[test]
    fn mutual_information_detects_dependence() {
        let mut rng = StdRng::seed_from_u64(1);
        let chain = synthetic(6, 800, Structure::Chain, &mut rng);
        let indep = synthetic(6, 800, Structure::Independent, &mut rng);
        // Adjacent chain variables share much more information than
        // independent ones.
        assert!(chain.mutual_information(0, 1) > indep.mutual_information(0, 1) + 0.05);
        assert!(chain.mutual_information(2, 2).is_infinite());
    }

    #[test]
    fn split_preserves_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = synthetic(5, 100, Structure::Independent, &mut rng);
        let (train, test) = d.split(0.8);
        assert_eq!(train.num_rows(), 80);
        assert_eq!(test.num_rows(), 20);
    }

    #[test]
    fn clustered_data_has_cluster_structure() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = synthetic(12, 400, Structure::Clustered { clusters: 3 }, &mut rng);
        assert_eq!(d.num_rows(), 400);
        // Clustered data induces correlations between most variable pairs.
        let mi: f64 = (1..6).map(|v| d.mutual_information(0, v)).sum();
        assert!(mi > 0.05);
    }

    #[test]
    fn probabilities_are_smoothed_and_bounded() {
        let d = Dataset::new(1, vec![vec![true]; 10]);
        let p = d.marginal(0);
        assert!(p < 1.0 && p > 0.9);
        assert!(d.joint(0, true, 0, true) <= 1.0);
    }

    // The row scans the column store replaced: the oracle of the
    // differential test below.

    fn scan_marginal(rows: &[Vec<bool>], var: usize) -> f64 {
        let ones = rows.iter().filter(|r| r[var]).count();
        (ones as f64 + 1.0) / (rows.len() as f64 + 2.0)
    }

    fn scan_joint(rows: &[Vec<bool>], var_a: usize, a: bool, var_b: usize, b: bool) -> f64 {
        let count = rows
            .iter()
            .filter(|r| r[var_a] == a && r[var_b] == b)
            .count();
        (count as f64 + 1.0) / (rows.len() as f64 + 4.0)
    }

    fn scan_mutual_information(rows: &[Vec<bool>], var_a: usize, var_b: usize) -> f64 {
        if var_a == var_b {
            return f64::INFINITY;
        }
        let mut mi = 0.0;
        for a in [false, true] {
            for b in [false, true] {
                let p_ab = scan_joint(rows, var_a, a, var_b, b);
                let p_a = if a {
                    scan_marginal(rows, var_a)
                } else {
                    1.0 - scan_marginal(rows, var_a)
                };
                let p_b = if b {
                    scan_marginal(rows, var_b)
                } else {
                    1.0 - scan_marginal(rows, var_b)
                };
                if p_ab > 0.0 {
                    mi += p_ab * (p_ab / (p_a * p_b)).ln();
                }
            }
        }
        mi.max(0.0)
    }

    #[test]
    fn column_counts_match_the_row_scan_bit_for_bit() {
        const VARS: usize = 5;
        let mut rng = StdRng::seed_from_u64(13);
        let mut overlapping_pairs = 0;
        for num_rows in [0, 1, 63, 64, 65, 400, 1500] {
            for structure in [
                Structure::Independent,
                Structure::Chain,
                Structure::Clustered { clusters: 3 },
            ] {
                let data = synthetic(VARS, num_rows, structure, &mut rng);
                let case = format!("{num_rows} rows, {structure:?}");

                // Every row, through the public methods.
                for a in 0..VARS {
                    assert_eq!(
                        data.marginal(a).to_bits(),
                        scan_marginal(data.rows(), a).to_bits(),
                        "{case}: marginal({a})"
                    );
                    for b in 0..VARS {
                        for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
                            assert_eq!(
                                data.joint(a, x, b, y).to_bits(),
                                scan_joint(data.rows(), a, x, b, y).to_bits(),
                                "{case}: joint({a}={x}, {b}={y})"
                            );
                        }
                        assert_eq!(
                            data.mutual_information(a, b).to_bits(),
                            scan_mutual_information(data.rows(), a, b).to_bits(),
                            "{case}: mutual_information({a}, {b})"
                        );
                    }
                }

                // A row mask, the way LearnSPN counts a node's rows.
                let half: Vec<usize> = (0..num_rows).filter(|_| rng.gen_bool(0.5)).collect();
                let masks = [
                    ("empty", Vec::new()),
                    ("one row", (num_rows / 2..num_rows).take(1).collect()),
                    ("random half", half),
                    ("all rows", (0..num_rows).collect()),
                ];
                for (name, indices) in masks {
                    let mask = RowMask::new(&data, &indices);
                    let subset: Vec<Vec<bool>> =
                        indices.iter().map(|&i| data.rows()[i].clone()).collect();
                    let rows = &subset[..];
                    let ones: Vec<(usize, usize)> =
                        (0..VARS).map(|v| (v, mask.ones(&data, v))).collect();
                    for a in 0..VARS {
                        assert_eq!(
                            mask.marginal(&data, a).to_bits(),
                            scan_marginal(rows, a).to_bits(),
                            "{case}, {name} mask: marginal({a})"
                        );
                        for b in 0..VARS {
                            let counts = mask.counts(&data, ones[a], ones[b]);
                            if counts.ones_a + counts.ones_b > counts.n {
                                overlapping_pairs += 1;
                            }
                            for (x, y) in
                                [(false, false), (false, true), (true, false), (true, true)]
                            {
                                assert_eq!(
                                    counts.joint(x, y).to_bits(),
                                    scan_joint(rows, a, x, b, y).to_bits(),
                                    "{case}, {name} mask: joint({a}={x}, {b}={y})"
                                );
                            }
                            if a != b {
                                assert_eq!(
                                    counts.mutual_information().to_bits(),
                                    scan_mutual_information(rows, a, b).to_bits(),
                                    "{case}, {name} mask: mutual_information({a}, {b})"
                                );
                            }
                        }
                    }
                }
            }
        }
        // The `(false, false)` cell's subtraction order is exercised.
        assert!(overlapping_pairs > 0);
    }

    #[test]
    fn datasets_with_the_same_rows_compare_equal() {
        let mut rng = StdRng::seed_from_u64(14);
        let d = synthetic(7, 130, Structure::Chain, &mut rng);
        assert_eq!(Dataset::new(7, d.rows().to_vec()), d);
        let mut flipped = d.rows().to_vec();
        flipped[129][6] = !flipped[129][6];
        assert_ne!(Dataset::new(7, flipped), d);
    }
}
