//! Flattening of SPN DAGs into the scalar program form used by the paper.
//!
//! [`OpList`] is Algorithm 1: a straight-line list of binary `+`/`×`
//! operations over an input vector (leaf indicators and parameters).  This
//! is the form handed to the C compiler for the CPU baseline and the form
//! our processor compiler consumes.
//!
//! Flattening binarises n-ary sums and products and turns sum weights into
//! parameter inputs multiplied into their child, exactly like the arithmetic
//! circuits emitted by PSDD/AC learning tools.
//!
//! Every program carries a [`NumericMode`]: flattening produces linear-domain
//! programs, and [`OpList::to_log_domain`] rewrites one into its log-domain
//! twin (sums become log-sum-exp, products become additions, parameters are
//! stored as natural logs), so deep circuits whose probabilities underflow
//! `f64` in linear space stay finite on every backend.
//!
//! Every program also carries a [`Precision`] (default [`Precision::F64`],
//! i.e. no quantization): [`OpList::with_precision`] stamps a program with an
//! emulated PE arithmetic format, quantizing its baked-in parameters, and the
//! execution kernels then round every intermediate result through that
//! format's `Quantizer` — the software model of the paper's
//! reduced-precision PE datapath.
//!
//! What an operation computes is defined once, in `OpKind::apply_lanes`;
//! the two executors in [`crate::vectorized`] walk a whole program with
//! it, and [`OpList::run_into`] is the independent reference the parity
//! suites compare them against.

use serde::{Deserialize, Serialize};

use crate::evidence::Evidence;
use crate::graph::{Node, Spn, VarId};
use crate::numeric::{log_sum_exp, log_sum_exp_lanes, NumericMode};
use crate::precision::{Precision, Quantizer};
use crate::Result;

/// The source feeding one input slot of a flattened program.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LeafSource {
    /// A data input: the indicator `[var = value]` evaluated from evidence.
    Indicator {
        /// Variable tested by the indicator.
        var: VarId,
        /// Value the indicator fires on.
        value: bool,
    },
    /// A numeric parameter baked into the program (sum weight or constant).
    Param(f64),
    /// A value imported from another partition at run time (see
    /// [`OpList::partition`]).  External slots are never filled from
    /// evidence — [`OpList::input_values`] and [`crate::InputRecipe`] leave
    /// `NaN` placeholders that the partitioned runtime overwrites with the
    /// producer partition's exported result before execution.
    External,
}

/// Reference to an operand of a flattened operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OperandRef {
    /// Input slot `i` of the program.
    Input(u32),
    /// Result of operation `i` (an earlier entry in the op list).
    Op(u32),
}

/// The arithmetic performed by a flattened operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Addition.  A sum-node contribution in linear-domain programs; a
    /// *product* contribution in log-domain programs (logs add).
    Add,
    /// Multiplication (product node or weight application; linear-domain
    /// programs only).
    Mul,
    /// Maximisation (sum node contribution in the max-product / max-sum
    /// variants used by MAP/MPE queries; produced by
    /// [`OpList::to_max_product`], never by flattening itself).
    Max,
    /// Log-sum-exp: `ln(e^a + e^b)` — the sum-node contribution of
    /// log-domain programs (produced by [`OpList::to_log_domain`], never by
    /// flattening itself).
    LogAdd,
    /// Threshold comparison: `1.0` when `a < b`, else `0.0` — the core
    /// operation of a Knuth-Yao-style discrete sampler PE (a uniform draw
    /// compared against a CDF threshold).  Non-commutative.  Produced only
    /// by [`OpList::sampler_kernel`], never by flattening; sampler kernels
    /// are diagnostic programs exercising the processor's sampler datapath.
    Sam,
}

impl OpKind {
    /// Applies this operation to `L` independent lanes:
    /// `dst[l] = a[l] op b[l]`.
    ///
    /// This is the definition of the five operations for every executor in
    /// the workspace's software backends; callers round `dst` through the
    /// program's [`Quantizer`] before storing it.  `L` is a compile-time
    /// constant, so each arm is a fixed-trip loop the autovectorizer turns
    /// into SIMD; log-domain sums go through [`log_sum_exp_lanes`].
    // Always inlined: out of line, the call costs as much as a one-lane op.
    #[inline(always)]
    pub(crate) fn apply_lanes<const L: usize>(
        self,
        a: &[f64; L],
        b: &[f64; L],
        dst: &mut [f64; L],
    ) {
        match self {
            OpKind::Add => {
                for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                    *d = x + y;
                }
            }
            OpKind::Mul => {
                for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                    *d = x * y;
                }
            }
            OpKind::Max => {
                for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                    *d = x.max(y);
                }
            }
            OpKind::LogAdd => log_sum_exp_lanes(a, b, dst),
            OpKind::Sam => {
                for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                    *d = f64::from(u8::from(x < y));
                }
            }
        }
    }

    /// [`OpKind::apply_lanes`] for one lane: `a op b`.
    #[inline]
    pub(crate) fn apply(self, a: f64, b: f64) -> f64 {
        let mut dst = [0.0];
        self.apply_lanes::<1>(&[a], &[b], &mut dst);
        dst[0]
    }
}

/// One binary operation of an [`OpList`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Op {
    /// The arithmetic operation.
    pub kind: OpKind,
    /// Left operand.
    pub lhs: OperandRef,
    /// Right operand.
    pub rhs: OperandRef,
}

/// Combines `terms` pairwise into a balanced reduction tree.
///
/// A balanced tree keeps the dependency depth logarithmic in the arity, which
/// both exposes more parallelism to the baseline platforms and maps naturally
/// onto the processor's PE trees.
fn reduce_balanced(
    ops: &mut Vec<Op>,
    kind: OpKind,
    mut terms: Vec<OperandRef>,
    push_op: &impl Fn(&mut Vec<Op>, OpKind, OperandRef, OperandRef) -> OperandRef,
) -> OperandRef {
    assert!(!terms.is_empty(), "cannot reduce zero terms");
    while terms.len() > 1 {
        let mut next = Vec::with_capacity(terms.len().div_ceil(2));
        for pair in terms.chunks(2) {
            if pair.len() == 2 {
                next.push(push_op(ops, kind, pair[0], pair[1]));
            } else {
                next.push(pair[0]);
            }
        }
        terms = next;
    }
    terms[0]
}

/// Algorithm 1: the SPN as a list of binary scalar operations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpList {
    inputs: Vec<LeafSource>,
    ops: Vec<Op>,
    output: OperandRef,
    num_vars: usize,
    /// The numeric domain the program computes in (see
    /// [`OpList::to_log_domain`]).
    mode: NumericMode,
    /// The emulated arithmetic format (see [`OpList::with_precision`]).
    precision: Precision,
}

impl OpList {
    /// Flattens `spn`, binarising n-ary nodes and materialising sum weights as
    /// parameter inputs.
    pub fn from_spn(spn: &Spn) -> OpList {
        let mut inputs: Vec<LeafSource> = Vec::new();
        let mut ops: Vec<Op> = Vec::new();
        // Value reference for every SPN node (arena indexed).
        let mut refs: Vec<Option<OperandRef>> = vec![None; spn.num_nodes()];

        let push_input = |inputs: &mut Vec<LeafSource>, source: LeafSource| -> OperandRef {
            let idx = inputs.len() as u32;
            inputs.push(source);
            OperandRef::Input(idx)
        };
        let push_op =
            |ops: &mut Vec<Op>, kind: OpKind, lhs: OperandRef, rhs: OperandRef| -> OperandRef {
                let idx = ops.len() as u32;
                ops.push(Op { kind, lhs, rhs });
                OperandRef::Op(idx)
            };

        for id in spn.topological_order() {
            let value_ref = match spn.node(id) {
                Node::Indicator { var, value } => push_input(
                    &mut inputs,
                    LeafSource::Indicator {
                        var: *var,
                        value: *value,
                    },
                ),
                Node::Constant(c) => push_input(&mut inputs, LeafSource::Param(*c)),
                Node::Product { children } => {
                    let terms: Vec<OperandRef> = children
                        .iter()
                        .map(|c| refs[c.index()].expect("child flattened before parent"))
                        .collect();
                    reduce_balanced(&mut ops, OpKind::Mul, terms, &push_op)
                }
                Node::Sum { children, weights } => {
                    let mut terms: Vec<OperandRef> = Vec::with_capacity(children.len());
                    for (c, &w) in children.iter().zip(weights) {
                        let child_ref = refs[c.index()].expect("child flattened before parent");
                        let param = push_input(&mut inputs, LeafSource::Param(w));
                        terms.push(push_op(&mut ops, OpKind::Mul, param, child_ref));
                    }
                    reduce_balanced(&mut ops, OpKind::Add, terms, &push_op)
                }
            };
            refs[id.index()] = Some(value_ref);
        }

        let output = refs[spn.root().index()].expect("root flattened");
        OpList {
            inputs,
            ops,
            output,
            num_vars: spn.num_vars(),
            mode: NumericMode::Linear,
            precision: Precision::F64,
        }
    }

    /// A diagnostic sampler kernel exercising the sampler comparator op.
    ///
    /// For each `(u, t)` pair in `draws` the kernel emits `u < t` via
    /// [`OpKind::Sam`] — a uniform draw compared against a CDF threshold,
    /// the core comparison of a Knuth-Yao-style discrete sampler — and sums
    /// the acceptance indicators into a single acceptance count.  All
    /// inputs are baked parameters, so the kernel needs no evidence
    /// (`num_vars == 0`) and is fully deterministic: the golden-trace form
    /// of the processor's sampling datapath.
    ///
    /// # Panics
    ///
    /// Panics when `draws` is empty.
    pub fn sampler_kernel(draws: &[(f64, f64)]) -> OpList {
        assert!(!draws.is_empty(), "sampler kernel needs at least one draw");
        let mut inputs: Vec<LeafSource> = Vec::with_capacity(draws.len() * 2);
        let mut ops: Vec<Op> = Vec::new();
        let mut terms: Vec<OperandRef> = Vec::with_capacity(draws.len());
        for &(u, t) in draws {
            let ui = inputs.len() as u32;
            inputs.push(LeafSource::Param(u));
            let ti = inputs.len() as u32;
            inputs.push(LeafSource::Param(t));
            ops.push(Op {
                kind: OpKind::Sam,
                lhs: OperandRef::Input(ui),
                rhs: OperandRef::Input(ti),
            });
            terms.push(OperandRef::Op((ops.len() - 1) as u32));
        }
        let push_op =
            |ops: &mut Vec<Op>, kind: OpKind, lhs: OperandRef, rhs: OperandRef| -> OperandRef {
                let idx = ops.len() as u32;
                ops.push(Op { kind, lhs, rhs });
                OperandRef::Op(idx)
            };
        let output = reduce_balanced(&mut ops, OpKind::Add, terms, &push_op);
        OpList {
            inputs,
            ops,
            output,
            num_vars: 0,
            mode: NumericMode::Linear,
            precision: Precision::F64,
        }
    }

    /// The numeric domain this program computes in.
    pub fn mode(&self) -> NumericMode {
        self.mode
    }

    /// The emulated arithmetic format this program computes in.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// This program stamped with an emulated PE arithmetic format.
    ///
    /// The structure is unchanged; every [`LeafSource::Param`] is quantized
    /// to `precision` (the data memory of a reduced-precision processor
    /// holds reduced-precision words), and the execution kernels —
    /// [`crate::vectorized`]'s executors (CPU and GPU models) and the
    /// processor simulator's PE trees — quantize every intermediate result.
    /// [`Precision::F64`] programs execute bit-for-bit like programs that
    /// were never stamped.
    ///
    /// Composes with both numeric modes: quantizing a log-domain program
    /// emulates a log-encoded reduced-precision datapath (absolute error on
    /// log values instead of relative error on probabilities).
    pub fn with_precision(&self, precision: Precision) -> OpList {
        let quantizer = Quantizer::new(precision);
        OpList {
            inputs: self
                .inputs
                .iter()
                .map(|leaf| match *leaf {
                    LeafSource::Param(p) => LeafSource::Param(quantizer.round(p)),
                    other => other,
                })
                .collect(),
            ops: self.ops.clone(),
            output: self.output,
            num_vars: self.num_vars,
            mode: self.mode,
            precision,
        }
    }

    /// The log-domain twin of this program: identical structure, but sums
    /// become log-sum-exp ([`OpKind::LogAdd`]), products become additions,
    /// maximisations stay maximisations (the logarithm is monotone), and
    /// every [`LeafSource::Param`] is stored as its natural log.  Indicator
    /// inputs are filled with log values (`0.0` / `-inf`) by the evaluation
    /// and [`crate::InputRecipe`] paths, keyed on [`OpList::mode`].
    ///
    /// Evaluating the result yields the *natural log* of what the linear
    /// program computes — finite even where the linear value underflows to
    /// `0.0`.  Converting a max-product program yields its max-sum twin.
    /// Converting a program already in the log domain is the identity.
    pub fn to_log_domain(&self) -> OpList {
        if self.mode == NumericMode::Log {
            return self.clone();
        }
        let quantizer = Quantizer::new(self.precision);
        OpList {
            inputs: self
                .inputs
                .iter()
                .map(|leaf| match *leaf {
                    // `max(0.0)` mirrors the reference evaluator's clamping of
                    // degenerate constants; ln(0) = -inf represents prob zero.
                    // The ln value is re-quantized: the log-domain data memory
                    // holds reduced-precision words too.
                    LeafSource::Param(p) => LeafSource::Param(quantizer.round(p.max(0.0).ln())),
                    other => other,
                })
                .collect(),
            ops: self
                .ops
                .iter()
                .map(|op| Op {
                    kind: match op.kind {
                        OpKind::Add => OpKind::LogAdd,
                        OpKind::Mul => OpKind::Add,
                        OpKind::Max => OpKind::Max,
                        // The logarithm is monotone, so the comparison is
                        // unchanged.  Sampler kernels are diagnostic (their
                        // inputs are uniforms and thresholds, not
                        // probabilities), so the 0/1 outputs stay 0/1.
                        OpKind::Sam => OpKind::Sam,
                        OpKind::LogAdd => unreachable!("linear programs have no LogAdd ops"),
                    },
                    ..*op
                })
                .collect(),
            output: self.output,
            num_vars: self.num_vars,
            mode: NumericMode::Log,
            precision: self.precision,
        }
    }

    /// This program converted to `mode` (a clone when already there).
    pub fn with_mode(&self, mode: NumericMode) -> OpList {
        match mode {
            NumericMode::Linear => {
                assert!(
                    self.mode == NumericMode::Linear,
                    "log-domain programs cannot be converted back to linear"
                );
                self.clone()
            }
            NumericMode::Log => self.to_log_domain(),
        }
    }

    /// A program from its parts, unchecked: test programs with shapes
    /// flattening never emits (dead results, one operand read twice).
    #[cfg(test)]
    pub(crate) fn from_parts(
        inputs: Vec<LeafSource>,
        ops: Vec<Op>,
        output: OperandRef,
        num_vars: usize,
        mode: NumericMode,
    ) -> OpList {
        OpList {
            inputs,
            ops,
            output,
            num_vars,
            mode,
            precision: Precision::F64,
        }
    }

    /// The input slot descriptors (indicators and parameters).
    pub fn inputs(&self) -> &[LeafSource] {
        &self.inputs
    }

    /// The operations in execution order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The reference producing the program's output value.
    pub fn output(&self) -> OperandRef {
        self.output
    }

    /// Number of input slots.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of binary operations.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of SPN variables the program was flattened from.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Materialises the input vector for the given evidence: a one-off
    /// [`InputRecipe`](crate::InputRecipe) fill.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SpnError::EvidenceMismatch`] when the evidence covers a
    /// different number of variables.
    pub fn input_values(&self, evidence: &Evidence) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.input_recipe().fill_evidence(evidence, &mut out)?;
        Ok(out)
    }

    /// The reference interpreter: executes the program on a pre-materialised
    /// input vector, one operation at a time, writing intermediate results
    /// into `results`, and returns the output value.
    ///
    /// This loop is deliberately independent of `OpKind::apply_lanes` and
    /// [`crate::vectorized`]'s executors: it spells the five operations out
    /// itself, so the parity matrix (`tests/parity/mod.rs`) has an oracle
    /// that does not share the executor's code, and every backend must
    /// return its bits.  Nothing outside tests calls it; to run a program,
    /// use [`OpList::evaluate`] or a [`crate::vectorized::LaneProgram`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is shorter than [`OpList::num_inputs`] or `results`
    /// is shorter than [`OpList::num_ops`].
    pub fn run_into(&self, inputs: &[f64], results: &mut [f64]) -> f64 {
        assert!(inputs.len() >= self.inputs.len(), "input vector too short");
        assert!(results.len() >= self.ops.len(), "result buffer too short");
        let value = |r: OperandRef, results: &[f64]| -> f64 {
            match r {
                OperandRef::Input(i) => inputs[i as usize],
                OperandRef::Op(i) => results[i as usize],
            }
        };
        let quantizer = Quantizer::new(self.precision);
        for (i, op) in self.ops.iter().enumerate() {
            let a = value(op.lhs, results);
            let b = value(op.rhs, results);
            results[i] = quantizer.round(match op.kind {
                OpKind::Add => a + b,
                OpKind::Mul => a * b,
                OpKind::Max => a.max(b),
                OpKind::LogAdd => log_sum_exp(a, b),
                OpKind::Sam => f64::from(u8::from(a < b)),
            });
        }
        value(self.output, results)
    }

    /// Evaluates the flattened program under `evidence`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SpnError::EvidenceMismatch`] when the evidence covers a
    /// different number of variables.
    pub fn evaluate(&self, evidence: &Evidence) -> Result<f64> {
        let inputs = self.input_values(evidence)?;
        let mut results = vec![0.0; self.ops.len()];
        let mut out = [0.0];
        crate::vectorized::run_lanes::<1>(self, &inputs, &mut results, &mut out);
        Ok(out[0])
    }

    /// The max-product variant of this program: every sum contribution
    /// ([`OpKind::Add`] in the linear domain, [`OpKind::LogAdd`] in the log
    /// domain) is replaced by [`OpKind::Max`]; inputs and structure stay
    /// identical, and the numeric mode is inherited (a log-domain program
    /// yields its *max-sum* twin, whose value is the log of the max-product
    /// value).
    ///
    /// Evaluating the result computes the circuit's MPE (most probable
    /// explanation) value instead of the marginal sum; the maximising
    /// assignment is recovered by
    /// [`MaxProductProgram::trace_assignment`](crate::query::MaxProductProgram::trace_assignment).
    /// Because the input slots are unchanged, an [`crate::InputRecipe`] built
    /// from either variant fills both.
    pub fn to_max_product(&self) -> OpList {
        let sum_kind = match self.mode {
            NumericMode::Linear => OpKind::Add,
            NumericMode::Log => OpKind::LogAdd,
        };
        OpList {
            inputs: self.inputs.clone(),
            ops: self
                .ops
                .iter()
                .map(|op| Op {
                    kind: if op.kind == sum_kind {
                        OpKind::Max
                    } else {
                        op.kind
                    },
                    ..*op
                })
                .collect(),
            output: self.output,
            num_vars: self.num_vars,
            mode: self.mode,
            precision: self.precision,
        }
    }

    /// Splits this program into `parts` contiguous stages for pipelined
    /// multi-core execution.
    ///
    /// Each stage is a standalone [`OpList`] over its own input slots:
    /// original inputs it touches become [`PartInput::Global`] slots (same
    /// [`LeafSource`], so evidence fills them identically), and results
    /// produced by an earlier stage become [`LeafSource::External`] slots
    /// tagged [`PartInput::Link`].  A stage's [`OpListPart::exports`] lists
    /// the local ops whose results later stages consume — the values a core
    /// must push over the interconnect.
    ///
    /// Because the op list is in dependency order, contiguous chunks always
    /// yield a feed-forward pipeline (links only point to earlier stages),
    /// and chaining the stages — binding each `Link` slot to the producer's
    /// exported result — reproduces the unpartitioned program bit-for-bit,
    /// intermediate quantization included (each stage inherits the mode and
    /// precision stamps).
    ///
    /// `parts` is clamped to `1..=num_ops` (a program cannot be cut finer
    /// than one op per stage); chunk sizes differ by at most one op.
    pub fn partition(&self, parts: usize) -> Vec<OpListPart> {
        use std::collections::HashMap;

        let parts = parts.clamp(1, self.ops.len().max(1));
        let base = self.ops.len() / parts;
        let rem = self.ops.len() % parts;
        // bounds[j]..bounds[j+1] is stage j's slice of the op list.
        let mut bounds = Vec::with_capacity(parts + 1);
        bounds.push(0usize);
        for j in 0..parts {
            bounds.push(bounds[j] + base + usize::from(j < rem));
        }
        let owner = |k: usize| -> usize { bounds.partition_point(|&b| b <= k) - 1 };

        let mut result: Vec<OpListPart> = Vec::with_capacity(parts);
        for j in 0..parts {
            let (lo, hi) = (bounds[j], bounds[j + 1]);
            let mut chunk_inputs: Vec<LeafSource> = Vec::new();
            let mut chunk_sources: Vec<PartInput> = Vec::new();
            let mut chunk_ops: Vec<Op> = Vec::with_capacity(hi - lo);
            let chunk_output;
            {
                let mut global_map: HashMap<u32, u32> = HashMap::new();
                let mut link_map: HashMap<(u32, u32), u32> = HashMap::new();
                let mut resolve = |r: OperandRef| -> OperandRef {
                    match r {
                        OperandRef::Input(i) => {
                            let slot = *global_map.entry(i).or_insert_with(|| {
                                chunk_inputs.push(self.inputs[i as usize]);
                                chunk_sources.push(PartInput::Global(i));
                                (chunk_inputs.len() - 1) as u32
                            });
                            OperandRef::Input(slot)
                        }
                        OperandRef::Op(k) if (k as usize) >= lo => OperandRef::Op(k - lo as u32),
                        OperandRef::Op(k) => {
                            // Produced by an earlier stage: register it as an
                            // export there (first consumer wins the slot) and
                            // import it through an External input here.
                            let p = owner(k as usize);
                            let local = (k as usize - bounds[p]) as u32;
                            let exports = &mut result[p].exports;
                            let export = match exports.iter().position(|&e| e == local) {
                                Some(e) => e as u32,
                                None => {
                                    exports.push(local);
                                    (exports.len() - 1) as u32
                                }
                            };
                            let slot = *link_map.entry((p as u32, export)).or_insert_with(|| {
                                chunk_inputs.push(LeafSource::External);
                                chunk_sources.push(PartInput::Link {
                                    part: p as u32,
                                    export,
                                });
                                (chunk_inputs.len() - 1) as u32
                            });
                            OperandRef::Input(slot)
                        }
                    }
                };
                for op in &self.ops[lo..hi] {
                    let lhs = resolve(op.lhs);
                    let rhs = resolve(op.rhs);
                    chunk_ops.push(Op {
                        kind: op.kind,
                        lhs,
                        rhs,
                    });
                }
                // The last stage computes the program output; earlier stages
                // nominate their final op (their value lives in `exports`).
                chunk_output = if j + 1 == parts {
                    resolve(self.output)
                } else {
                    OperandRef::Op((hi - lo - 1) as u32)
                };
            }
            result.push(OpListPart {
                ops: OpList {
                    inputs: chunk_inputs,
                    ops: chunk_ops,
                    output: chunk_output,
                    num_vars: self.num_vars,
                    mode: self.mode,
                    precision: self.precision,
                },
                inputs: chunk_sources,
                exports: Vec::new(),
            });
        }
        result
    }
}

/// The source feeding one input slot of an [`OpListPart`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PartInput {
    /// Input slot `i` of the original (unpartitioned) program: filled from
    /// evidence or baked parameters exactly like the original slot.
    Global(u32),
    /// Export `export` of earlier partition `part`: the value crosses the
    /// inter-core interconnect at run time.
    Link {
        /// Index of the producing partition.
        part: u32,
        /// Index into the producer's [`OpListPart::exports`].
        export: u32,
    },
}

/// One stage of a partitioned [`OpList`] (see [`OpList::partition`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpListPart {
    /// The stage as a standalone program; imported values appear as
    /// [`LeafSource::External`] input slots.
    pub ops: OpList,
    /// Where each input slot of `ops` comes from, in slot order (parallel to
    /// `ops.inputs()`).
    pub inputs: Vec<PartInput>,
    /// Local op indices whose results later stages consume, in first-use
    /// order; entry `e` is what a [`PartInput::Link`] with `export == e`
    /// refers to.
    pub exports: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{random_spn, RandomSpnConfig};
    use crate::SpnBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn mixture() -> Spn {
        let mut b = SpnBuilder::new(2);
        let x0 = b.indicator(VarId(0), true);
        let nx0 = b.indicator(VarId(0), false);
        let x1 = b.indicator(VarId(1), true);
        let nx1 = b.indicator(VarId(1), false);
        let p0 = b.product(vec![x0, x1]).unwrap();
        let p1 = b.product(vec![nx0, nx1]).unwrap();
        let p2 = b.product(vec![x0, nx1]).unwrap();
        let root = b.sum(vec![(p0, 0.3), (p1, 0.5), (p2, 0.2)]).unwrap();
        b.finish(root).unwrap()
    }

    #[test]
    fn oplist_matches_reference_evaluation() {
        let spn = mixture();
        let ops = OpList::from_spn(&spn);
        for assignment in [[true, true], [true, false], [false, true], [false, false]] {
            let e = Evidence::from_assignment(&assignment);
            let expected = spn.evaluate(&e).unwrap();
            assert!((ops.evaluate(&e).unwrap() - expected).abs() < 1e-12);
        }
        let e = Evidence::marginal(2);
        assert!((ops.evaluate(&e).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn operand_indices_respect_dependency_order() {
        let spn = mixture();
        let ops = OpList::from_spn(&spn);
        for (i, op) in ops.ops().iter().enumerate() {
            for operand in [op.lhs, op.rhs] {
                if let OperandRef::Op(j) = operand {
                    assert!((j as usize) < i, "op {i} reads the later result {j}");
                }
            }
        }
    }

    #[test]
    fn apply_agrees_with_the_reference_interpreter_on_every_op_kind() {
        let operands = [0.0, -0.0, 0.3, 0.7, 1.0, -1.5, 1e-39, f64::NEG_INFINITY];
        let kinds = [
            OpKind::Add,
            OpKind::Mul,
            OpKind::Max,
            OpKind::LogAdd,
            OpKind::Sam,
        ];
        for precision in Precision::SWEEP {
            let quantizer = Quantizer::new(precision);
            for kind in kinds {
                for &a in &operands {
                    for &b in &operands {
                        let program = OpList {
                            inputs: vec![LeafSource::Param(a), LeafSource::Param(b)],
                            ops: vec![Op {
                                kind,
                                lhs: OperandRef::Input(0),
                                rhs: OperandRef::Input(1),
                            }],
                            output: OperandRef::Op(0),
                            num_vars: 0,
                            mode: NumericMode::Linear,
                            precision,
                        };
                        let want = program.run_into(&[a, b], &mut [0.0]);
                        let got = quantizer.round(kind.apply(a, b));
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{kind:?}({a}, {b}) at {precision}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn binarization_counts_are_as_expected() {
        // A 3-way sum over products of 2: each sum term costs one weight mul,
        // plus 2 adds; each product costs 1 mul => 3 + 2 + 3 = 8 ops.
        let spn = mixture();
        let ops = OpList::from_spn(&spn);
        assert_eq!(ops.num_ops(), 8);
        // Inputs: 4 indicators (deduplicated per node, reused by DAG edges) + 3 weights.
        assert_eq!(ops.num_inputs(), 7);
    }

    #[test]
    fn leaf_root_spn_flattens_to_zero_ops() {
        let mut b = SpnBuilder::new(1);
        let x = b.indicator(VarId(0), true);
        let spn = b.finish(x).unwrap();
        let ops = OpList::from_spn(&spn);
        assert_eq!(ops.num_ops(), 0);
        let e = Evidence::from_assignment(&[true]);
        assert_eq!(ops.evaluate(&e).unwrap(), 1.0);
    }

    #[test]
    fn random_spns_flatten_consistently() {
        let mut rng = StdRng::seed_from_u64(7);
        for seed in 0..5u64 {
            let cfg = RandomSpnConfig {
                num_vars: 6,
                ..RandomSpnConfig::default()
            };
            let spn = random_spn(&cfg, &mut rng);
            let ops = OpList::from_spn(&spn);
            let e = Evidence::marginal(6);
            let reference = spn.evaluate(&e).unwrap();
            assert!(
                (ops.evaluate(&e).unwrap() - reference).abs() < 1e-9,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn log_domain_matches_linear_where_linear_is_finite() {
        let mut rng = StdRng::seed_from_u64(9);
        for seed in 0..4u64 {
            let spn = random_spn(&RandomSpnConfig::with_vars(7), &mut rng);
            let ops = OpList::from_spn(&spn);
            let log_ops = ops.to_log_domain();
            assert_eq!(log_ops.mode(), NumericMode::Log);
            assert_eq!(log_ops.num_ops(), ops.num_ops());
            assert!(log_ops.ops().iter().all(|op| op.kind != OpKind::Mul));
            for case in 0..3 {
                let mut e = Evidence::marginal(7);
                if case > 0 {
                    e.observe(case, case % 2 == 0);
                }
                let linear = ops.evaluate(&e).unwrap();
                let log = log_ops.evaluate(&e).unwrap();
                assert!(
                    (log.exp() - linear).abs() < 1e-9,
                    "seed {seed} case {case}: exp({log}) vs {linear}"
                );
            }
        }
    }

    #[test]
    fn log_domain_conversion_is_idempotent_and_tracks_max_product() {
        let spn = mixture();
        let ops = OpList::from_spn(&spn);
        let log_ops = ops.to_log_domain();
        assert_eq!(log_ops.to_log_domain(), log_ops);
        assert_eq!(ops.with_mode(NumericMode::Linear), ops);
        assert_eq!(ops.with_mode(NumericMode::Log), log_ops);

        // Max-sum (log of max-product): converting commutes with the
        // max-product rewrite.
        let max_then_log = ops.to_max_product().to_log_domain();
        let log_then_max = log_ops.to_max_product();
        assert_eq!(max_then_log, log_then_max);
        let e = Evidence::from_assignment(&[true, false]);
        let max_linear = ops.to_max_product().evaluate(&e).unwrap();
        let max_log = log_then_max.evaluate(&e).unwrap();
        assert!((max_log.exp() - max_linear).abs() < 1e-12);
    }

    #[test]
    fn precision_stamp_quantizes_params_and_every_intermediate() {
        use crate::precision::{round_to, Precision};
        let spn = mixture();
        let ops = OpList::from_spn(&spn);
        assert_eq!(ops.precision(), Precision::F64);

        let p = Precision::E8M10;
        let quantized = ops.with_precision(p);
        assert_eq!(quantized.precision(), p);
        assert_eq!(quantized.num_ops(), ops.num_ops());
        // Every baked-in parameter is representable in the target format.
        for leaf in quantized.inputs() {
            if let LeafSource::Param(w) = leaf {
                assert_eq!(round_to(p, *w).to_bits(), w.to_bits());
            }
        }
        // F64 stamping is the identity: bit-for-bit the unstamped program.
        let identity = ops.with_precision(Precision::F64);
        let e = Evidence::from_assignment(&[true, false]);
        assert_eq!(
            identity.evaluate(&e).unwrap().to_bits(),
            ops.evaluate(&e).unwrap().to_bits()
        );
        // The quantized result is itself representable (idempotent kernel)
        // and close to the exact value.
        let exact = ops.evaluate(&e).unwrap();
        let q = quantized.evaluate(&e).unwrap();
        assert_eq!(round_to(p, q).to_bits(), q.to_bits());
        assert!((q - exact).abs() <= 0.01 * exact.abs(), "{q} vs {exact}");

        // Precision survives the mode and max-product rewrites; log-domain
        // parameters are quantized ln values.
        let log_q = quantized.to_log_domain();
        assert_eq!(log_q.precision(), p);
        assert_eq!(log_q.to_max_product().precision(), p);
        for leaf in log_q.inputs() {
            if let LeafSource::Param(w) = leaf {
                assert_eq!(round_to(p, *w).to_bits(), w.to_bits());
            }
        }
        let log_value = log_q.evaluate(&e).unwrap();
        assert!((log_value.exp() - exact).abs() <= 0.01 * exact.abs());
    }

    #[test]
    fn sampler_kernel_counts_acceptances() {
        // Draws strictly below their threshold accept; ties and larger
        // draws reject (the comparator is strict).
        let draws = [(0.1, 0.5), (0.7, 0.5), (0.5, 0.5), (0.2, 0.9)];
        let ops = OpList::sampler_kernel(&draws);
        assert_eq!(ops.num_vars(), 0);
        assert_eq!(ops.mode(), NumericMode::Linear);
        let e = Evidence::marginal(0);
        assert_eq!(ops.evaluate(&e).unwrap(), 2.0);
        // The comparator survives the log-domain rewrite unchanged (ln is
        // monotone; the kernel is diagnostic, so 0/1 outputs stay 0/1) —
        // but the acceptance *sum* becomes a log-sum-exp, so only the
        // per-draw comparisons are preserved, not the count.
        let log_ops = ops.to_log_domain();
        assert!(log_ops.ops().iter().any(|op| op.kind == OpKind::Sam));
    }

    #[test]
    fn evidence_mismatch_is_rejected() {
        let spn = mixture();
        let ops = OpList::from_spn(&spn);
        assert!(ops.evaluate(&Evidence::marginal(5)).is_err());
    }

    /// Evaluates partitioned stages in order, binding `Link` slots to the
    /// producers' exported results — the software model of the inter-core
    /// transfers the multi-core simulator performs.
    fn run_partitioned(ops: &OpList, stages: &[OpListPart], evidence: &Evidence) -> f64 {
        let global = ops.input_values(evidence).unwrap();
        let mut exported: Vec<Vec<f64>> = Vec::with_capacity(stages.len());
        let mut value = f64::NAN;
        for stage in stages {
            let local: Vec<f64> = stage
                .inputs
                .iter()
                .map(|src| match *src {
                    PartInput::Global(i) => global[i as usize],
                    PartInput::Link { part, export } => exported[part as usize][export as usize],
                })
                .collect();
            let mut results = vec![0.0; stage.ops.num_ops()];
            value = stage.ops.run_into(&local, &mut results);
            exported.push(
                stage
                    .exports
                    .iter()
                    .map(|&op| results[op as usize])
                    .collect(),
            );
        }
        value
    }

    #[test]
    fn partitioned_stages_reproduce_the_program_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(11);
        let spn = random_spn(&RandomSpnConfig::default(), &mut rng);
        let base = OpList::from_spn(&spn);
        for ops in [
            base.clone(),
            base.to_log_domain(),
            base.with_precision(Precision::custom(8, 10).unwrap()),
            base.to_max_product(),
        ] {
            for parts in [1, 2, 3, 7] {
                let stages = ops.partition(parts);
                assert_eq!(stages.len(), parts.min(ops.num_ops().max(1)));
                // Ops are conserved and links only point backwards.
                assert_eq!(
                    stages.iter().map(|s| s.ops.num_ops()).sum::<usize>(),
                    ops.num_ops()
                );
                for (j, stage) in stages.iter().enumerate() {
                    assert_eq!(stage.inputs.len(), stage.ops.num_inputs());
                    for src in &stage.inputs {
                        if let PartInput::Link { part, .. } = src {
                            assert!((*part as usize) < j, "links must point to earlier stages");
                        }
                    }
                    if j + 1 < stages.len() {
                        assert!(!stage.exports.is_empty(), "interior stage exports nothing");
                    }
                }
                for seed in 0..4u64 {
                    let mut erng = StdRng::seed_from_u64(seed);
                    let e = Evidence::from_options(
                        (0..spn.num_vars())
                            .map(|_| erng.gen_bool(0.6).then(|| erng.gen_bool(0.5)))
                            .collect(),
                    );
                    let expected = ops.evaluate(&e).unwrap();
                    let actual = run_partitioned(&ops, &stages, &e);
                    assert_eq!(
                        actual.to_bits(),
                        expected.to_bits(),
                        "parts={parts} seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn partition_clamps_to_one_op_per_stage() {
        let spn = mixture();
        let ops = OpList::from_spn(&spn);
        let stages = ops.partition(1000);
        assert_eq!(stages.len(), ops.num_ops());
        assert!(stages.iter().all(|s| s.ops.num_ops() == 1));
        let e = Evidence::marginal(2);
        let expected = ops.evaluate(&e).unwrap();
        assert_eq!(
            run_partitioned(&ops, &stages, &e).to_bits(),
            expected.to_bits()
        );
    }

    #[test]
    fn partitioning_a_zero_op_program_yields_one_global_stage() {
        let mut b = SpnBuilder::new(1);
        let x = b.indicator(VarId(0), true);
        let spn = b.finish(x).unwrap();
        let ops = OpList::from_spn(&spn);
        let stages = ops.partition(3);
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].inputs, vec![PartInput::Global(0)]);
        let e = Evidence::from_assignment(&[true]);
        assert_eq!(
            run_partitioned(&ops, &stages, &e).to_bits(),
            ops.evaluate(&e).unwrap().to_bits()
        );
    }

    #[test]
    fn external_slots_fill_as_nan_placeholders() {
        let spn = mixture();
        let stages = OpList::from_spn(&spn).partition(2);
        let last = &stages[1];
        assert!(last
            .ops
            .inputs()
            .iter()
            .any(|l| matches!(l, LeafSource::External)));
        let filled = last.ops.input_values(&Evidence::marginal(2)).unwrap();
        for (slot, leaf) in last.ops.inputs().iter().enumerate() {
            assert_eq!(
                matches!(leaf, LeafSource::External),
                filled[slot].is_nan(),
                "slot {slot}"
            );
        }
    }
}
