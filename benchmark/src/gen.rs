//! Seeded inputs.  `--seed` decides evidence rows, the request mix order,
//! flip walks and sampling seeds — never a circuit, which the workload
//! definition fixes — and the program under test only ever sees what is
//! generated here.  The same seed gives byte-identical inputs.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use spn_core::wire::{format_evidence, QueryRequest};
use spn_core::{
    ConditionalBatch, Evidence, EvidenceBatch, QueryMode, SampleMethod, SampleSpec, SpnError,
};

/// One evidence flip: variable and its new observation (`None` forgets it).
pub type Flip = (usize, Option<bool>);

/// Independent generator for one purpose of one run, so adding a consumer
/// never shifts the inputs of another.
pub fn rng(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ purpose)
}

fn observation(rng: &mut StdRng, complete: bool) -> Option<bool> {
    // Partial rows leave a third of the variables to be summed out.
    if complete || rng.gen_range(0..3usize) > 0 {
        Some(rng.gen_bool(0.5))
    } else {
        None
    }
}

/// One row: every variable observed (`complete`, what joint queries need)
/// or two thirds of them.
pub fn evidence(rng: &mut StdRng, num_vars: usize, complete: bool) -> Evidence {
    Evidence::from_options((0..num_vars).map(|_| observation(rng, complete)).collect())
}

pub fn evidence_batch(
    rng: &mut StdRng,
    num_vars: usize,
    rows: usize,
    complete: bool,
) -> EvidenceBatch {
    let mut batch = EvidenceBatch::with_capacity(num_vars, rows);
    for _ in 0..rows {
        batch
            .push(&evidence(rng, num_vars, complete))
            .expect("generated rows have the batch's arity");
    }
    batch
}

/// A `(target, given)` pair observing one variable each, so the
/// conditioning evidence keeps a comfortable probability on every circuit.
fn conditional_pair(rng: &mut StdRng, num_vars: usize) -> (Evidence, Evidence) {
    let target_var = rng.gen_range(0..num_vars);
    let given_var = (target_var + 1 + rng.gen_range(0..num_vars - 1)) % num_vars;
    let mut target = Evidence::marginal(num_vars);
    target.observe(target_var, rng.gen_bool(0.5));
    let mut given = Evidence::marginal(num_vars);
    given.observe(given_var, rng.gen_bool(0.5));
    (target, given)
}

pub fn conditional_batch(rng: &mut StdRng, num_vars: usize, rows: usize) -> ConditionalBatch {
    let mut batch = ConditionalBatch::new(num_vars);
    for _ in 0..rows {
        let (target, given) = conditional_pair(rng, num_vars);
        batch
            .push(&target, &given)
            .expect("generated rows have the batch's arity");
    }
    batch
}

/// A walk of `len` deltas over `num_vars` variables.  Step `i < num_vars`
/// touches variable `i`, so after one lap every variable's observation is
/// set by the walk itself and every later lap repeats the same states — a
/// lap's values can be checked against one from-scratch evaluation each.
/// Of the later steps exactly a `dense_share` (rounded) flip every variable
/// (the full-pass fallback) and the rest flip one (the cone path), every
/// variable equally often: the seed decides the order and the observations,
/// never how much work a walk is, so runs with different seeds compare.
pub fn flip_walk(
    rng: &mut StdRng,
    num_vars: usize,
    len: usize,
    dense_share: f64,
) -> Vec<Vec<Flip>> {
    let later = len.saturating_sub(num_vars);
    let dense = (later as f64 * dense_share).round() as usize;
    // `None` is a dense step, `Some(var)` a one-flip step.
    let mut kinds: Vec<Option<usize>> = (0..later)
        .map(|i| i.checked_sub(dense).map(|sparse| sparse % num_vars))
        .collect();
    kinds.shuffle(rng);
    (0..len)
        .map(|step| {
            let kind = if step < num_vars {
                Some(step)
            } else {
                kinds[step - num_vars]
            };
            match kind {
                Some(var) => vec![(var, observation(rng, false))],
                None => (0..num_vars)
                    .map(|var| (var, observation(rng, false)))
                    .collect(),
            }
        })
        .collect()
}

/// A model the one-shot request mix draws from.
pub struct MixModel<'a> {
    pub name: &'a str,
    pub num_vars: usize,
}

/// Mode and row-count slots of the one-shot mix, per model: marginal 40 % /
/// joint 20 % / conditional 20 % / MAP 10 % / `expectation` 10 %, and eight
/// rows instead of one on a quarter of each.
const MIX_MODES: [QueryMode; 10] = [
    QueryMode::Marginal,
    QueryMode::Marginal,
    QueryMode::Marginal,
    QueryMode::Marginal,
    QueryMode::Joint,
    QueryMode::Joint,
    QueryMode::Conditional,
    QueryMode::Conditional,
    QueryMode::Map,
    QueryMode::Expectation,
];
const MIX_ROWS: [usize; 4] = [1, 1, 1, 8];

/// Requests in one block of the mix over `models` models: every (model,
/// mode, row count) combination in exactly its declared share.
pub const fn mix_block(models: usize) -> usize {
    models * MIX_MODES.len() * MIX_ROWS.len()
}

/// The one-shot TCP request mix: models drawn evenly; modes marginal 40 % /
/// joint 20 % / conditional 20 % / MAP 10 % / ancestral `expectation`
/// (n = 64) 10 %; one row per request, eight on a quarter.  The shares are
/// exact over every [`mix_block`] requests (so over a `count` that is a
/// multiple of it) and the seed decides the order, the evidence and the
/// sampling seeds: every seed's mix costs the same.  Request `i` carries id
/// `i`.
///
/// # Errors
///
/// Never for the shapes generated here; the error is the wire builder's.
pub fn request_mix(
    rng: &mut StdRng,
    models: &[MixModel<'_>],
    count: usize,
) -> Result<Vec<QueryRequest>, SpnError> {
    let block = mix_block(models.len());
    let mut slots: Vec<usize> = (0..count).map(|i| i % block).collect();
    slots.shuffle(rng);
    slots
        .into_iter()
        .zip(0u64..)
        .map(|(slot, id)| {
            let model = &models[slot / (MIX_MODES.len() * MIX_ROWS.len())];
            let mode = MIX_MODES[slot / MIX_ROWS.len() % MIX_MODES.len()];
            let rows = MIX_ROWS[slot % MIX_ROWS.len()];
            let spec = SampleSpec {
                seed: rng.gen_range(0..1u64 << 32),
                n_samples: 64,
                method: SampleMethod::Ancestral,
            };
            let (targets, givens): (Vec<String>, Option<Vec<String>>) = match mode {
                QueryMode::Conditional => {
                    let pairs: Vec<_> = (0..rows)
                        .map(|_| conditional_pair(rng, model.num_vars))
                        .collect();
                    (
                        pairs.iter().map(|(t, _)| format_evidence(t)).collect(),
                        Some(pairs.iter().map(|(_, g)| format_evidence(g)).collect()),
                    )
                }
                _ => (
                    (0..rows)
                        .map(|_| {
                            format_evidence(&evidence(
                                rng,
                                model.num_vars,
                                mode == QueryMode::Joint,
                            ))
                        })
                        .collect(),
                    None,
                ),
            };
            let targets: Vec<&str> = targets.iter().map(String::as_str).collect();
            let givens: Option<Vec<&str>> = givens
                .as_ref()
                .map(|g| g.iter().map(String::as_str).collect());
            QueryRequest::from_rows_with_spec(
                id,
                model.name,
                mode,
                &targets,
                givens.as_deref(),
                spec,
            )
        })
        .collect()
}

/// The wire-v2 line of one session delta.
pub fn delta_line(id: u64, session: u64, flips: &[Flip]) -> String {
    let pairs: Vec<String> = flips
        .iter()
        .map(|&(var, obs)| {
            let c = match obs {
                Some(true) => '1',
                Some(false) => '0',
                None => '?',
            };
            format!("[{var},\"{c}\"]")
        })
        .collect();
    format!(
        "{{\"v\":2,\"type\":\"delta\",\"id\":{id},\"session\":{session},\"flips\":[{}]}}",
        pairs.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn_serve::tcp::encode_request;

    const MODELS: [MixModel<'static>; 2] = [
        MixModel {
            name: "banknote",
            num_vars: 4,
        },
        MixModel {
            name: "msnbc",
            num_vars: 17,
        },
    ];

    fn lines(seed: u64) -> Vec<String> {
        request_mix(&mut rng(seed, 1), &MODELS, 400)
            .unwrap()
            .iter()
            .map(encode_request)
            .collect()
    }

    #[test]
    fn the_same_seed_gives_byte_identical_inputs_and_another_seed_differs() {
        assert_eq!(lines(7), lines(7));
        assert_ne!(lines(7), lines(8));
        let batch = |seed| evidence_batch(&mut rng(seed, 2), 17, 64, false);
        assert_eq!(batch(7), batch(7));
        assert_ne!(batch(7), batch(8));
        let walk = |seed| flip_walk(&mut rng(seed, 3), 96, 512, 0.1);
        assert_eq!(walk(7), walk(7));
        assert_ne!(walk(7), walk(8));
        let cond = |seed| conditional_batch(&mut rng(seed, 4), 17, 32);
        assert_eq!(cond(7), cond(7));
        assert_ne!(cond(7), cond(8));
    }

    #[test]
    fn the_request_mix_has_exactly_the_declared_shape_under_every_seed() {
        for seed in [3, 4] {
            let requests = request_mix(&mut rng(seed, 1), &MODELS, 50 * mix_block(2)).unwrap();
            let count =
                |pred: &dyn Fn(&QueryRequest) -> bool| requests.iter().filter(|r| pred(r)).count();
            assert_eq!(requests.len(), 4000);
            assert_eq!(count(&|r| r.query.mode() == QueryMode::Marginal), 1600);
            assert_eq!(count(&|r| r.query.mode() == QueryMode::Joint), 800);
            assert_eq!(count(&|r| r.query.mode() == QueryMode::Conditional), 800);
            assert_eq!(count(&|r| r.query.mode() == QueryMode::Map), 400);
            assert_eq!(count(&|r| r.query.mode() == QueryMode::Expectation), 400);
            assert_eq!(count(&|r| r.query.len() == 8), 1000);
            assert_eq!(count(&|r| r.model == "msnbc"), 2000);
            // The shares hold jointly: the dearest combination too.
            assert_eq!(
                count(&|r| r.model == "msnbc"
                    && r.query.mode() == QueryMode::Expectation
                    && r.query.len() == 8),
                50
            );
            assert!(requests.iter().enumerate().all(|(i, r)| r.id == i as u64));
        }
    }

    #[test]
    fn a_flip_walk_touches_every_variable_in_its_first_lap() {
        for seed in [5, 6] {
            let walk = flip_walk(&mut rng(seed, 3), 12, 200, 0.25);
            for (var, step) in walk.iter().take(12).enumerate() {
                assert_eq!(step.len(), 1);
                assert_eq!(step[0].0, var);
            }
            // Exactly a quarter of the 188 later steps are dense, and the
            // one-flip steps spread evenly over the variables.
            assert_eq!(walk.iter().filter(|step| step.len() == 12).count(), 47);
            for var in 0..12 {
                let flips = walk.iter().filter(|s| s.len() == 1 && s[0].0 == var);
                assert!((12..=13).contains(&flips.count()));
            }
        }
        assert_eq!(
            delta_line(4, 1, &[(3, Some(true)), (0, None)]),
            r#"{"v":2,"type":"delta","id":4,"session":1,"flips":[[3,"1"],[0,"?"]]}"#
        );
    }
}
