//! Golden bits of the reference side: oracle values, MPE assignments and
//! sampler output on two fixed seeded SPNs, recorded at commit 34a676f (the
//! last one with a hand-written evaluator per algebra).
//!
//! The graph sweep is the oracle every backend is compared against, so
//! nothing else in the suite can notice it drifting: a change to how a
//! node's value follows from its children must reproduce these bits, not
//! merely stay within a tolerance of them.  On a mismatch the test prints
//! the full listing it computed.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spn_accel::core::random::{random_spn, RandomSpnConfig};
use spn_accel::core::{
    Evidence, EvidenceBatch, Node, SampleBatch, SampleMethod, SampleSpec, SamplerProgram, Spn,
};

/// A random SPN as generated.
fn skewed() -> Spn {
    random_spn(
        &RandomSpnConfig::with_vars(10),
        &mut StdRng::seed_from_u64(2020),
    )
}

/// A random SPN with every sum re-weighted uniformly: under marginal
/// evidence each leaf mixture `w·[x] + w·[¬x]` is an exact argmax tie, so
/// the MPE rows pin the first-child-wins rule.
fn tied() -> Spn {
    let mut spn = random_spn(
        &RandomSpnConfig::with_vars(7),
        &mut StdRng::seed_from_u64(77),
    );
    for id in spn.topological_order() {
        if let Node::Sum { weights, .. } = spn.node(id) {
            let n = weights.len();
            spn.set_sum_weights(id, vec![1.0 / n as f64; n]).unwrap();
        }
    }
    spn
}

/// All-marginal, two observed variables, and a fully observed (hard
/// evidence) row.
fn rows(num_vars: usize) -> Vec<Evidence> {
    let mut partial = Evidence::marginal(num_vars);
    partial.observe(1, true);
    partial.observe(num_vars - 2, false);
    let full: Vec<bool> = (0..num_vars).map(|v| v % 3 != 1).collect();
    vec![
        Evidence::marginal(num_vars),
        partial,
        Evidence::from_assignment(&full),
    ]
}

fn bit_string(assignment: &[bool]) -> String {
    assignment
        .iter()
        .map(|&b| if b { '1' } else { '0' })
        .collect()
}

fn listing(name: &str, spn: &Spn) -> Vec<String> {
    let mut out = Vec::new();
    let rows = rows(spn.num_vars());
    for (r, evidence) in rows.iter().enumerate() {
        let mpe = spn.mpe(evidence).unwrap();
        let mpe_log = spn.mpe_log(evidence).unwrap();
        out.push(format!(
            "{name} row{r} eval={:016x} eval_log={:016x} mpe={:016x}/{} mpe_log={:016x}/{}",
            spn.evaluate(evidence).unwrap().to_bits(),
            spn.evaluate_log(evidence).unwrap().ln().to_bits(),
            mpe.value.to_bits(),
            bit_string(&mpe.assignment),
            mpe_log.value.to_bits(),
            bit_string(&mpe_log.assignment),
        ));
    }

    let sampler = SamplerProgram::new(spn);
    let batch = EvidenceBatch::from_evidences(spn.num_vars(), &rows[..2]).unwrap();
    let request = |method, n_samples| {
        let spec = SampleSpec {
            seed: 15,
            n_samples,
            method,
        };
        SampleBatch::new(batch.clone(), spec)
    };
    let lw = sampler
        .run_expectation_range(&request(SampleMethod::LikelihoodWeighted, 64), 0, 2)
        .unwrap();
    for r in 0..2 {
        out.push(format!(
            "{name} row{r} lw={:016x} se={:016x}",
            lw.values[r].to_bits(),
            lw.std_err[r].to_bits()
        ));
    }
    for (label, method) in [
        ("ancestral", SampleMethod::Ancestral),
        ("gibbs", SampleMethod::Gibbs),
    ] {
        // Row 1 only: draws under evidence (row 0 is the prior fast path).
        let run = sampler.run_sample_range(&request(method, 6), 1, 1).unwrap();
        let draws: Vec<String> = run
            .assignments
            .unwrap()
            .iter()
            .map(|a| bit_string(a))
            .collect();
        out.push(format!("{name} row1 {label}={}", draws.join(",")));
    }
    out
}

#[test]
fn oracle_mpe_and_sampler_bits_are_those_of_the_recorded_commit() {
    let mut got = listing("skewed", &skewed());
    got.extend(listing("tied", &tied()));
    let got = got.join("\n");
    assert_eq!(got, EXPECTED.trim(), "computed listing:\n{got}\n");
}

const EXPECTED: &str = "
skewed row0 eval=3feffffffffffffe eval_log=3ca8000000000000 mpe=3f22189ad4fb6d63/1110100011 mpe_log=c021c68e5e2cc8d6/1110100011
skewed row1 eval=3fcd6ed6c0a5bf94 eval_log=bff784c592297b9a mpe=3f203bc39cbbe921/1110100001 mpe_log=c021fe2bccf579ea/1110100001
skewed row2 eval=3f5aba48f9d63a99 eval_log=c019ac66cfb2d1e6 mpe=3eefc3283b1dfe85/1011011011 mpe_log=c02632141d5a8ab4/1011011011
skewed row0 lw=3ff0000000000000 se=0000000000000000
skewed row1 lw=3fcd3d24a5fc3ebf se=3f69eb6e2f883044
skewed row1 ancestral=1110000100,1110100101,0100000100,1110001101,1110011000,1110010000
skewed row1 gibbs=1110010100,1110100101,1100001001,0110110000,0110010100,1110011101
tied row0 eval=3ff0000000000000 eval_log=bcbc000000000000 mpe=3f15555555555555/1111111 mpe_log=c022d52f8e914bd4/1111111
tied row1 eval=3fd0000000000000 eval_log=bff62e42fefa39ee mpe=3f15555555555555/1111101 mpe_log=c022d52f8e914bd4/1111101
tied row2 eval=3f80000000000000 eval_log=c013687a9f1af2b1 mpe=3f15555555555555/1011011 mpe_log=c022d52f8e914bd4/1011011
tied row0 lw=3ff0000000000000 se=0000000000000000
tied row1 lw=3fd0000000000001 se=0000000000000000
tied row1 ancestral=0111000,1110101,0111100,1111000,1100101,1111100
tied row1 gibbs=0110001,0100101,0101000,1111100,1111000,1101101
";
