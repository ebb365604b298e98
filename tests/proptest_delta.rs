//! Property tests for the delta decoders and [`DynamicSolver::apply_delta`].
//!
//! - `Delta::parse_text` and `Delta::from_binary` answer arbitrary bytes
//!   with a delta or a typed [`DeltaError`], never a panic.
//! - Single-byte mutations and truncations of a valid delta that mixes
//!   all seven edit kinds either apply bit-identically to a from-scratch
//!   `solve_special` of the edited instance, or are rejected and leave
//!   the solver's state bit-for-bit where it was.

use maxmin_lp::core::dynamic::DynamicSolver;
use maxmin_lp::core::smoothing::{solve_special, SpecialRun};
use maxmin_lp::core::SpecialForm;
use maxmin_lp::gen::catalog;
use maxmin_lp::instance::delta::{Delta, DeltaError};
use maxmin_lp::instance::hash::{hash_hex, instance_hash};
use maxmin_lp::instance::{ConstraintId, Instance};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::OnceLock;

const BIG_R: usize = 3;

/// The special-form base instance and a delta on it that uses every
/// edit kind and still lands in the special form.
fn fixture() -> &'static (Instance, Delta) {
    static FIXTURE: OnceLock<(Instance, Delta)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let base = catalog()
            .iter()
            .find(|f| f.name == "special-form")
            .unwrap()
            .instance(24, 1);
        let (n, nc) = (base.n_agents(), base.n_constraints());
        let row0 = base.constraint_row(ConstraintId::new(0));
        let (p, q) = (row0[0].agent.raw(), row0[1].agent.raw());
        // New agents a, b, c; r1 and r2 are the second and third new
        // constraints.
        let (a, b, c, r1, r2) = (n, n + 1, n + 2, nc + 1, nc + 2);
        let coef = row0[0].coef * 1.25;
        let text = format!(
            "mmlpdelta 1\nbase {}\nset c 0 {p}:{coef}\naddagent\naddagent\n\
             addrow o {a}:1 {b}:1\naddrow c {a}:0.75 {b}:1.5\naddrow c {a}:0.9 {p}:1.1\n\
             rmedge c {r1} {p}\naddedge c {r1} {q}:1.3\naddagent\nrmagent {c}\n\
             addrow c {a}:1 {b}:1\nrmrow c {r2}\n",
            hash_hex(instance_hash(&base))
        );
        let delta = Delta::parse_text(&text).unwrap();
        (base, delta)
    })
}

/// The float bits of `x`, `t` and `s`.
fn bits(run: &SpecialRun) -> Vec<u64> {
    run.x
        .as_slice()
        .iter()
        .chain(&run.t)
        .chain(&run.s)
        .map(|v| v.to_bits())
        .collect()
}

/// Applies `delta` to a solver booted on `base` and checks the outcome
/// against a from-scratch solve (on `Ok`) or the untouched state (on
/// `Err`). Returns whether the delta applied.
fn check_apply(base: &Instance, delta: &Delta) -> bool {
    let sf = SpecialForm::new(base.clone()).unwrap();
    let mut dynamic = DynamicSolver::new(sf, BIG_R, 1);
    let before = bits(dynamic.run());
    match dynamic.apply_delta(delta) {
        Ok(_) => {
            let next = delta.apply(base).expect("applied incrementally");
            let next = SpecialForm::new(next).expect("accepted as special form");
            assert_eq!(
                bits(dynamic.run()),
                bits(&solve_special(&next, BIG_R)),
                "{}",
                delta.to_text()
            );
            true
        }
        Err(_) => {
            assert_eq!(bits(dynamic.run()), before, "{}", delta.to_text());
            assert_eq!(
                instance_hash(dynamic.special_form().instance()),
                instance_hash(base)
            );
            false
        }
    }
}

fn mutate(bytes: &[u8], pos: usize, byte: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = pos % out.len();
    out[at] = byte;
    out
}

/// Decodes a mutated or truncated encoding and, when it still decodes,
/// runs it through the solver.
fn check_mutant(text: bool, bytes: &[u8]) {
    let decoded = if text {
        Delta::parse_text(&String::from_utf8_lossy(bytes))
    } else {
        Delta::from_binary(bytes)
    };
    if let Ok(delta) = decoded {
        check_apply(&fixture().0, &delta);
    }
}

#[test]
fn unmutated_deltas_apply_bit_identically() {
    let (base, delta) = fixture();
    let text = delta.to_text();
    for directive in [
        "set ", "addedge ", "rmedge ", "addagent", "rmagent ", "addrow ", "rmrow ",
    ] {
        assert!(text.contains(directive), "{directive} missing from\n{text}");
    }
    assert_eq!(&Delta::parse_text(&text).unwrap(), delta);
    assert_eq!(&Delta::from_binary(&delta.to_binary()).unwrap(), delta);
    assert!(check_apply(base, delta), "the fixture delta must apply");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn arbitrary_bytes_decode_or_fail(bytes in vec(0u8..=255, 0..160)) {
        let text: Result<Delta, DeltaError> = Delta::parse_text(&String::from_utf8_lossy(&bytes));
        let binary: Result<Delta, DeltaError> = Delta::from_binary(&bytes);
        let _ = (text, binary);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn mutated_text_deltas_apply_or_leave_state(pos in 0usize..100_000, byte in 0u8..=255, cut in 0usize..100_000) {
        let text = fixture().1.to_text().into_bytes();
        check_mutant(true, &mutate(&text, pos, byte));
        check_mutant(true, &text[..cut % (text.len() + 1)]);
    }

    #[test]
    fn mutated_binary_deltas_apply_or_leave_state(pos in 0usize..100_000, byte in 0u8..=255, cut in 0usize..100_000) {
        let binary = fixture().1.to_binary();
        check_mutant(false, &mutate(&binary, pos, byte));
        check_mutant(false, &binary[..cut % (binary.len() + 1)]);
    }
}
