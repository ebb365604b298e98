//! Determinism of the round executor: the same instance solved twice
//! over the simulated network gives bit-identical outcomes.

use maxmin_lp::core::distributed::solve_distributed;
use maxmin_lp::core::SpecialForm;
use maxmin_lp::gen::special::{random_special_form, SpecialFormConfig};

fn large_special_form(seed: u64) -> SpecialForm {
    let inst = random_special_form(
        &SpecialFormConfig {
            n_objectives: 64,
            delta_k: 3,
            extra_constraints: 32,
            coef_range: (0.5, 2.0),
        },
        seed,
    );
    SpecialForm::new(inst).expect("generator produces special form")
}

#[test]
fn distributed_solve_is_reproducible_across_runs() {
    // Same seed → bit-identical outcome, run to run (no hidden
    // scheduler nondeterminism leaks into results).
    let a = solve_distributed(&large_special_form(4), 2);
    let b = solve_distributed(&large_special_form(4), 2);
    assert_eq!(a.stats, b.stats);
    for (x, y) in a.t.iter().zip(&b.t) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    for v in 0..a.solution.as_slice().len() {
        assert_eq!(
            a.solution.as_slice()[v].to_bits(),
            b.solution.as_slice()[v].to_bits()
        );
    }
}
