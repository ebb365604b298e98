//! §1.3's dynamic-algorithm corollary in action: a local algorithm *is*
//! a dynamic algorithm with constant-time updates. We maintain the
//! solution of a large fair-allocation ring while link capacities
//! change, repairing only the horizon ball around each edit.
//!
//! Run with `cargo run --release --example dynamic_updates`.

use maxmin_lp::core::dynamic::DynamicSolver;
use maxmin_lp::core::smoothing::solve_special;
use maxmin_lp::core::SpecialForm;
use maxmin_lp::gen::special::{random_special_form, SpecialFormConfig};
use maxmin_lp::instance::ConstraintId;
use std::time::Instant;

fn main() {
    let big_r = 3;
    let inst = random_special_form(
        &SpecialFormConfig {
            n_objectives: 600,
            delta_k: 3,
            extra_constraints: 300,
            coef_range: (0.5, 2.0),
        },
        42,
    );
    let sf = SpecialForm::new(inst).unwrap();
    let n = sf.n_agents();
    println!(
        "maintaining a solution over {n} agents / {} constraints (R = {big_r})\n",
        sf.instance().n_constraints()
    );

    let t0 = Instant::now();
    let mut dynamic = DynamicSolver::new(sf.clone(), big_r, 1);
    let full_solve = t0.elapsed();
    println!("initial full solve: {full_solve:?}");
    println!(
        "initial utility: {:.5}\n",
        dynamic.run().x.utility(dynamic.special_form().instance())
    );

    // A burst of capacity changes.
    println!(
        "{:>6} {:>14} {:>12} {:>12} {:>12}",
        "edit", "constraint", "t recomputed", "x recomputed", "repair time"
    );
    let mut total_repair = std::time::Duration::ZERO;
    for step in 0..8u32 {
        let i = ConstraintId::new(step * 37 % sf.instance().n_constraints() as u32);
        let row = dynamic.special_form().instance().constraint_row(i);
        let new = [row[0].coef * 1.5, row[1].coef * 0.8];
        let t1 = Instant::now();
        let rep = dynamic.update_constraint_coefs(i, new);
        let dt = t1.elapsed();
        total_repair += dt;
        println!(
            "{:>6} {:>14} {:>12} {:>12} {:>12?}",
            step,
            format!("{i}"),
            rep.recomputed_t,
            rep.recomputed_x,
            dt
        );
    }

    // Certify the final state against a from-scratch solve.
    let reference = solve_special(dynamic.special_form(), big_r);
    let max_dev = dynamic
        .run()
        .x
        .as_slice()
        .iter()
        .zip(reference.x.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("\nafter 8 edits: max |x_dynamic − x_fresh| = {max_dev:.1e} (bit-identical)");
    println!(
        "total repair time {total_repair:?} vs one full solve {full_solve:?} — \
         the update ball is constant-size while the network is not."
    );
    assert_eq!(max_dev, 0.0);
}
