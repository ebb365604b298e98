//! The §1.3 dynamic corollary as a measurement: a single-coefficient
//! edit must cost the dirty ball, not the instance.
//!
//! For each `(R, size)` the bench pairs an incremental repair
//! (`edit-rR/size` — [`DynamicSolver::update_constraint_coefs`]
//! toggling one constraint coefficient on a solver booted once) with a
//! from-scratch solve of the same special form (`scratch-rR/size`).
//! Two claims, both gated by `trajectory_gate` on the committed
//! `BENCH_delta.json`:
//!
//! - the repair beats starting over at every grid point;
//! - repair cost grows with the edit ball (R) and stays near-flat in
//!   the instance size, while the from-scratch cost grows with it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmlp_core::dynamic::DynamicSolver;
use mmlp_core::smoothing::solve_special;
use mmlp_core::SpecialForm;
use mmlp_gen::catalog;
use mmlp_instance::ConstraintId;

fn bench_delta_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("delta-solve");
    group.sample_size(10);

    let fams = catalog();
    let fam = fams.iter().find(|f| f.name == "special-form").unwrap();

    for &big_r in &[2usize, 3] {
        for &size in &[64usize, 256] {
            let sf = SpecialForm::new(fam.instance(size, 1)).expect("special form");

            group.bench_with_input(
                BenchmarkId::new(format!("scratch-r{big_r}"), size),
                &size,
                |b, _| {
                    b.iter(|| std::hint::black_box(solve_special(&sf, big_r).x.as_slice()[0]));
                },
            );

            group.bench_with_input(
                BenchmarkId::new(format!("edit-r{big_r}"), size),
                &size,
                |b, _| {
                    let mut dynamic = DynamicSolver::new(sf.clone(), big_r, 1);
                    let i = ConstraintId::new(0);
                    let row = dynamic.special_form().instance().constraint_row(i);
                    let coefs = [row[0].coef, row[1].coef];
                    let mut flip = false;
                    b.iter(|| {
                        // Alternate the coefficient so every iteration
                        // is a real change with a non-empty dirty ball.
                        flip = !flip;
                        let scale = if flip { 1.5 } else { 1.0 };
                        let rep = dynamic.update_constraint_coefs(i, [coefs[0] * scale, coefs[1]]);
                        std::hint::black_box(rep.recomputed_x)
                    });
                },
            );
        }
    }

    group.finish();
}

criterion_group!(benches, bench_delta_solve);
criterion_main!(benches);
