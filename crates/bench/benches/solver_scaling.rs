//! End-to-end local solver cost vs instance size (linear — the defining
//! property of a local algorithm is per-node constant work; the
//! centralized simulation is therefore O(n)).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mmlp_core::solver::LocalSolver;
use mmlp_gen::special::{random_special_form, SpecialFormConfig};

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("local-solver-R3");
    group.sample_size(10);
    for n_obj in [50usize, 200, 800] {
        let inst = random_special_form(
            &SpecialFormConfig {
                n_objectives: n_obj,
                extra_constraints: n_obj / 2,
                ..SpecialFormConfig::default()
            },
            1,
        );
        group.throughput(Throughput::Elements(inst.n_agents() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n_obj), &inst, |b, inst| {
            let solver = LocalSolver::new(3);
            b.iter(|| std::hint::black_box(solver.solve(inst)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solver, dynamic_bench::bench_dynamic);
criterion_main!(benches);

// Appended: dynamic-update repair cost vs full re-solve (§1.3).
mod dynamic_bench {
    use criterion::{BenchmarkId, Criterion};
    use mmlp_core::dynamic::DynamicSolver;
    use mmlp_core::SpecialForm;
    use mmlp_gen::special::cycle_special;
    use mmlp_instance::ConstraintId;

    pub fn bench_dynamic(c: &mut Criterion) {
        let mut group = c.benchmark_group("dynamic-update-R3");
        group.sample_size(10);
        for n_obj in [64usize, 256] {
            let sf = SpecialForm::new(cycle_special(n_obj, 1.0)).unwrap();
            group.bench_with_input(BenchmarkId::new("repair", n_obj), &sf, |b, sf| {
                let mut solver = DynamicSolver::new(sf.clone(), 3, 1);
                let mut flip = false;
                b.iter(|| {
                    flip = !flip;
                    let coef = if flip { 2.0 } else { 1.0 };
                    std::hint::black_box(
                        solver.update_constraint_coefs(ConstraintId::new(0), [coef, coef]),
                    )
                });
            });
            group.bench_with_input(BenchmarkId::new("full-solve", n_obj), &sf, |b, sf| {
                b.iter(|| std::hint::black_box(mmlp_core::smoothing::solve_special(sf, 3)))
            });
        }
        group.finish();
    }
}
