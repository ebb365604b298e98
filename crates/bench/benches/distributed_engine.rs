//! Synchronous round engine throughput: the full distributed protocol
//! and the sequential-vs-parallel executor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmlp_core::distributed::{solve_distributed, solve_distributed_flat};
use mmlp_core::SpecialForm;
use mmlp_gen::special::{random_special_form, SpecialFormConfig};

fn bench_distributed(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed-protocol");
    group.sample_size(10);
    for n_obj in [40usize, 160] {
        let sf = SpecialForm::new(random_special_form(
            &SpecialFormConfig {
                n_objectives: n_obj,
                extra_constraints: n_obj / 2,
                ..SpecialFormConfig::default()
            },
            2,
        ))
        .unwrap();
        for big_r in [2usize, 3] {
            group.bench_with_input(
                BenchmarkId::new(format!("n{n_obj}"), big_r),
                &big_r,
                |b, &big_r| b.iter(|| std::hint::black_box(solve_distributed(&sf, big_r))),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("flat-n{n_obj}"), big_r),
                &big_r,
                |b, &big_r| b.iter(|| std::hint::black_box(solve_distributed_flat(&sf, big_r))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_distributed);
criterion_main!(benches);
