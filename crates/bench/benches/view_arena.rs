//! The flat view arena vs the legacy recursive trees:
//!
//! * **gather** — interned-id gathering (`gather_views_flat`) against
//!   clone-based tree gathering (`gather_views`) at increasing horizons,
//! * **eval** — per-agent `t_u` evaluated memoised over the arena
//!   (`t_from_arena`) against the recursive walk over the gathered tree
//!   (`t_from_view`),
//! * **distributed-solve** — the end-to-end flat `solve_distributed_flat`
//!   against the legacy message protocol.
//!
//! These medians land in `BENCH_core.json`; the repo's perf trajectory
//! tracks the interning-vs-clone and memoised-vs-recursive ratios.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmlp_core::distributed::{
    solve_distributed, solve_distributed_flat, t_from_arena, t_from_view, FlatScratch,
};
use mmlp_core::SpecialForm;
use mmlp_gen::special::{random_special_form, SpecialFormConfig};
use mmlp_net::{gather_views, gather_views_flat, Network};

fn workload(n_objectives: usize) -> SpecialForm {
    SpecialForm::new(random_special_form(
        &SpecialFormConfig {
            n_objectives,
            extra_constraints: n_objectives / 2,
            ..SpecialFormConfig::default()
        },
        2,
    ))
    .unwrap()
}

fn bench_gather(c: &mut Criterion) {
    let sf = workload(120);
    let net = Network::new(sf.instance());
    let mut group = c.benchmark_group("view-gather");
    group.sample_size(10);
    for depth in [2usize, 6, 10] {
        group.bench_with_input(BenchmarkId::new("tree", depth), &depth, |b, &d| {
            b.iter(|| std::hint::black_box(gather_views(&net, d)))
        });
        group.bench_with_input(BenchmarkId::new("flat", depth), &depth, |b, &d| {
            b.iter(|| std::hint::black_box(gather_views_flat(&net, d)))
        });
    }
    group.finish();
}

fn bench_eval(c: &mut Criterion) {
    let sf = workload(120);
    let net = Network::new(sf.instance());
    let mut group = c.benchmark_group("view-eval-t");
    group.sample_size(10);
    for big_r in [3usize, 4] {
        let depth = 4 * (big_r - 2) + 2;
        let (trees, _) = gather_views(&net, depth);
        let flat = gather_views_flat(&net, depth);
        let n = sf.n_agents();
        group.bench_with_input(BenchmarkId::new("recursive", big_r), &big_r, |b, &r| {
            b.iter(|| {
                for tree in &trees[..n] {
                    std::hint::black_box(t_from_view(tree, r));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("memoized", big_r), &big_r, |b, &r| {
            let mut sc = FlatScratch::default();
            b.iter(|| {
                for v in 0..n {
                    std::hint::black_box(t_from_arena(&flat.arena, flat.roots[v], r, &mut sc));
                }
            })
        });
    }
    group.finish();
}

fn bench_solve(c: &mut Criterion) {
    let sf = workload(120);
    let mut group = c.benchmark_group("distributed-solve");
    group.sample_size(10);
    for big_r in [3usize, 4] {
        group.bench_with_input(BenchmarkId::new("legacy", big_r), &big_r, |b, &r| {
            b.iter(|| std::hint::black_box(solve_distributed(&sf, r)))
        });
        group.bench_with_input(BenchmarkId::new("flat", big_r), &big_r, |b, &r| {
            b.iter(|| std::hint::black_box(solve_distributed_flat(&sf, r)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gather, bench_eval, bench_solve);
criterion_main!(benches);
