//! The flat-view-arena contract, catalog-wide:
//!
//! 1. `solve_distributed` on the flat (hash-consed) path is **bitwise
//!    identical** to the legacy `ViewTree` path — outputs *and* logical
//!    message/byte accounting — for every generator family at
//!    R ∈ {2, 3, 4}.
//! 2. Arena-interned view equality agrees exactly with the legacy
//!    `ViewTree: PartialEq` (property-tested across the catalogue).
//! 3. Non-tree topologies dedup: the arena footprint is strictly
//!    smaller than the logical payload volume.

use maxmin_lp::core::distributed::{solve_distributed, solve_distributed_flat, t_batch_flat};
use maxmin_lp::core::transform::to_special_form;
use maxmin_lp::core::tree_bound::TreeBound;
use maxmin_lp::core::SpecialForm;
use maxmin_lp::gen::catalog;
use maxmin_lp::net::{gather_views, gather_views_flat, Network, ViewArena};
use proptest::prelude::*;

/// Special-forms a catalogue instance the way `mmlp-lab`'s distributed
/// jobs do.
fn special(fam: &maxmin_lp::gen::Family, size: usize, seed: u64) -> SpecialForm {
    let inst = fam.instance(size, seed);
    SpecialForm::new(to_special_form(&inst).instance).expect("§4 pipeline produces special form")
}

#[test]
fn flat_path_is_bitwise_identical_across_the_catalog() {
    for fam in catalog() {
        let sf = special(&fam, 12, 1);
        for big_r in [2usize, 3, 4] {
            let legacy = solve_distributed(&sf, big_r);
            let flat = solve_distributed_flat(&sf, big_r);
            for v in 0..sf.n_agents() {
                assert_eq!(
                    flat.solution.as_slice()[v].to_bits(),
                    legacy.solution.as_slice()[v].to_bits(),
                    "x: family {} R {big_r} agent {v}",
                    fam.name
                );
                assert_eq!(
                    flat.t[v].to_bits(),
                    legacy.t[v].to_bits(),
                    "t: family {} R {big_r} agent {v}",
                    fam.name
                );
                assert_eq!(
                    flat.s[v].to_bits(),
                    legacy.s[v].to_bits(),
                    "s: family {} R {big_r} agent {v}",
                    fam.name
                );
            }
            // The logical accounting is reproduced round for round.
            assert_eq!(flat.stats.rounds, legacy.stats.rounds, "{}", fam.name);
            assert_eq!(flat.stats.messages, legacy.stats.messages, "{}", fam.name);
            assert_eq!(flat.stats.bytes, legacy.stats.bytes, "{}", fam.name);
            assert_eq!(
                flat.stats.messages_per_round, legacy.stats.messages_per_round,
                "{}",
                fam.name
            );
            assert_eq!(
                flat.stats.bytes_per_round, legacy.stats.bytes_per_round,
                "{}",
                fam.name
            );
            // And the dedup counters exist on top of it.
            assert!(flat.stats.interned_nodes > 0, "{}", fam.name);
            assert!(flat.stats.arena_bytes > 0, "{}", fam.name);
        }
    }
}

#[test]
fn every_special_form_family_dedups_at_depth() {
    // Every §4-transformed catalogue instance contains cycles (or at
    // minimum re-sent shared subtrees), so the logical payload volume
    // must exceed the deduped arena footprint.
    for fam in catalog() {
        let sf = special(&fam, 14, 3);
        let flat = solve_distributed_flat(&sf, 3);
        assert!(
            flat.stats.dedup_ratio() > 1.0,
            "family {}: dedup ratio {}",
            fam.name,
            flat.stats.dedup_ratio()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The flat `t` batch over the arena roots is bit-identical to the
    /// centralized [`TreeBound::all`] on the folded graph, catalog-wide
    /// at R ∈ {2, 3, 4}.
    #[test]
    fn t_batch_is_bit_identical_to_tree_bound(
        size in 8usize..24,
        seed in 0u64..1_000,
    ) {
        for fam in catalog() {
            let sf = special(&fam, size, seed);
            let n = sf.n_agents();
            let net = Network::new(sf.instance());
            for big_r in [2usize, 3, 4] {
                let depth = 4 * (big_r - 2) + 2;
                let fv = gather_views_flat(&net, depth);
                let flat = t_batch_flat(&fv.arena, &fv.roots[..n], big_r, 1);
                let central = TreeBound::new(&sf, big_r).all();
                for v in 0..n {
                    prop_assert_eq!(
                        flat[v].to_bits(),
                        central[v].to_bits(),
                        "family {} R {} agent {}",
                        fam.name, big_r, v
                    );
                }
            }
        }
    }

    /// For every catalogue family: interning the gathered views of all
    /// nodes into one arena yields ids whose equality agrees exactly
    /// with `ViewTree: PartialEq`, and every interned root expands back
    /// to the gathered tree.
    #[test]
    fn arena_equality_agrees_with_view_tree_equality(
        size in 6usize..20,
        seed in 0u64..1_000,
        depth in 1usize..5,
    ) {
        for fam in catalog() {
            let inst = fam.instance(size, seed);
            let net = Network::new(&inst);
            let (trees, tree_stats) = gather_views(&net, depth);
            let flat = gather_views_flat(&net, depth);
            prop_assert_eq!(flat.stats.messages, tree_stats.messages);
            prop_assert_eq!(flat.stats.bytes, tree_stats.bytes);

            // Re-interning the legacy trees lands on the same ids.
            let mut arena: ViewArena = flat.arena.clone();
            for (x, tree) in trees.iter().enumerate() {
                prop_assert_eq!(
                    arena.intern_tree(tree),
                    flat.roots[x],
                    "family {} node {}", fam.name, x
                );
            }

            // Id equality ⇔ tree equality over sampled pairs (all
            // pairs is quadratic; stride keeps the case cheap).
            let n = trees.len();
            for x in (0..n).step_by(3) {
                for y in (x..n).step_by(5) {
                    prop_assert_eq!(
                        flat.roots[x] == flat.roots[y],
                        trees[x] == trees[y],
                        "family {} pair ({}, {})", fam.name, x, y
                    );
                }
            }
        }
    }
}
