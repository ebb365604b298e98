//! The message-passing protocol and the centralized reference engine
//! must agree bit-for-bit — including through the §4 transformation
//! pipeline on general instances.

use maxmin_lp::core::distributed::{rounds_needed, solve_distributed};
use maxmin_lp::core::smoothing::solve_special;
use maxmin_lp::core::transform::to_special_form;
use maxmin_lp::core::SpecialForm;
use maxmin_lp::gen::random::{random_general, RandomConfig};

#[test]
fn general_instances_through_the_pipeline_agree() {
    for seed in 0..3 {
        let inst = random_general(
            &RandomConfig {
                n_agents: 16,
                n_constraints: 12,
                n_objectives: 9,
                ..RandomConfig::default()
            },
            seed,
        );
        let transformed = to_special_form(&inst);
        let sf = SpecialForm::new(transformed.instance.clone()).unwrap();
        for big_r in [2, 3] {
            let central = solve_special(&sf, big_r);
            let dist = solve_distributed(&sf, big_r);
            assert_eq!(dist.stats.rounds, rounds_needed(big_r));
            for v in 0..sf.n_agents() {
                assert_eq!(
                    dist.solution.as_slice()[v].to_bits(),
                    central.x.as_slice()[v].to_bits(),
                    "seed {seed} R {big_r} agent {v}"
                );
            }
            // The back-mapped distributed output is feasible on the
            // original instance, like the centralized one.
            let mapped = transformed.map_back(&dist.solution);
            assert!(mapped.is_feasible(&inst, 1e-7));
        }
    }
}
