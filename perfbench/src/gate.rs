//! The correctness gate: every OK `SOLVE`/`SOLVE_DELTA` body must be a
//! feasible, self-consistent answer that meets the paper's guarantee.
//! Run outside the timed window.

use mmlp_core::solver::LocalSolver;
use mmlp_instance::{DegreeStats, Instance, Solution};

/// Slack allowed on each constraint row and on the guarantee bound.
pub const TOL: f64 = 1e-9;

/// A parsed solve reply body.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveBody {
    /// The reported utility.
    pub utility: f64,
    /// The reported approximation guarantee.
    pub guarantee: f64,
    /// The reported upper bound on the optimum.
    pub optimum_upper_bound: f64,
    /// `x_v` for every agent, in agent order.
    pub x: Vec<f64>,
}

fn field(line: Option<&str>, key: &str) -> Result<f64, String> {
    let line = line.ok_or_else(|| format!("missing '{key}' line"))?;
    let value = line
        .strip_prefix(key)
        .and_then(|v| v.strip_prefix(' '))
        .ok_or_else(|| format!("expected '{key} <value>', got {line:?}"))?;
    value
        .parse()
        .map_err(|_| format!("unparseable {key} {value:?}"))
}

/// Parses a `SOLVE`-shaped reply body.
pub fn parse_body(body: &str) -> Result<SolveBody, String> {
    let mut lines = body.lines();
    let utility = field(lines.next(), "utility")?;
    let guarantee = field(lines.next(), "guarantee")?;
    let optimum_upper_bound = field(lines.next(), "optimum_upper_bound")?;
    let mut x = Vec::new();
    for line in lines {
        let mut it = line.split(' ');
        let (Some("x"), Some(agent), Some(value), None) =
            (it.next(), it.next(), it.next(), it.next())
        else {
            return Err(format!("bad x line {line:?}"));
        };
        if agent.parse::<usize>().ok() != Some(x.len()) {
            return Err(format!("x lines out of agent order at {line:?}"));
        }
        x.push(
            value
                .parse::<f64>()
                .map_err(|_| format!("unparseable x value in {line:?}"))?,
        );
    }
    Ok(SolveBody {
        utility,
        guarantee,
        optimum_upper_bound,
        x,
    })
}

/// Checks a reply body against the instance it answers, solved at `big_r`.
pub fn check(body: &str, inst: &Instance, big_r: usize) -> Result<(), String> {
    let b = parse_body(body)?;
    if b.x.len() != inst.n_agents() {
        return Err(format!(
            "{} x values for {} agents",
            b.x.len(),
            inst.n_agents()
        ));
    }
    let x = Solution::from_vec(b.x);
    for i in inst.constraints() {
        let load: f64 = inst
            .constraint_row(i)
            .iter()
            .map(|e| e.coef * x.value(e.agent))
            .sum();
        if load.is_nan() || load > 1.0 + TOL {
            return Err(format!("constraint {} has load {load} > 1", i.raw()));
        }
    }
    let utility = x.utility(inst);
    if utility.to_bits() != b.utility.to_bits() {
        return Err(format!("utility {} but x gives {utility}", b.utility));
    }
    let stats = DegreeStats::of(inst);
    let guarantee = LocalSolver::new(big_r).guarantee(stats.delta_i, stats.delta_k);
    if guarantee.to_bits() != b.guarantee.to_bits() {
        return Err(format!(
            "guarantee {} but R={big_r} gives {guarantee}",
            b.guarantee
        ));
    }
    let bound = guarantee * utility * (1.0 + TOL);
    if b.optimum_upper_bound.is_nan() || b.optimum_upper_bound > bound {
        return Err(format!(
            "optimum_upper_bound {} exceeds guarantee × utility = {}",
            b.optimum_upper_bound,
            guarantee * utility
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmlp_serve::engine::execute;
    use mmlp_serve::protocol::Op;

    fn solved() -> (Instance, String) {
        let inst = crate::workload::hit_instances(7).swap_remove(0);
        let body = execute(Op::Solve, &inst, 3, 1).expect("solve");
        (inst, body)
    }

    /// Rewrites one body line through `f`.
    fn doctor(body: &str, prefix: &str, f: impl Fn(f64) -> f64) -> String {
        let mut done = false;
        body.lines()
            .map(|l| match l.rsplit_once(' ') {
                Some((head, v)) if !done && l.starts_with(prefix) => {
                    done = true;
                    format!("{head} {}\n", f(v.parse().unwrap()))
                }
                _ => format!("{l}\n"),
            })
            .collect()
    }

    #[test]
    fn a_served_body_passes() {
        let (inst, body) = solved();
        check(&body, &inst, 3).unwrap();
    }

    #[test]
    fn rejects_an_x_nudged_upward() {
        let (inst, body) = solved();
        // Raise one agent of the fullest row just past the row's slack.
        let x = Solution::from_vec(parse_body(&body).unwrap().x);
        let fullest = inst
            .constraints()
            .max_by(|&a, &b| {
                x.constraint_load(&inst, a)
                    .total_cmp(&x.constraint_load(&inst, b))
            })
            .unwrap();
        let slack = 1.0 - x.constraint_load(&inst, fullest);
        let e = inst.constraint_row(fullest)[0];
        let bad = doctor(&body, &format!("x {} ", e.agent.raw()), |v| {
            v + (slack + 1e-6) / e.coef
        });
        assert!(check(&bad, &inst, 3).unwrap_err().contains("load"));
    }

    #[test]
    fn rejects_a_doctored_utility() {
        let (inst, body) = solved();
        let bad = doctor(&body, "utility", |u| u * (1.0 + 1e-12));
        assert!(check(&bad, &inst, 3).unwrap_err().contains("utility"));
    }

    #[test]
    fn rejects_a_loosened_guarantee_and_a_truncated_body() {
        let (inst, body) = solved();
        let bad = doctor(&body, "guarantee", |g| g * 2.0);
        assert!(check(&bad, &inst, 3).unwrap_err().contains("guarantee"));
        let cut = &body[..body.rfind("\nx ").unwrap() + 1];
        assert!(check(cut, &inst, 3).is_err());
    }
}
