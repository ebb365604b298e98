//! §6: layers, the up/down partition and the shifting strategy — the
//! analysis artefacts behind Lemmas 8–12, exposed so that tests and the
//! experiment harness can machine-check them.
//!
//! The paper assigns an integer *layer* to every node of the (infinite,
//! tree-shaped) unfolding using the Figure 3 edge weights, giving the
//! residues of Lemma 8:
//!
//! ```text
//! objectives ≡ 0,  down-agents ≡ 1,  constraints ≡ 2,  up-agents ≡ 3   (mod 4)
//! ```
//!
//! A finite special-form instance never admits a consistent **integer**
//! layering — walking any cycle strictly increases the layer (this is
//! exactly why no local algorithm can compute layers, §2). But the
//! shifting solutions `y(j)` of §6.1 only read the layer **modulo 4R**,
//! and a consistent mod-`4R` layering exists whenever every cycle's
//! layer gain is divisible by `4R` (e.g. the `layered_special` fixtures
//! with `R | periods`). [`assign_layers_mod`] computes such an
//! assignment from a declared up/down partition, validating the §6
//! partition conditions; the `y(j)` of eq. (19) and their average (20)
//! are then available for direct verification of Lemmas 9 and 10.

use crate::smoothing::GTables;
use crate::special::SpecialForm;
use mmlp_instance::{AgentId, CommGraph, Node, ObjectiveId, Solution};

/// Why a layer assignment could not be produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LayerError {
    /// An objective does not have exactly one up-agent.
    ObjectivePartition(ObjectiveId),
    /// A constraint does not have exactly one up- and one down-agent.
    ConstraintPartition(mmlp_instance::ConstraintId),
    /// Two walks assign different residues to the same node — the
    /// instance has a cycle whose layer gain is not divisible by the
    /// modulus.
    Inconsistent {
        /// Flat node index where the conflict appeared.
        node: u32,
    },
    /// The modulus must be a positive multiple of 4.
    BadModulus(usize),
}

impl std::fmt::Display for LayerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayerError::ObjectivePartition(k) => {
                write!(f, "objective {k} does not have exactly one up-agent")
            }
            LayerError::ConstraintPartition(i) => {
                write!(
                    f,
                    "constraint {i} does not pair one up- with one down-agent"
                )
            }
            LayerError::Inconsistent { node } => {
                write!(f, "layer residues conflict at flat node {node}")
            }
            LayerError::BadModulus(m) => write!(f, "modulus {m} is not a positive multiple of 4"),
        }
    }
}

impl std::error::Error for LayerError {}

/// A consistent layer assignment modulo `modulus`.
#[derive(Clone, Debug)]
pub struct LayerAssignment {
    /// The modulus (typically `4R`).
    pub modulus: usize,
    /// Layer residue per flat node of the communication graph.
    pub layer: Vec<u32>,
    /// The up/down partition used (per agent).
    pub is_up: Vec<bool>,
}

impl LayerAssignment {
    /// The layer residue of an agent.
    pub fn agent_layer(&self, v: AgentId) -> u32 {
        self.layer[v.idx()]
    }
}

/// Computes layers mod `modulus` (a multiple of 4) from a declared
/// up/down partition, validating the §6 partition conditions and the
/// consistency of the residues.
pub fn assign_layers_mod(
    sf: &SpecialForm,
    is_up: &[bool],
    modulus: usize,
    root: ObjectiveId,
) -> Result<LayerAssignment, LayerError> {
    if modulus == 0 || !modulus.is_multiple_of(4) {
        return Err(LayerError::BadModulus(modulus));
    }
    let inst = sf.instance();
    assert_eq!(is_up.len(), inst.n_agents());

    // Partition validity (§6: (i) constraints pair up/down, (ii) each
    // objective has exactly one up-agent).
    for k in inst.objectives() {
        let ups = inst
            .objective_row(k)
            .iter()
            .filter(|e| is_up[e.agent.idx()])
            .count();
        if ups != 1 {
            return Err(LayerError::ObjectivePartition(k));
        }
    }
    for i in inst.constraints() {
        let ups = inst
            .constraint_row(i)
            .iter()
            .filter(|e| is_up[e.agent.idx()])
            .count();
        if ups != 1 {
            return Err(LayerError::ConstraintPartition(i));
        }
    }

    let g = CommGraph::new(inst);
    let m = modulus as i64;
    let mut layer = vec![u32::MAX; g.n_nodes()];
    let root_flat = g.objective_index(root);
    layer[root_flat as usize] = 0;
    let mut queue = vec![root_flat];
    let mut head = 0;
    while head < queue.len() {
        let x = queue[head];
        head += 1;
        let lx = layer[x as usize] as i64;
        for adj in g.neighbors(x) {
            // Signed layer offset along this edge (Figure 3 weights).
            let delta: i64 = match (g.node(x), g.node(adj.to)) {
                (Node::Objective(_), Node::Agent(v)) => {
                    if is_up[v.idx()] {
                        -1 // the up-agent sits above its objective
                    } else {
                        1
                    }
                }
                (Node::Agent(v), Node::Objective(_)) => {
                    if is_up[v.idx()] {
                        1
                    } else {
                        -1
                    }
                }
                (Node::Constraint(_), Node::Agent(v)) => {
                    if is_up[v.idx()] {
                        1 // the up-agent sits below the constraint
                    } else {
                        -1
                    }
                }
                (Node::Agent(v), Node::Constraint(_)) => {
                    if is_up[v.idx()] {
                        -1
                    } else {
                        1
                    }
                }
                _ => unreachable!("the communication graph is bipartite"),
            };
            let want = ((lx + delta).rem_euclid(m)) as u32;
            let slot = &mut layer[adj.to as usize];
            if *slot == u32::MAX {
                *slot = want;
                queue.push(adj.to);
            } else if *slot != want {
                return Err(LayerError::Inconsistent { node: adj.to });
            }
        }
    }

    Ok(LayerAssignment {
        modulus,
        layer,
        is_up: is_up.to_vec(),
    })
}

/// Decomposes an agent's layer residue per §6.1: writes
/// `ℓ ≡ 4(Rc + j) + 4d + e (mod 4R)` with `0 ≤ d ≤ R−1`, `e ∈ {−1, 1}`,
/// returning `(d, e)`.
fn decompose(layer: u32, modulus: usize, big_r: usize, j: usize) -> (usize, i32) {
    let l = layer as i64;
    let e: i64 = match l.rem_euclid(4) {
        1 => 1,
        3 => -1,
        other => panic!("agents live on odd layers, got residue {other}"),
    };
    let quarter = (l - e).rem_euclid(modulus as i64) / 4; // ≡ Rc + j + d
    let d = (quarter - j as i64).rem_euclid(big_r as i64) as usize;
    (d, e as i32)
}

/// The shifting solution `y(j)` of eq. (19): passive agents
/// (`d = R−1`) output 0; up-agents output `g⁻_{v, r−d}`; down-agents
/// output `g⁺_{v, r−d}`.
pub fn shifted_solution(
    sf: &SpecialForm,
    layers: &LayerAssignment,
    g: &GTables,
    big_r: usize,
    j: usize,
) -> Solution {
    assert!(j < big_r, "shift parameter j ∈ 0..R");
    let r = big_r - 2;
    let mut y = vec![0.0f64; sf.n_agents()];
    for (v, slot) in y.iter_mut().enumerate() {
        let (d, e) = decompose(layers.layer[v], layers.modulus, big_r, j);
        debug_assert_eq!(
            e == -1,
            layers.is_up[v],
            "up-agents have e = −1 regardless of j (§6.1)"
        );
        *slot = if d == big_r - 1 {
            0.0 // passive layer
        } else if e == -1 {
            g.g_minus[r - d][v]
        } else {
            g.g_plus[r - d][v]
        };
    }
    Solution::from_vec(y)
}

/// The averaged solution `y` of eq. (20):
/// `y_v = (1/R) Σ_d g⁻_{v,d}` for up-agents, `(1/R) Σ_d g⁺_{v,d}` for
/// down-agents. Equals the average of the `R` shifted solutions.
pub fn averaged_solution(
    sf: &SpecialForm,
    layers: &LayerAssignment,
    g: &GTables,
    big_r: usize,
) -> Solution {
    let r = big_r - 2;
    let mut y = vec![0.0f64; sf.n_agents()];
    for (v, slot) in y.iter_mut().enumerate() {
        let sum: f64 = (0..=r)
            .map(|d| {
                if layers.is_up[v] {
                    g.g_minus[d][v]
                } else {
                    g.g_plus[d][v]
                }
            })
            .sum();
        *slot = sum / big_r as f64;
    }
    Solution::from_vec(y)
}

/// The §6.2 identity behind eq. (18): the algorithm's output is the
/// average of the two role-choices for every agent,
/// `x_v = (y↑_v + y↓_v)/2` where `y↑` treats `v` as an up-agent and `y↓`
/// as a down-agent. Returns the reconstructed solution for comparison
/// with `smoothing::output`.
pub fn role_average(sf: &SpecialForm, g: &GTables, big_r: usize) -> Solution {
    let r = big_r - 2;
    let mut x = vec![0.0f64; sf.n_agents()];
    for (v, slot) in x.iter_mut().enumerate() {
        let up: f64 = (0..=r).map(|d| g.g_minus[d][v]).sum::<f64>() / big_r as f64;
        let down: f64 = (0..=r).map(|d| g.g_plus[d][v]).sum::<f64>() / big_r as f64;
        *slot = 0.5 * (up + down);
    }
    Solution::from_vec(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smoothing::{self, solve_special};
    use mmlp_gen::special::{cycle_special, layered_special};

    /// Alternating up/down partition for the 4-periodic cycle: even
    /// agents up. Objectives pair {2t, 2t+1} (up first) and constraints
    /// pair {2t+1, 2t+2} (down first) — one up-agent in each.
    fn cycle_partition(n_agents: usize) -> Vec<bool> {
        (0..n_agents).map(|a| a % 2 == 0).collect()
    }

    #[test]
    fn cycle_layer_consistency_depends_on_modulus() {
        for (len, big_r, ok) in [(8, 2, true), (8, 4, true), (6, 4, false), (12, 3, true)] {
            let inst = cycle_special(len, 1.0);
            let sf = SpecialForm::new(inst).unwrap();
            let part = cycle_partition(sf.n_agents());
            let res = assign_layers_mod(&sf, &part, 4 * big_r, ObjectiveId::new(0));
            assert_eq!(res.is_ok(), ok, "len {len} R {big_r}: {res:?}");
        }
    }

    #[test]
    fn lemma8_residues_hold() {
        let (inst, is_up) = layered_special(4, 2, 3, (0.5, 2.0), 0);
        let sf = SpecialForm::new(inst).unwrap();
        let layers = assign_layers_mod(&sf, &is_up, 8, ObjectiveId::new(0)).unwrap();
        let g = CommGraph::new(sf.instance());
        for x in 0..g.n_nodes() as u32 {
            let l = layers.layer[x as usize] % 4;
            match g.node(x) {
                Node::Objective(_) => assert_eq!(l, 0, "objectives ≡ 0"),
                Node::Agent(v) => {
                    if is_up[v.idx()] {
                        assert_eq!(l, 3, "up-agents ≡ 3");
                    } else {
                        assert_eq!(l, 1, "down-agents ≡ 1");
                    }
                }
                Node::Constraint(_) => assert_eq!(l, 2, "constraints ≡ 2"),
            }
        }
    }

    #[test]
    fn bad_partition_is_rejected() {
        let (inst, mut is_up) = layered_special(4, 1, 3, (1.0, 1.0), 0);
        let sf = SpecialForm::new(inst).unwrap();
        is_up[0] = !is_up[0];
        assert!(assign_layers_mod(&sf, &is_up, 8, ObjectiveId::new(0)).is_err());
    }

    #[test]
    fn bad_modulus_is_rejected() {
        let (inst, is_up) = layered_special(4, 1, 2, (1.0, 1.0), 0);
        let sf = SpecialForm::new(inst).unwrap();
        assert_eq!(
            assign_layers_mod(&sf, &is_up, 6, ObjectiveId::new(0)).unwrap_err(),
            LayerError::BadModulus(6)
        );
    }

    #[test]
    fn lemma9_shifted_solutions() {
        // On layered fixtures with R | periods: every y(j) is feasible;
        // objectives on the passive layer have value 0, all others reach
        // min_{v∈Vk} s_v.
        for (periods, m, dk, big_r) in [(4, 1, 2, 2), (6, 2, 3, 3), (8, 2, 3, 4)] {
            let (inst, is_up) = layered_special(periods, m, dk, (0.5, 2.0), 42);
            let sf = SpecialForm::new(inst).unwrap();
            let layers = assign_layers_mod(&sf, &is_up, 4 * big_r, ObjectiveId::new(0)).unwrap();
            let run = solve_special(&sf, big_r);
            let g = CommGraph::new(sf.instance());
            for j in 0..big_r {
                let y = shifted_solution(&sf, &layers, &run.g, big_r, j);
                assert!(
                    y.is_feasible(sf.instance(), 1e-9),
                    "Lemma 9 feasibility: periods {periods} R {big_r} j {j}"
                );
                for k in sf.instance().objectives() {
                    let lk = layers.layer[g.objective_index(k) as usize] as i64;
                    let passive = (lk - (4 * j as i64 - 4)).rem_euclid(4 * big_r as i64) == 0;
                    let val = y.objective_value(sf.instance(), k);
                    if passive {
                        assert!(val.abs() < 1e-9, "passive objective must read 0, got {val}");
                    } else {
                        let min_s = sf
                            .instance()
                            .objective_row(k)
                            .iter()
                            .map(|e| run.s[e.agent.idx()])
                            .fold(f64::INFINITY, f64::min);
                        assert!(
                            val >= min_s - 1e-9,
                            "active objective ≥ min s: {val} < {min_s}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lemma10_averaged_solution() {
        let (inst, is_up) = layered_special(6, 2, 3, (0.5, 2.0), 7);
        let sf = SpecialForm::new(inst).unwrap();
        let big_r = 3;
        let layers = assign_layers_mod(&sf, &is_up, 4 * big_r, ObjectiveId::new(0)).unwrap();
        let run = solve_special(&sf, big_r);
        let y = averaged_solution(&sf, &layers, &run.g, big_r);
        assert!(y.is_feasible(sf.instance(), 1e-9), "Lemma 10 feasibility");
        // y equals the mean of the R shifted solutions.
        let mut mean = Solution::zeros(sf.n_agents());
        for j in 0..big_r {
            let yj = shifted_solution(&sf, &layers, &run.g, big_r, j);
            for v in sf.instance().agents() {
                *mean.value_mut(v) += yj.value(v) / big_r as f64;
            }
        }
        for v in sf.instance().agents() {
            assert!((mean.value(v) - y.value(v)).abs() < 1e-12, "eq. (20)");
        }
        // And the objective bound.
        for k in sf.instance().objectives() {
            let min_s = sf
                .instance()
                .objective_row(k)
                .iter()
                .map(|e| run.s[e.agent.idx()])
                .fold(f64::INFINITY, f64::min);
            assert!(
                y.objective_value(sf.instance(), k) >= (1.0 - 1.0 / big_r as f64) * min_s - 1e-9,
                "Lemma 10 bound"
            );
        }
    }

    #[test]
    fn role_average_reproduces_the_output() {
        let (inst, _) = layered_special(6, 2, 3, (0.5, 2.0), 3);
        let sf = SpecialForm::new(inst).unwrap();
        let big_r = 3;
        let run = solve_special(&sf, big_r);
        let rebuilt = role_average(&sf, &run.g, big_r);
        let reference = smoothing::output(&sf, &run.g, big_r);
        for v in sf.instance().agents() {
            assert!(
                (rebuilt.value(v) - reference.value(v)).abs() < 1e-12,
                "eq. (18) = role average (§6.2)"
            );
        }
    }
}
