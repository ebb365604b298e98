//! The delta-solve coordinator behind `PUT_DELTA`/`SOLVE_DELTA`: the
//! in-memory revision graph (content-hashed lineage `base → new` per
//! registered delta) plus a byte-budgeted LRU of live
//! [`DynamicSolver`]s, each parked at the revision it last solved.
//!
//! `SOLVE_DELTA hash:<rev>` resolves in one of three ways, cheapest
//! first:
//!
//! 1. **warm** — a solver is already parked at `<rev>` (for this
//!    `R`): render the body straight from its state;
//! 2. **advanced** — a solver is parked at an *ancestor* revision:
//!    replay the lineage deltas between the two through
//!    [`DynamicSolver::apply_delta`], which repairs ball-locally for
//!    coefficient edits, then re-park it at `<rev>`;
//! 3. **booted** — no solver anywhere on the chain: rebuild one from
//!    the nearest stored ancestor instance and replay forward. This is
//!    also how a restarted node recovers — lineage records are
//!    persisted through `mmlp-store`, so the chain replays from
//!    segments.
//!
//! A parked solver holds only its revision's `O(n·R)` solution state,
//! so its budgeted cost stays the same however far its chain advances.
//!
//! In every case the rendered body is **bit-identical** to a `SOLVE` of
//! the same revision: the dynamic solver's state is bitwise equal to a
//! from-scratch solve (asserted catalogue-wide in `mmlp-core`), and on
//! special-form instances the §4 pipeline is the exact identity, so the
//! two code paths format identical floats.

use crate::cache::Lru;
use crate::protocol::ErrorCode;
use mmlp_core::dynamic::DynamicSolver;
use mmlp_core::special::SpecialForm;
use mmlp_instance::delta::Delta;
use mmlp_instance::hash::hash_hex;
use mmlp_instance::{DegreeStats, Instance};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

// Lock order: `solvers` before `lineage`. The `solvers` mutex doubles
// as the coordinator's operation gate — it is held across a whole
// resolve (including a boot solve), which serialises concurrent
// `SOLVE_DELTA`s but makes the park/advance/render lifecycle race-free
// by construction: a parked solver can never be observed mid-replay or
// rendered for a revision it has already left.

/// Solvers are keyed by the revision they are parked at **and** `R`:
/// a different `R` needs a different horizon.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct SolverKey {
    revision: u64,
    big_r: usize,
}

/// One registered delta edge of the revision graph.
#[derive(Clone, Debug)]
pub struct LineageEdge {
    /// The base revision the delta applies to.
    pub base: u64,
    /// Canonical delta text (replayable bit-exactly).
    pub delta_text: String,
}

/// How a `SOLVE_DELTA` request reached its revision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaMode {
    /// A solver was already parked at the requested revision.
    Warm,
    /// An ancestor's solver was advanced by replaying lineage deltas.
    Advanced,
    /// A fresh solver was booted from a stored instance (plus replay).
    Booted,
}

impl DeltaMode {
    /// Stable lowercase tag used in metric labels and stats keys.
    pub fn tag(&self) -> &'static str {
        match self {
            DeltaMode::Warm => "warm",
            DeltaMode::Advanced => "advanced",
            DeltaMode::Booted => "booted",
        }
    }
}

/// Work accounting for one `SOLVE_DELTA`, fed to the metrics layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaSolveInfo {
    /// Resolution path.
    pub mode: DeltaMode,
    /// Lineage deltas replayed during this request.
    pub replayed: u64,
    /// Agents whose output the replays recomputed (the dirty balls).
    pub recomputed_x: u64,
    /// Agents in the revision (denominator for the dirty fraction).
    pub n_agents: u64,
}

/// Cycle guard on lineage walks. Content-hashed lineage cannot cycle
/// short of an FNV collision, but a walk must still terminate.
const CHAIN_CAP: usize = 100_000;

/// The revision graph + parked-solver cache. All methods are `&self`;
/// locks are never held across a solve.
pub struct DeltaCoordinator {
    lineage: Mutex<HashMap<u64, LineageEdge>>,
    solvers: Mutex<Lru<SolverKey, DynamicSolver>>,
}

impl DeltaCoordinator {
    /// An empty coordinator whose parked solvers share `budget` bytes.
    pub fn new(budget: u64) -> Self {
        DeltaCoordinator {
            lineage: Mutex::new(HashMap::new()),
            solvers: Mutex::new(Lru::new(budget)),
        }
    }

    /// Records one lineage edge `base → new` (idempotent — re-recording
    /// the same new-revision hash overwrites with identical content,
    /// since the hash covers the delta text and its base).
    pub fn record(&self, new: u64, base: u64, delta_text: String) {
        self.lineage
            .lock()
            .expect("lineage lock")
            .insert(new, LineageEdge { base, delta_text });
    }

    /// Number of lineage edges known.
    pub fn lineage_len(&self) -> usize {
        self.lineage.lock().expect("lineage lock").len()
    }

    /// `(parked solvers, approximate resident bytes)`.
    pub fn solver_stats(&self) -> (usize, u64) {
        let s = self.solvers.lock().expect("solver lock");
        (s.len(), s.used())
    }

    /// Resolves `revision` to a solver (warm / advanced / booted, see
    /// the module docs), renders the `SOLVE`-format body from its
    /// state, and re-parks it. `fetch` resolves a revision hash to its
    /// stored instance (the engine's instance store).
    pub fn solve<F>(
        &self,
        revision: u64,
        big_r: usize,
        fetch: F,
    ) -> Result<(String, DeltaSolveInfo), (ErrorCode, String)>
    where
        F: Fn(u64) -> Option<Arc<Instance>>,
    {
        let key = SolverKey { revision, big_r };
        let mut solvers = self.solvers.lock().expect("solver lock");
        // Fast path: a solver parked at exactly this revision.
        if let Some(solver) = solvers.get(&key) {
            let info = DeltaSolveInfo {
                mode: DeltaMode::Warm,
                replayed: 0,
                recomputed_x: 0,
                n_agents: solver.special_form().n_agents() as u64,
            };
            return Ok((render_solve_body(solver), info));
        }

        // Walk lineage back from the revision until an ancestor with a
        // parked solver or a stored instance turns up. `pending` ends
        // up newest-first; replay consumes it from the back.
        let mut pending: Vec<String> = Vec::new();
        let mut cursor = revision;
        let (mut solver, mode) = loop {
            if pending.len() > CHAIN_CAP {
                return Err((
                    ErrorCode::Internal,
                    format!("lineage chain exceeds {CHAIN_CAP} edges"),
                ));
            }
            if cursor != revision {
                // Taking the ancestor's solver out (rather than
                // cloning) keeps one canonical solver per chain tip; a
                // later request for the old revision just re-boots.
                if let Some(solver) = solvers.remove(&SolverKey {
                    revision: cursor,
                    big_r,
                }) {
                    break (solver, DeltaMode::Advanced);
                }
            }
            let edge = self
                .lineage
                .lock()
                .expect("lineage lock")
                .get(&cursor)
                .cloned();
            match edge {
                Some(e) => {
                    pending.push(e.delta_text);
                    cursor = e.base;
                }
                None => {
                    // Chain root (or a directly-PUT revision): boot from
                    // the stored instance.
                    let inst = fetch(cursor).ok_or_else(|| {
                        (
                            ErrorCode::NoBase,
                            format!(
                                "no stored revision {} to boot the delta chain from",
                                hash_hex(cursor)
                            ),
                        )
                    })?;
                    let sf = SpecialForm::new((*inst).clone()).map_err(|e| {
                        (
                            ErrorCode::BadDelta,
                            format!(
                                "revision {} is not in special form ({e}); \
                                 SOLVE_DELTA serves special-form chains — use SOLVE",
                                hash_hex(cursor)
                            ),
                        )
                    })?;
                    break (DynamicSolver::new(sf, big_r, 1), DeltaMode::Booted);
                }
            }
        };

        // Replay oldest-first up to the requested revision.
        let mut recomputed_x = 0;
        let replayed = pending.len() as u64;
        while let Some(text) = pending.pop() {
            let delta = Delta::parse_text(&text).map_err(|e| {
                (
                    ErrorCode::Internal,
                    format!("recorded lineage delta fails to re-parse: {e}"),
                )
            })?;
            let rep = solver.apply_delta(&delta).map_err(|e| {
                (
                    ErrorCode::BadDelta,
                    format!("lineage replay toward {}: {e}", hash_hex(revision)),
                )
            })?;
            recomputed_x += rep.recomputed_x as u64;
        }

        let body = render_solve_body(&solver);
        let info = DeltaSolveInfo {
            mode,
            replayed,
            recomputed_x,
            n_agents: solver.special_form().n_agents() as u64,
        };
        let cost = solver_cost(&solver);
        solvers.insert(key, solver, cost);
        Ok((body, info))
    }

    /// Every lineage edge, for warm-start round-trip tests.
    pub fn lineage_snapshot(&self) -> Vec<(u64, LineageEdge)> {
        self.lineage
            .lock()
            .expect("lineage lock")
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }
}

/// Approximate resident bytes of a parked solver: per-agent state
/// (`t`/`s`/`x` plus `2(R−1)` g-table levels at 8 bytes each, BFS
/// buffers). Constant per revision — a solver never grows as its chain
/// advances.
fn solver_cost(s: &DynamicSolver) -> u64 {
    let n = s.special_form().n_agents() as u64;
    let levels = (s.big_r() - 1) as u64;
    n * (16 * levels + 96)
}

/// Renders the `SOLVE`-format reply body from a dynamic solver's state.
///
/// This mirrors `engine::execute_traced`'s `Op::Solve` arm line for
/// line. For special-form instances the §4 transform is the identity
/// (every stage passes through and the back-map multiplies by exactly
/// `1.0`), so `utility`/`guarantee`/`optimum_upper_bound`/`x` here are
/// computed by the same functions on the same bits — bodies are
/// byte-identical, which the e2e suite and the loadgen `--mutate` probe
/// both assert.
pub fn render_solve_body(solver: &DynamicSolver) -> String {
    let inst = solver.special_form().instance();
    let run = solver.run();
    let stats = DegreeStats::of(inst);
    let mut out = String::new();
    let _ = writeln!(out, "utility {}", run.x.utility(inst));
    let _ = writeln!(
        out,
        "guarantee {}",
        mmlp_core::ratio::guarantee(stats.delta_i.max(2), stats.delta_k.max(2), solver.big_r())
    );
    let _ = writeln!(
        out,
        "optimum_upper_bound {}",
        run.s.iter().copied().fold(f64::INFINITY, f64::min)
    );
    for v in inst.agents() {
        let _ = writeln!(out, "x {} {}", v.raw(), run.x.value(v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::execute;
    use crate::protocol::Op;
    use mmlp_instance::delta::{Edit, RowKind};
    use mmlp_instance::hash::instance_hash;
    use mmlp_instance::textfmt;

    fn special_instance(size: usize, seed: u64) -> Instance {
        mmlp_gen::catalog()
            .iter()
            .find(|f| f.name == "special-form")
            .unwrap()
            .instance(size, seed)
    }

    fn coef_delta(inst: &Instance, cons: u32, factor: f64) -> Delta {
        let i = mmlp_instance::ConstraintId::new(cons);
        let row = inst.constraint_row(i);
        Delta::single(
            instance_hash(inst),
            Edit::SetCoef {
                row: RowKind::Constraint,
                row_id: cons,
                agent: row[0].agent,
                coef: row[0].coef * factor,
            },
        )
    }

    #[test]
    fn rendered_body_is_bit_identical_to_solve() {
        for (size, seed) in [(16, 0), (24, 7)] {
            let inst = special_instance(size, seed);
            let sf = SpecialForm::new(inst.clone()).unwrap();
            for big_r in [2, 3] {
                let solver = DynamicSolver::new(sf.clone(), big_r, 1);
                let via_delta = render_solve_body(&solver);
                let via_solve = execute(Op::Solve, &inst, big_r, 1).unwrap();
                assert_eq!(
                    via_delta, via_solve,
                    "size {size} seed {seed} R {big_r}: the delta path must \
                     render the same bytes as SOLVE"
                );
            }
        }
    }

    #[test]
    fn warm_advanced_and_booted_all_agree_with_scratch() {
        let coordinator = DeltaCoordinator::new(1 << 20);
        let v0 = special_instance(20, 3);
        let store: Mutex<HashMap<u64, Arc<Instance>>> = Mutex::new(HashMap::new());
        store
            .lock()
            .unwrap()
            .insert(instance_hash(&v0), Arc::new(v0.clone()));
        let fetch = |h: u64| store.lock().unwrap().get(&h).cloned();

        // Register a 3-edit chain v0 → v1 → v2 → v3.
        let mut cur = v0.clone();
        let mut tip = instance_hash(&v0);
        for (cons, factor) in [(0u32, 1.5), (2, 0.8), (1, 1.1)] {
            let d = coef_delta(&cur, cons, factor);
            let (next, lin) = d.apply_hashed(&cur).unwrap();
            coordinator.record(lin.new, lin.base, d.to_text());
            cur = next;
            tip = lin.new;
        }

        // Cold: boots at v0, replays 3 deltas.
        let (body, info) = coordinator.solve(tip, 3, fetch).unwrap();
        assert_eq!(info.mode, DeltaMode::Booted);
        assert_eq!(info.replayed, 3);
        assert!(info.recomputed_x > 0);
        assert_eq!(body, execute(Op::Solve, &cur, 3, 1).unwrap());

        // Warm: the solver is parked at the tip now.
        let (again, info) = coordinator.solve(tip, 3, fetch).unwrap();
        assert_eq!(info.mode, DeltaMode::Warm);
        assert_eq!(again, body);

        // Advanced: one more edit moves the parked solver forward.
        let d = coef_delta(&cur, 4, 2.0);
        let (v4, lin) = d.apply_hashed(&cur).unwrap();
        coordinator.record(lin.new, lin.base, d.to_text());
        let (body4, info) = coordinator.solve(lin.new, 3, fetch).unwrap();
        assert_eq!(info.mode, DeltaMode::Advanced);
        assert_eq!(info.replayed, 1);
        assert_eq!(body4, execute(Op::Solve, &v4, 3, 1).unwrap());
        assert_eq!(coordinator.solver_stats().0, 1, "one solver, re-parked");
    }

    #[test]
    fn unknown_root_is_nobase_and_non_special_is_baddelta() {
        let coordinator = DeltaCoordinator::new(1 << 20);
        let err = coordinator.solve(0xdead, 3, |_| None).unwrap_err();
        assert_eq!(err.0, ErrorCode::NoBase);

        // A general (non-special-form) instance at the chain root.
        let general = mmlp_gen::catalog()
            .iter()
            .find(|f| f.name == "random-3x3")
            .unwrap()
            .instance(12, 0);
        let h = instance_hash(&general);
        let general = Arc::new(general);
        let err = coordinator
            .solve(h, 3, |q| (q == h).then(|| Arc::clone(&general)))
            .unwrap_err();
        assert_eq!(err.0, ErrorCode::BadDelta);
    }

    #[test]
    fn lineage_survives_a_canonical_text_round_trip() {
        // What put_delta persists is what replay parses.
        let inst = special_instance(16, 1);
        let d = coef_delta(&inst, 1, 1.25);
        let text = d.to_text();
        let back = Delta::parse_text(&text).unwrap();
        assert_eq!(back, d);
        let _ = textfmt::write_instance(&d.apply(&inst).unwrap());
    }
}
