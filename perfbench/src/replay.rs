//! The traced run's in-process replay: the exact inputs of the socket
//! run, re-run through each crate's public calls, one span per call.
//!
//! Span trees per request (names are `<crate>.<call>`; `put` and
//! `execute` are the server's pipeline rebuilt from its parts, so their
//! self time is the glue between the calls):
//!
//! ```text
//! replay ─ serve.cmd_parse
//!        ├ put ─ instance.parse, instance.canon              (cold)
//!        ├ serve.put, serve.cache_probe
//!        ├ execute ─ core.transform, net.gather, core.t_flat,
//!        │           core.smooth_g, core.map_back
//!        ├ serve.execute, core.solve, core.t_tree
//!        ├ instance.delta_parse, instance.delta_apply,       (delta)
//!        │ serve.delta_put, serve.delta_solve, core.dynamic_apply
//!        └ serve.cache_insert, store.put_instance, store.append
//! ```

use crate::server::copy_dir;
use crate::trace::Tracer;
use crate::workload::{
    cold_request, delta_base, hit_request, trace_id, DeltaChain, HitStream, Workload, Zipf,
    CONNECTIONS, HIT_R,
};
use mmlp_core::distributed::t_batch_flat;
use mmlp_core::dynamic::DynamicSolver;
use mmlp_core::smoothing::{g_tables, output, smooth};
use mmlp_core::solver::LocalSolver;
use mmlp_core::transform::to_special_form;
use mmlp_core::tree_bound::TreeBound;
use mmlp_core::SpecialForm;
use mmlp_instance::delta::Delta;
use mmlp_instance::hash::fnv1a64;
use mmlp_instance::textfmt;
use mmlp_net::{gather_views_flat, Network};
use mmlp_serve::delta::DeltaMode;
use mmlp_serve::engine::{execute, CacheKey, Engine};
use mmlp_serve::protocol::{parse_command, Op, LINEAGE_OP_CODE};
use mmlp_serve::server::ServeConfig;
use mmlp_store::{ResultKey, Store};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests replayed per connection, by workload.
fn replay_len(w: Workload) -> usize {
    match w {
        Workload::HitsOpen => 2000,
        Workload::ColdRing | Workload::ColdGrid => 16,
        Workload::DeltaChain => 200,
    }
}

/// `delta-chain` steps per connection the other workloads replay.
const DELTA_PROBE: usize = 50;

/// Opens of the snapshot timed for `store.open_ms`/`serve.warm_start_ms`.
const OPENS: usize = 5;

/// What the replay measured beyond its spans.
pub struct Replay {
    /// Every span.
    pub tracer: Tracer,
    /// `RunStats::dedup_ratio` of each replayed cold gather.
    pub dedup: Vec<f64>,
    /// `DynamicSolver::arena_len` at the end of each chain.
    pub arena_len: Vec<f64>,
    /// Warm `Engine::solve_delta` resolutions, and all of them.
    pub delta_warm: (u64, u64),
    /// `serve.execute` − `core.solve` per cold request, in ns.
    pub render_ns: Vec<f64>,
    /// Milliseconds of each `Store::open` and `Engine::with_store`.
    pub open_ms: Vec<f64>,
    /// See `open_ms`.
    pub warm_ms: Vec<f64>,
    /// Disagreements with the socket run (must stay empty).
    pub mismatches: Vec<String>,
}

/// Replays the first requests of each connection of a `w` run under
/// `seed`. `served` maps `(connection, index)` to the body the server
/// sent for it, where the run kept bodies; `hit_bodies` holds the
/// solved body of each `hits-open` key.
pub fn replay(
    w: Workload,
    seed: u64,
    snapshot: &Path,
    dir: &Path,
    hit_hashes: &[u64],
    served: &HashMap<(usize, usize), String>,
) -> Result<Replay, String> {
    let cfg = ServeConfig::default();
    let mut r = Replay {
        tracer: Tracer::default(),
        dedup: Vec::new(),
        arena_len: Vec::new(),
        delta_warm: (0, 0),
        render_ns: Vec::new(),
        open_ms: Vec::new(),
        warm_ms: Vec::new(),
        mismatches: Vec::new(),
    };
    let io = |e: std::io::Error| e.to_string();
    let mut warm = None;
    for i in 0..OPENS {
        let copy = dir.join(format!("open-{i}"));
        copy_dir(snapshot, &copy).map_err(io)?;
        let t0 = Instant::now();
        let (store, _) = Store::open(&copy).map_err(io)?;
        let t1 = Instant::now();
        let engine = Engine::with_store(cfg.cache_bytes, cfg.store_bytes, store).map_err(io)?;
        let t2 = Instant::now();
        r.open_ms.push(ms(t1 - t0));
        r.warm_ms.push(ms(t2 - t1));
        warm = Some(engine);
    }
    let warm = warm.expect("at least one open");
    let (appends, _) = Store::open(dir.join("open-0")).map_err(io)?;
    let mem = Engine::new(cfg.cache_bytes, cfg.store_bytes);
    let t = &mut r.tracer;
    let n = replay_len(w);
    match w {
        Workload::HitsOpen => {
            let zipf = Zipf::new(seed);
            for conn in 0..CONNECTIONS {
                let mut stream = HitStream::new(seed, conn);
                for j in 0..n {
                    let (key, _) = stream.next(&zipf);
                    let wire = hit_request(hit_hashes[key]);
                    t.begin_request(trace_id(conn, j), "replay");
                    t.span("serve.cmd_parse", || parse_command(wire.trim_end()))?;
                    let ck = CacheKey::new(hit_hashes[key], Op::Solve, HIT_R, 1);
                    if t.span("serve.cache_probe", || warm.cached(&ck)).is_none() {
                        r.mismatches
                            .push(format!("key {key} not resident after warm start"));
                    }
                    t.end_request();
                }
            }
        }
        Workload::ColdRing | Workload::ColdGrid => {
            for conn in 0..w.connections() {
                for j in 0..n {
                    let (big_r, inst, req) = cold_request(w, seed, conn, j);
                    let (line, text) = (req.line.as_str(), req.body.as_str());
                    t.begin_request(trace_id(conn, j), "replay");
                    t.span("serve.cmd_parse", || parse_command(line))?;
                    t.enter("put");
                    let parsed = t
                        .span("instance.parse", || textfmt::parse_instance(text))
                        .map_err(|e| e.to_string())?;
                    let hash = t.span("instance.canon", || {
                        fnv1a64(textfmt::write_instance(&parsed).as_bytes())
                    });
                    t.exit();
                    t.span("serve.put", || mem.put(text)).map_err(|e| e.1)?;
                    let key = CacheKey::new(hash, Op::Solve, big_r, 1);
                    t.span("serve.cache_probe", || mem.cached(&key));

                    t.enter("execute");
                    let (tf, sf) = t.span("core.transform", || {
                        let tf = to_special_form(&parsed);
                        let sf = SpecialForm::new(tf.instance.clone()).expect("special form");
                        (tf, sf)
                    });
                    let views = t.span("net.gather", || {
                        let net = Network::new(sf.instance());
                        gather_views_flat(&net, 4 * (big_r - 2) + 2)
                    });
                    let agents = sf.n_agents();
                    let tv = t.span("core.t_flat", || {
                        t_batch_flat(&views.arena, &views.roots[..agents], big_r, 1)
                    });
                    let x = t.span("core.smooth_g", || {
                        let s = smooth(&sf, &tv, big_r - 2);
                        let g = g_tables(&sf, &s, big_r - 2);
                        output(&sf, &g, big_r)
                    });
                    let x = t.span("core.map_back", || tf.map_back(&x));
                    t.exit();
                    r.dedup.push(views.stats.dedup_ratio());

                    let body = t
                        .span("serve.execute", || execute(Op::Solve, &inst, big_r, 1))
                        .map_err(|e| format!("execute: {e}"))?;
                    let solved = t.span("core.solve", || {
                        LocalSolver::new(big_r).via_network(true).solve(&inst)
                    });
                    t.span("core.t_tree", || TreeBound::new(&sf, big_r).all());
                    let spans = t.spans();
                    let last = |name| spans.iter().rev().find(|s| s.name == name).map(|s| s.ns());
                    r.render_ns.push(
                        last("serve.execute").unwrap_or(0) as f64
                            - last("core.solve").unwrap_or(0) as f64,
                    );
                    let same_x = inst
                        .agents()
                        .all(|v| x.value(v).to_bits() == solved.solution.value(v).to_bits());
                    if !same_x {
                        r.mismatches.push(format!(
                            "request {conn}/{j}: decomposed x differs from the solve"
                        ));
                    }
                    if served.get(&(conn, j)).is_some_and(|b| *b != body) {
                        r.mismatches.push(format!(
                            "request {conn}/{j}: served body differs from execute"
                        ));
                    }
                    let body = Arc::new(body);
                    t.span("serve.cache_insert", || mem.insert(key, Arc::clone(&body)));
                    t.span("store.put_instance", || appends.put_instance(&inst))
                        .map_err(io)?;
                    let rkey = result_key(hash, Op::Solve, big_r);
                    t.span("store.append", || appends.put_result(rkey, &body))
                        .map_err(io)?;
                    t.end_request();
                }
            }
        }
        Workload::DeltaChain => replay_delta(seed, n, served, &mem, &appends, &mut r)?,
    }
    if w != Workload::DeltaChain {
        // `delta-chain` is not in BENCHMARK.json (see README.md), so the
        // other workloads' traced runs time the delta layers on the
        // first steps of its chains.
        replay_delta(seed, DELTA_PROBE, &HashMap::new(), &mem, &appends, &mut r)?;
    }
    Ok(r)
}

/// Replays the first `n` steps of each connection's `delta-chain`
/// chain under `seed`, checking them against the `served` bodies.
fn replay_delta(
    seed: u64,
    n: usize,
    served: &HashMap<(usize, usize), String>,
    mem: &Engine,
    appends: &Store,
    r: &mut Replay,
) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let t = &mut r.tracer;
    let base = delta_base(seed);
    mem.put(&textfmt::write_instance(&base)).map_err(|e| e.1)?;
    for conn in 0..CONNECTIONS {
        let mut chain = DeltaChain::new(&base, seed, conn);
        let mut cur = base.clone();
        let sf = SpecialForm::new(base.clone()).map_err(|e| e.to_string())?;
        let mut dynamic = DynamicSolver::new(sf, HIT_R, 1);
        for j in 0..n {
            let step = chain.step();
            let line = format!("SOLVE_DELTA inline:{} R={HIT_R}", step.text.len());
            t.begin_request(trace_id(conn, j), "replay");
            t.span("serve.cmd_parse", || parse_command(&line))?;
            let delta = t
                .span("instance.delta_parse", || Delta::parse_text(&step.text))
                .map_err(|e| e.to_string())?;
            let (next, lineage) = t
                .span("instance.delta_apply", || delta.apply_hashed(&cur))
                .map_err(|e| e.to_string())?;
            t.span("serve.delta_put", || mem.put_delta(&step.text))
                .map_err(|e| e.1)?;
            let key = CacheKey::new(lineage.new, Op::SolveDelta, HIT_R, 1);
            t.span("serve.cache_probe", || mem.cached(&key));
            let (body, info) = t
                .span("serve.delta_solve", || {
                    mem.solve_delta(lineage.new, HIT_R, 1)
                })
                .map_err(|e| e.1)?;
            r.delta_warm.0 += u64::from(info.mode == DeltaMode::Warm);
            r.delta_warm.1 += 1;
            t.span("core.dynamic_apply", || dynamic.apply_delta(&delta))
                .map_err(|e| e.to_string())?;
            if served.get(&(conn, j)).is_some_and(|b| *b != body) {
                r.mismatches.push(format!(
                    "step {conn}/{j}: served body differs from solve_delta"
                ));
            }
            let body = Arc::new(body);
            t.span("serve.cache_insert", || mem.insert(key, Arc::clone(&body)));
            t.span("store.put_instance", || appends.put_instance(&next))
                .map_err(io)?;
            let lkey = ResultKey {
                instance: lineage.new,
                op: LINEAGE_OP_CODE,
                big_r: 0,
                threads: 0,
            };
            t.span("store.append", || appends.put_result(lkey, &step.text))
                .map_err(io)?;
            let rkey = result_key(lineage.new, Op::SolveDelta, HIT_R);
            t.span("store.append", || appends.put_result(rkey, &body))
                .map_err(io)?;
            t.end_request();
            cur = next;
        }
        r.arena_len.push(dynamic.arena_len() as f64);
    }
    Ok(())
}

fn result_key(instance: u64, op: Op, big_r: usize) -> ResultKey {
    ResultKey {
        instance,
        op: op.code(),
        big_r: big_r as u32,
        threads: 1,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
