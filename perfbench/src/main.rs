//! `perfbench`: the repository's end-to-end serve benchmark.
//!
//! ```text
//! perfbench --server <maxmin-lp binary> --workload <name> --seed <n>
//!           --seconds <s> --trace <0|1> [--work-dir <dir>] [--doctor]
//! ```
//!
//! Starts the release `maxmin-lp serve` as its own process, drives it
//! over TCP with one or two connections, checks every reply, and prints the
//! metrics, the last line being one JSON object. `--trace 0` measures
//! the end-to-end metrics; `--trace 1` measures the per-layer metrics
//! (an untraced and a traced window, then an in-process replay).
//! `--doctor` nudges the `x` values of one reply body before the
//! correctness gate, to show that the gate fails the run. See
//! `README.md`.

mod gate;
mod load;
mod replay;
mod server;
mod trace;
mod workload;

use load::{closed_loop, OpenLoop, Tally};
use mmlp_instance::{textfmt, Instance};
use mmlp_serve::client::{Client, ClientReply};
use mmlp_serve::engine::{execute, CacheKey, Engine};
use mmlp_serve::protocol::Op;
use mmlp_serve::server::ServeConfig;
use mmlp_store::Store;
use server::{stat_delta, Server, Stats, WorkDir};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use workload::{
    cold_request, delta_base, delta_request, hit_instances, DeltaChain, Workload, Zipf, HIT_R,
};

/// Server boots per run (odd); `setup_s` is their median.
const SETUP_BOOTS: usize = 21;
/// The pause before each boot. Boot times on a shared VM shift between
/// levels that last about 0.1 s; spacing the boots out keeps them from
/// all landing in one.
const BOOT_GAP: Duration = Duration::from_millis(100);
/// `hits-open`'s offered rate in its open-loop phase, in requests/s,
/// fixed after one calibration.
const OPEN_RATE: f64 = 10_000.0;
/// The share of a `hits-open` run spent in the open-loop phase; the
/// rest is the saturating closed-loop phase.
const OPEN_SHARE: f64 = 0.3;
/// A run whose open-loop sends are later than this at p99 is invalid:
/// its latencies would measure the load generator.
const LATE_P99_BOUND_US: f64 = 1000.0;
/// `delta-chain` steps per chain re-solved from scratch for the
/// byte-identity check (evenly spaced, always including the last).
const DELTA_ORACLES: usize = 64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    work: PathBuf,
    doctor: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut work = PathBuf::from(".bench_work");
    let mut doctor = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = val()?;
                workload = Some(Workload::from_name(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(val()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(val()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => trace = Some(val()? == "1"),
            "--server" => server = Some(PathBuf::from(val()?)),
            "--work-dir" => work = PathBuf::from(val()?),
            "--doctor" => doctor = true,
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        server: server.ok_or("--server is required")?,
        work,
        doctor,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// Everything a run reports.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    invalid: Vec<String>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            invalid: Vec::new(),
        }
    }

    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    fn guard(&mut self, ok: bool, what: String) {
        if !ok {
            self.invalid.push(what);
        }
    }

    fn count(&mut self, t: &Tally) {
        self.attempted += t.sent;
        self.failed += t.failed();
        self.problems.extend(t.failures.iter().cloned());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let mut json = String::new();
    for m in &out.metrics {
        println!(
            "{:<10} {:<24} {:>14.6} {:<6} n={}",
            args.workload.name(),
            m.name,
            m.value,
            m.unit,
            m.samples
        );
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            if json.is_empty() { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    for p in &out.problems {
        println!("FAIL {p}");
    }
    for g in &out.invalid {
        println!("INVALID {g}");
    }
    let correct = out.failed == 0 && out.problems.is_empty() && out.invalid.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.attempted.max(1),
        out.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

/// The solved working set: content hashes and reply bodies of the
/// `hits-open` keys, and the instances they answer.
struct Snapshot {
    dir: PathBuf,
    hashes: Arc<Vec<u64>>,
    bodies: Arc<Vec<Arc<String>>>,
    instances: Vec<Instance>,
}

/// Writes the store snapshot every server boots from: `hits-open`'s
/// working set, `PUT` and solved through the same engine calls the
/// server makes.
fn build_snapshot(seed: u64, dir: &Path) -> Result<Snapshot, String> {
    let cfg = ServeConfig::default();
    let io = |e: std::io::Error| format!("snapshot: {e}");
    let (store, _) = Store::open(dir).map_err(io)?;
    let engine = Engine::with_store(cfg.cache_bytes, cfg.store_bytes, store).map_err(io)?;
    let instances = hit_instances(seed);
    let mut hashes = Vec::new();
    let mut bodies = Vec::new();
    for inst in &instances {
        let h = engine
            .put(&textfmt::write_instance(inst))
            .map_err(|e| e.1)?;
        let body = Arc::new(execute(Op::Solve, inst, HIT_R, 1)?);
        engine.insert(CacheKey::new(h, Op::Solve, HIT_R, 1), Arc::clone(&body));
        hashes.push(h);
        bodies.push(body);
    }
    if engine.persist_errors() > 0 {
        return Err("snapshot: store appends failed".into());
    }
    Ok(Snapshot {
        dir: dir.to_path_buf(),
        hashes: Arc::new(hashes),
        bodies: Arc::new(bodies),
        instances,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::new(args.work.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    )))
    .map_err(|e| format!("work dir: {e}"))?;
    let snap = build_snapshot(args.seed, &work.0.join("snapshot"))?;
    let mut out = Outcome::new();
    if args.trace {
        traced(args, &snap, &work.0, &mut out)?;
    } else {
        untraced(args, &snap, &work.0, &mut out)?;
    }
    Ok(out)
}

/// The `--trace 0` run: the end-to-end metrics.
fn untraced(args: &Args, snap: &Snapshot, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let boot = |i: usize| {
        Server::boot(
            &args.server,
            &snap.dir,
            &work.join(format!("boot-{i}")),
            None,
        )
    };
    // Half the boots come before the window and half after it, so that
    // their median spans the whole run; the middle boot is measured.
    let mut setups = Vec::new();
    let mut boot_and_stop = |i: usize| -> Result<(), String> {
        std::thread::sleep(BOOT_GAP);
        let s = boot(i)?;
        setups.push(s.setup_s);
        s.shutdown()
    };
    (0..SETUP_BOOTS / 2).try_for_each(&mut boot_and_stop)?;
    let server = boot(SETUP_BOOTS / 2)?;
    let before = server.stats()?;
    let cpu0 = server.cpu_s()?;
    let w = run_window(args, snap, &server, args.seconds, false)?;
    let cpu = server.cpu_s()? - cpu0;
    let after = server.stats()?;
    let rss = server.rss_peak_mb()?;
    let setup_s = server.setup_s;
    server.shutdown()?;
    (SETUP_BOOTS / 2 + 1..SETUP_BOOTS).try_for_each(&mut boot_and_stop)?;
    setups.push(setup_s);
    for t in w.tallies() {
        out.count(t);
    }
    gate(args, snap, &w, out);
    shape_guards(args.workload, &before, &after, &w, out);

    if let Some(open) = &w.open {
        // Printed, not gated: see README.md.
        let lat = sorted(&open.latency_ns);
        let late = sorted(&open.late_ns);
        println!(
            "open loop {OPEN_RATE}/s: p50 {:.4} ms  p99 {:.4} ms  n={}  late p99 {:.1} us",
            percentile(&lat, 0.5).0 / 1e6,
            percentile(&lat, 0.99).0 / 1e6,
            lat.len(),
            percentile(&late, 0.99).0 / 1e3
        );
    }
    let lat = sorted(&w.main.latency_ns);
    let (p99, beyond) = percentile(&lat, 0.99);
    out.put("setup_s", median(&setups), "s", setups.len());
    out.put(
        "ok_rps",
        w.main.ok as f64 / w.window_s,
        "1/s",
        w.main.ok as usize,
    );
    if args.workload.cold_family().is_some() {
        // Half the requests are n=64 and half n=256, so the window's
        // median falls in the gap between the two sizes and jumps
        // across it from run to run. Each shape's mean is reported: it
        // moves with the share of a run the host spends slow, where a
        // median jumps to whichever state holds the majority.
        for (k, (n, big_r)) in workload::COLD_SHAPES.iter().enumerate() {
            let lat = shape_latencies(&w.main, k);
            println!(
                "shape n={n} R={big_r}  p50 {:.3} ms  p99 {:.3} ms  n={}",
                percentile(&lat, 0.5).0 / 1e6,
                percentile(&lat, 0.99).0 / 1e6,
                lat.len()
            );
            out.put(
                format!("mean_n{n}_r{big_r}_ms"),
                mean(&lat) / 1e6,
                "ms",
                lat.len(),
            );
        }
    } else {
        out.put("p50_ms", percentile(&lat, 0.5).0 / 1e6, "ms", lat.len());
    }
    out.put("p99_ms", p99 / 1e6, "ms", lat.len());
    if beyond < 10 {
        println!("WARN only {beyond} latency samples lie beyond p99 (want 10): run longer");
    }
    // Every failure, the gate's included, against every request sent.
    let ok = out.attempted - out.failed;
    out.put(
        "ok_ratio",
        ok as f64 / out.attempted.max(1) as f64,
        "ratio",
        out.attempted as usize,
    );
    out.put(
        "cpu_us_per_req",
        cpu * 1e6 / ok.max(1) as f64,
        "us",
        ok as usize,
    );
    out.put("rss_peak_mb", rss, "MiB", 1);
    Ok(())
}

/// What one measurement window produced.
struct Window {
    /// The closed loop, whose latencies and rate are reported.
    main: Tally,
    /// Its length in seconds.
    window_s: f64,
    /// `hits-open`'s open-loop phase, which runs first.
    open: Option<Tally>,
    /// Bodies the closed loop kept, by `(connection, index)`.
    bodies: HashMap<(usize, usize), String>,
}

impl Window {
    /// Every phase's tally.
    fn tallies(&self) -> impl Iterator<Item = &Tally> {
        std::iter::once(&self.main).chain(&self.open)
    }
}

/// Drives one window of the workload against `server`.
fn run_window(
    args: &Args,
    snap: &Snapshot,
    server: &Server,
    seconds: f64,
    traced: bool,
) -> Result<Window, String> {
    match args.workload {
        Workload::HitsOpen => {
            let open = OpenLoop {
                addr: server.addr.clone(),
                seed: args.seed,
                hashes: Arc::clone(&snap.hashes),
                bodies: Arc::clone(&snap.bodies),
                zipf: Arc::new(Zipf::new(args.seed)),
                traced,
            };
            let open_s = seconds * OPEN_SHARE;
            let mut phases = open
                .phases(&[(open_s, Some(OPEN_RATE)), (seconds - open_s, None)])?
                .into_iter();
            let (open, _) = phases.next().expect("open phase");
            let (main, window_s) = phases.next().expect("closed phase");
            Ok(Window {
                main,
                window_s,
                open: Some(open),
                bodies: HashMap::new(),
            })
        }
        Workload::ColdRing | Workload::ColdGrid => {
            let kept = Mutex::new(HashMap::new());
            let (main, window_s) = closed_loop(
                &server.addr,
                args.workload.connections(),
                seconds,
                traced,
                |c, j| cold_request(args.workload, args.seed, c, j).2,
                |c, j, body| {
                    kept.lock().expect("no panics").insert((c, j), body);
                },
            )?;
            Ok(closed_window(main, window_s, kept))
        }
        Workload::DeltaChain => {
            let base = delta_base(args.seed);
            let put = Client::connect(&server.addr)
                .and_then(|mut c| c.put(&textfmt::write_instance(&base)));
            if !matches!(put, Ok(Ok(_))) {
                return Err(format!("PUT of the delta base failed: {put:?}"));
            }
            let chains: Vec<Mutex<DeltaChain>> = (0..args.workload.connections())
                .map(|c| Mutex::new(DeltaChain::new(&base, args.seed, c)))
                .collect();
            let kept = Mutex::new(HashMap::new());
            let (main, window_s) = closed_loop(
                &server.addr,
                args.workload.connections(),
                seconds,
                traced,
                |c, _| delta_request(chains[c].lock().expect("no panics").step().text),
                |c, j, body| {
                    kept.lock().expect("no panics").insert((c, j), body);
                },
            )?;
            Ok(closed_window(main, window_s, kept))
        }
    }
}

fn closed_window(
    main: Tally,
    window_s: f64,
    kept: Mutex<HashMap<(usize, usize), String>>,
) -> Window {
    Window {
        main,
        window_s,
        open: None,
        bodies: kept.into_inner().expect("no panics"),
    }
}

/// The correctness gate, outside the timed window.
fn gate(args: &Args, snap: &Snapshot, w: &Window, out: &mut Outcome) {
    let verdicts: Vec<(u64, Vec<String>)> = std::thread::scope(|s| {
        let jobs: Vec<_> = (0..args.workload.connections())
            .map(|c| s.spawn(move || gate_connection(args, snap, w, c)))
            .collect();
        jobs.into_iter()
            .map(|h| h.join().expect("gate thread panicked"))
            .collect()
    });
    for (wrong, errors) in verdicts {
        // A body the gate rejects was counted OK on arrival.
        out.failed += wrong;
        for e in errors {
            if out.problems.len() < 5 {
                out.problems.push(e);
            }
        }
    }
}

/// Gates the replies connection `c` received. For `hits-open` every
/// reply was byte-compared on arrival with its key's solved body, so
/// connection 0 gates those bodies.
fn gate_connection(args: &Args, snap: &Snapshot, w: &Window, c: usize) -> (u64, Vec<String>) {
    let mut wrong = 0;
    let mut errors = Vec::new();
    let mut doctor = args.doctor && c == 0;
    let mut check = |body: &str, inst: &Instance, big_r: usize, oracle: Option<String>| {
        let doctored;
        let body = if std::mem::take(&mut doctor) {
            doctored = doctor_body(body);
            &doctored
        } else {
            body
        };
        let verdict = gate::check(body, inst, big_r).and_then(|()| match oracle {
            Some(o) if o != body => Err("body differs from a from-scratch SOLVE".to_string()),
            _ => Ok(()),
        });
        if let Err(e) = verdict {
            wrong += 1;
            if errors.len() < 5 {
                errors.push(format!("gate: {e}"));
            }
        }
    };
    match args.workload {
        Workload::HitsOpen if c == 0 => {
            for (body, inst) in snap.bodies.iter().zip(&snap.instances) {
                check(body, inst, HIT_R, None);
            }
        }
        Workload::HitsOpen => {}
        Workload::ColdRing | Workload::ColdGrid => {
            let mut js: Vec<usize> = w.bodies.keys().filter(|k| k.0 == c).map(|k| k.1).collect();
            js.sort_unstable();
            for j in js {
                let (big_r, inst, _) = cold_request(args.workload, args.seed, c, j);
                check(&w.bodies[&(c, j)], &inst, big_r, None);
            }
        }
        Workload::DeltaChain => {
            let steps = w.bodies.keys().filter(|k| k.0 == c).map(|k| k.1 + 1).max();
            let steps = steps.unwrap_or(0);
            let stride = steps.div_ceil(DELTA_ORACLES).max(1);
            let mut chain = DeltaChain::new(&delta_base(args.seed), args.seed, c);
            for j in 0..steps {
                let step = chain.step();
                let Some(body) = w.bodies.get(&(c, j)) else {
                    continue;
                };
                let oracle = (j % stride == 0 || j + 1 == steps).then(|| {
                    execute(Op::Solve, &step.revision, HIT_R, 1)
                        .unwrap_or_else(|e| format!("execute failed: {e}"))
                });
                check(body, &step.revision, HIT_R, oracle);
            }
        }
    }
    (wrong, errors)
}

/// Nudges every `x` value of a body upward by 1%.
fn doctor_body(body: &str) -> String {
    body.lines()
        .map(
            |l| match l.strip_prefix("x ").and_then(|r| r.split_once(' ')) {
                Some((agent, v)) => {
                    format!("x {agent} {}\n", v.parse::<f64>().unwrap_or(0.0) * 1.01)
                }
                None => format!("{l}\n"),
            },
        )
        .collect()
}

/// Workload-shape guards from `STATS` differences: a run that breaks
/// one measured something other than its workload, so it is invalid.
fn shape_guards(w: Workload, before: &Stats, after: &Stats, win: &Window, out: &mut Outcome) {
    let d = |k| stat_delta(before, after, k);
    let requests: u64 = win.tallies().map(|t| t.sent).sum();
    match w {
        Workload::HitsOpen => {
            out.guard(
                d("cache_misses") == 0,
                format!("cache_misses {} ≠ 0", d("cache_misses")),
            );
            let late = sorted(&win.open.as_ref().expect("open phase").late_ns);
            let p99 = percentile(&late, 0.99).0 / 1e3;
            out.guard(
                p99 <= LATE_P99_BOUND_US,
                format!("loadgen late p99 {p99:.1} us > {LATE_P99_BOUND_US} us"),
            );
        }
        Workload::ColdRing | Workload::ColdGrid => {
            out.guard(
                d("cache_hits") == 0,
                format!("cache_hits {} ≠ 0", d("cache_hits")),
            );
            out.guard(
                d("cache_misses") == requests,
                format!("cache_misses {} ≠ requests {requests}", d("cache_misses")),
            );
        }
        Workload::DeltaChain => {
            let solves =
                d("delta_solves_warm") + d("delta_solves_advanced") + d("delta_solves_booted");
            out.guard(
                solves == requests,
                format!("delta solves {solves} ≠ requests {requests}"),
            );
        }
    }
    out.guard(
        d("persist_errors") == 0,
        format!("persist_errors {}", d("persist_errors")),
    );
}

/// The `--trace 1` run: an untraced and a traced window on fresh
/// servers, then the in-process replay; reports the per-layer metrics.
fn traced(args: &Args, snap: &Snapshot, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let half = args.seconds / 2.0;
    let plain = Server::boot(&args.server, &snap.dir, &work.join("plain"), None)?;
    let base = run_window(args, snap, &plain, half, false)?;
    plain.shutdown()?;
    for t in base.tallies() {
        out.count(t);
    }

    let journal = work.join("journal");
    let server = Server::boot(
        &args.server,
        &snap.dir,
        &work.join("traced"),
        Some(&journal),
    )?;
    let ping = ping_rtts(&server.addr, 2000)?;
    let before = server.stats()?;
    let w = run_window(args, snap, &server, half, true)?;
    let after = server.stats()?;
    server.shutdown()?;
    for t in w.tallies() {
        out.count(t);
    }
    gate(args, snap, &w, out);
    shape_guards(args.workload, &before, &after, &w, out);

    let t0 = Instant::now();
    let r = replay::replay(
        args.workload,
        args.seed,
        &snap.dir,
        work,
        &snap.hashes,
        &w.bodies,
    )?;
    eprintln!("perfbench: replay took {:.2} s", t0.elapsed().as_secs_f64());
    for m in &r.mismatches {
        out.problems.push(format!("replay: {m}"));
    }

    let spans = &r.tracer;
    let mut span_metric = |name: &'static str, span: &str, scale: f64, unit: &'static str| {
        let d: Vec<f64> = spans.durations(span).iter().map(|&ns| ns as f64).collect();
        out.put(name, median(&d) / scale, unit, d.len());
    };
    span_metric("instance.parse_us", "instance.parse", 1e3, "us");
    span_metric("instance.canon_us", "instance.canon", 1e3, "us");
    span_metric("instance.delta_parse_us", "instance.delta_parse", 1e3, "us");
    span_metric("instance.delta_apply_us", "instance.delta_apply", 1e3, "us");
    span_metric("core.transform_us", "core.transform", 1e3, "us");
    span_metric("core.solve_us", "core.solve", 1e3, "us");
    span_metric("core.t_flat_us", "core.t_flat", 1e3, "us");
    span_metric("core.smooth_g_us", "core.smooth_g", 1e3, "us");
    span_metric("core.map_back_us", "core.map_back", 1e3, "us");
    span_metric("core.t_tree_us", "core.t_tree", 1e3, "us");
    span_metric("core.dynamic_apply_us", "core.dynamic_apply", 1e3, "us");
    span_metric("net.gather_us", "net.gather", 1e3, "us");
    span_metric("serve.cmd_parse_ns", "serve.cmd_parse", 1.0, "ns");
    span_metric("serve.cache_probe_ns", "serve.cache_probe", 1.0, "ns");
    span_metric("serve.put_us", "serve.put", 1e3, "us");
    span_metric("serve.cache_insert_ns", "serve.cache_insert", 1.0, "ns");
    span_metric("serve.execute_us", "serve.execute", 1e3, "us");
    span_metric("serve.delta_put_us", "serve.delta_put", 1e3, "us");
    span_metric("serve.delta_solve_us", "serve.delta_solve", 1e3, "us");
    span_metric("store.append_us", "store.append", 1e3, "us");
    out.put(
        "core.dynamic_arena_len",
        median(&r.arena_len),
        "count",
        r.arena_len.len(),
    );
    out.put("net.dedup_ratio", median(&r.dedup), "ratio", r.dedup.len());
    out.put(
        "serve.render_us",
        median(&r.render_ns) / 1e3,
        "us",
        r.render_ns.len(),
    );
    out.put(
        "serve.warm_start_ms",
        median(&r.warm_ms),
        "ms",
        r.warm_ms.len(),
    );
    out.put("store.open_ms", median(&r.open_ms), "ms", r.open_ms.len());

    let d = |k| stat_delta(&before, &after, k);
    let (hits, misses) = (d("cache_hits"), d("cache_misses"));
    out.put(
        "serve.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
        (hits + misses) as usize,
    );
    out.put("serve.busy", d("busy") as f64, "count", 1);
    out.put(
        "serve.queue_wait_p95_us",
        mmlp_serve::client::stat(&after, "queue_wait_p95_us") as f64,
        "us",
        1,
    );
    let mut warm = d("delta_solves_warm");
    let mut solves = warm + d("delta_solves_advanced") + d("delta_solves_booted");
    if solves == 0 {
        // A workload without deltas: the replay's delta steps.
        (warm, solves) = r.delta_warm;
    }
    out.put(
        "serve.delta_warm_ratio",
        ratio(warm, solves),
        "ratio",
        solves as usize,
    );
    out.put(
        "serve.persist_errors",
        d("persist_errors") as f64,
        "count",
        1,
    );
    out.put("reactor.ping_rtt_us", median(&ping) / 1e3, "us", ping.len());
    let ok: u64 = w.tallies().map(|t| t.ok).sum();
    out.put(
        "reactor.bytes_per_req",
        w.tallies().map(|t| t.reply_bytes).sum::<u64>() as f64 / ok.max(1) as f64,
        "bytes",
        ok as usize,
    );
    let late = sorted(w.open.as_ref().map_or(&[], |t| &t.late_ns));
    out.put(
        "loadgen.late_p99_us",
        percentile(&late, 0.99).0 / 1e3,
        "us",
        late.len(),
    );
    // On the cold workloads, the mean over shapes of each shape's
    // overhead in its mean latency (see `untraced`).
    let overhead = match args.workload.cold_family() {
        Some(_) => {
            let shapes = workload::COLD_SHAPES.len();
            (0..shapes)
                .map(|k| {
                    let (traced, plain) = (
                        mean(&shape_latencies(&w.main, k)),
                        mean(&shape_latencies(&base.main, k)),
                    );
                    (traced - plain) / plain.max(1.0) * 100.0
                })
                .sum::<f64>()
                / shapes as f64
        }
        None => {
            let p50 = |t: &Tally| percentile(&sorted(&t.latency_ns), 0.5).0;
            (p50(&w.main) - p50(&base.main)) / p50(&base.main).max(1.0) * 100.0
        }
    };
    out.put("obs.trace_overhead_pct", overhead, "%", w.main.ok as usize);

    let trace_dir = args.work.join("trace");
    std::fs::create_dir_all(&trace_dir).map_err(|e| e.to_string())?;
    let file = trace_dir.join(format!("{}.spans.jsonl", args.workload.name()));
    let spans: Vec<_> = w.tallies().flat_map(|t| t.spans.iter().cloned()).collect();
    let epoch = spans.iter().map(|s| s.start).min().unwrap_or(t0);
    std::fs::write(&file, trace::to_jsonl(epoch, &spans, &r.tracer))
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    eprintln!("perfbench: spans written to {}", file.display());
    Ok(())
}

/// Round-trip times (ns) of `n` sequential `PING`s on one connection.
fn ping_rtts(addr: &str, n: usize) -> Result<Vec<f64>, String> {
    let mut conn = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut rtts = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        match conn.request("PING", None) {
            Ok(ClientReply::Ok(_)) => rtts.push(t0.elapsed().as_nanos() as f64),
            other => return Err(format!("PING: {other:?}")),
        }
    }
    Ok(rtts)
}

/// The sorted latencies of a cold closed loop's requests of shape
/// `COLD_SHAPES[k]`.
fn shape_latencies(t: &Tally, k: usize) -> Vec<u64> {
    let lat: Vec<u64> = t
        .requests
        .iter()
        .zip(&t.latency_ns)
        .filter(|((c, j), _)| (c + j) % workload::COLD_SHAPES.len() == k)
        .map(|(_, &l)| l)
        .collect();
    sorted(&lat)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn sorted(v: &[u64]) -> Vec<u64> {
    let mut v = v.to_vec();
    v.sort_unstable();
    v
}

/// The nearest-rank `q` quantile of sorted samples, and how many samples
/// lie strictly beyond its rank.
fn percentile(sorted: &[u64], q: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1] as f64, sorted.len() - rank)
}

fn mean(v: &[u64]) -> f64 {
    v.iter().map(|&x| x as f64).sum::<f64>() / v.len().max(1) as f64
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}
