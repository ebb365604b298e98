//! The four workloads and their request streams.
//!
//! Every input is a pure function of the workload seed and a request's
//! position in its stream, so the same seed always yields byte-identical
//! requests, and the server sees only those generated bytes.

use mmlp_gen::catalog;
use mmlp_instance::delta::{Delta, Edit, RowKind};
use mmlp_instance::hash::instance_hash;
use mmlp_instance::{textfmt, ConstraintId, Instance};

/// Concurrent connections (and load threads) of `hits-open` and
/// `delta-chain`; see [`Workload::connections`].
pub const CONNECTIONS: usize = 2;
/// Instances in `hits-open`'s working set (half bandwidth, half sensor-grid).
pub const HIT_KEYS: usize = 256;
/// Size parameter of the `hits-open` instances.
pub const HIT_SIZE: usize = 64;
/// Locality parameter of `hits-open` and `delta-chain` requests.
pub const HIT_R: usize = 3;
/// `(n, R)` of `cold-*` requests, cycled in this order.
pub const COLD_SHAPES: [(usize, usize); 4] = [(64, 3), (256, 3), (64, 4), (256, 4)];
/// Size parameter of `delta-chain`'s special-form base.
pub const DELTA_SIZE: usize = 256;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open loop of warm `SOLVE hash:` hits at fixed Poisson rates.
    HitsOpen,
    /// Closed loop of never-seen `bandwidth` instances sent inline.
    ColdRing,
    /// Closed loop of never-seen `sensor-grid` instances sent inline.
    ColdGrid,
    /// Closed loop of `SOLVE_DELTA inline:` single-coefficient edits.
    DeltaChain,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::HitsOpen,
        Workload::ColdRing,
        Workload::ColdGrid,
        Workload::DeltaChain,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HitsOpen => "hits-open",
            Workload::ColdRing => "cold-ring",
            Workload::ColdGrid => "cold-grid",
            Workload::DeltaChain => "delta-chain",
        }
    }

    /// Concurrent connections (and load threads) the workload uses. The
    /// cold workloads use one: with two, on a 2-core machine two solves
    /// and the load thread compete for the cores, and their latencies
    /// measure the scheduler.
    pub fn connections(self) -> usize {
        match self {
            Workload::ColdRing | Workload::ColdGrid => 1,
            Workload::HitsOpen | Workload::DeltaChain => CONNECTIONS,
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The catalog family of a cold workload's instances.
    pub fn cold_family(self) -> Option<&'static str> {
        match self {
            Workload::ColdRing => Some("bandwidth"),
            Workload::ColdGrid => Some("sensor-grid"),
            _ => None,
        }
    }
}

/// SplitMix64: a tiny deterministic generator (the streams must not
/// depend on any library's choice of algorithm).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by the workload seed and a list of labels.
    pub fn new(seed: u64, labels: &[u64]) -> Rng {
        let mut state = seed ^ 0x6d6d_6c70_6265_6e63;
        for &l in labels {
            state = mix(state ^ mix(l.wrapping_add(0x9e37_79b9_7f4a_7c15)));
        }
        Rng(state)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stream labels, so no two uses of the seed share random bits.
const HITS_SET: u64 = 1;
const HITS_KEYS: u64 = 2;
const HITS_ARRIVALS: u64 = 3;
const COLD_INSTANCE: u64 = 4;
const DELTA_BASE: u64 = 5;
const DELTA_EDITS: u64 = 6;
const HITS_CLOSED: u64 = 7;

fn family(name: &str) -> catalog::Family {
    catalog()
        .into_iter()
        .find(|f| f.name == name)
        .expect("catalog family exists")
}

/// `hits-open`'s working set: 128 `bandwidth` and 128 `sensor-grid`
/// instances of size 64, with pairwise distinct content hashes.
pub fn hit_instances(seed: u64) -> Vec<Instance> {
    let families = [family("bandwidth"), family("sensor-grid")];
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(HIT_KEYS);
    let mut rng = Rng::new(seed, &[HITS_SET]);
    while out.len() < HIT_KEYS {
        let inst = families[out.len() % 2].instance(HIT_SIZE, rng.next_u64());
        if seen.insert(instance_hash(&inst)) {
            out.push(inst);
        }
    }
    out
}

/// Zipf(1.0) over the working set: a seeded permutation of the keys by
/// popularity rank, and the rank CDF.
pub struct Zipf {
    by_rank: Vec<usize>,
    cdf: Vec<f64>,
}

impl Zipf {
    /// The popularity law for `hits-open` under `seed`.
    pub fn new(seed: u64) -> Zipf {
        let mut by_rank: Vec<usize> = (0..HIT_KEYS).collect();
        let mut rng = Rng::new(seed, &[HITS_KEYS]);
        for i in (1..by_rank.len()).rev() {
            by_rank.swap(i, rng.below(i + 1));
        }
        let mut cdf = Vec::with_capacity(HIT_KEYS);
        let mut acc = 0.0;
        for rank in 1..=HIT_KEYS {
            acc += 1.0 / rank as f64;
            cdf.push(acc);
        }
        for c in cdf.iter_mut() {
            *c /= acc;
        }
        Zipf { by_rank, cdf }
    }

    /// Draws a key index.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c <= u).min(HIT_KEYS - 1);
        self.by_rank[rank]
    }
}

/// One connection's `hits-open` stream: key indices and unit-rate
/// exponential gaps (scaled by the offered rate at send time).
pub struct HitStream {
    keys: Rng,
    gaps: Rng,
}

impl HitStream {
    /// The stream of connection `conn`.
    pub fn new(seed: u64, conn: usize) -> HitStream {
        HitStream {
            keys: Rng::new(seed, &[HITS_KEYS, conn as u64]),
            gaps: Rng::new(seed, &[HITS_ARRIVALS, conn as u64]),
        }
    }

    /// The next request's key index and its gap after the previous one,
    /// in units of the mean gap.
    pub fn next(&mut self, zipf: &Zipf) -> (usize, f64) {
        let key = zipf.sample(&mut self.keys);
        let gap = -(1.0 - self.gaps.unit()).ln();
        (key, gap)
    }
}

/// The key of request `j` of connection `conn` in `hits-open`'s
/// saturating closed-loop phase.
pub fn closed_hit_key(zipf: &Zipf, seed: u64, conn: usize, j: usize) -> usize {
    zipf.sample(&mut Rng::new(seed, &[HITS_CLOSED, conn as u64, j as u64]))
}

/// The wire bytes of a `hits-open` request.
pub fn hit_request(hash: u64) -> String {
    format!("SOLVE hash:{hash:016x} R={HIT_R}\n")
}

/// A request of a closed-loop workload: its command line (without the
/// newline) and its body.
pub struct Request {
    /// The command line.
    pub line: String,
    /// The length-prefixed body.
    pub body: String,
}

/// Request `j` of connection `conn` in a cold workload: its `R`, the
/// generated instance, and the request.
pub fn cold_request(w: Workload, seed: u64, conn: usize, j: usize) -> (usize, Instance, Request) {
    let fam = family(w.cold_family().expect("cold workload"));
    let (n, big_r) = COLD_SHAPES[(j + conn) % COLD_SHAPES.len()];
    let inst_seed = Rng::new(seed, &[COLD_INSTANCE, conn as u64, j as u64]).next_u64();
    let inst = fam.instance(n, inst_seed);
    let body = textfmt::write_instance(&inst);
    let line = format!("SOLVE inline:{} R={big_r}", body.len());
    (big_r, inst, Request { line, body })
}

/// `delta-chain`'s special-form base instance.
pub fn delta_base(seed: u64) -> Instance {
    let inst_seed = Rng::new(seed, &[DELTA_BASE]).next_u64();
    family("special-form").instance(DELTA_SIZE, inst_seed)
}

/// One client's walk of single-coefficient edits off the base. Each
/// edit sets one constraint coefficient to its base value times a
/// factor in `[0.6, 1.8)`, so the chain stays in special form and its
/// coefficients do not drift. The walk never returns to the base.
pub struct DeltaChain {
    base: Instance,
    cur: Instance,
    cur_hash: u64,
    rng: Rng,
}

/// One step of a delta chain.
pub struct DeltaStep {
    /// The edit's canonical text, as sent.
    pub text: String,
    /// The revision the edit produces.
    pub revision: Instance,
}

impl DeltaChain {
    /// The chain of connection `conn`.
    pub fn new(base: &Instance, seed: u64, conn: usize) -> DeltaChain {
        DeltaChain {
            base: base.clone(),
            cur: base.clone(),
            cur_hash: instance_hash(base),
            rng: Rng::new(seed, &[DELTA_EDITS, conn as u64]),
        }
    }

    /// Generates the next edit and advances the chain.
    pub fn step(&mut self) -> DeltaStep {
        let rng = &mut self.rng;
        let row_id = rng.below(self.base.n_constraints()) as u32;
        let row = self.base.constraint_row(ConstraintId::new(row_id));
        let entry = row[rng.below(row.len())];
        let factor = 0.6 + 1.2 * rng.unit();
        let delta = Delta::single(
            self.cur_hash,
            Edit::SetCoef {
                row: RowKind::Constraint,
                row_id,
                agent: entry.agent,
                coef: entry.coef * factor,
            },
        );
        let (revision, lineage) = delta
            .apply_hashed(&self.cur)
            .expect("a coefficient edit applies to its own chain");
        self.cur = revision.clone();
        self.cur_hash = lineage.new;
        DeltaStep {
            text: delta.to_text(),
            revision,
        }
    }
}

/// A `delta-chain` request carrying the edit `text`.
pub fn delta_request(text: String) -> Request {
    let line = format!("SOLVE_DELTA inline:{} R={HIT_R}", text.len());
    Request { line, body: text }
}

/// The trace id of request `j` on connection `conn` (nonzero, distinct
/// per request within a run).
pub fn trace_id(conn: usize, j: usize) -> u64 {
    ((conn as u64 + 1) << 40) | (j as u64 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every request byte a workload sends on connection `conn`, for the
    /// first `n` requests.
    fn stream(w: Workload, seed: u64, conn: usize, n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut push = |r: Request| out.extend(format!("{}\n{}", r.line, r.body).into_bytes());
        match w {
            Workload::HitsOpen => {
                let hashes: Vec<u64> = hit_instances(seed).iter().map(instance_hash).collect();
                let zipf = Zipf::new(seed);
                let mut s = HitStream::new(seed, conn);
                for j in 0..n {
                    // The open loop's key and gap, then the closed loop's key.
                    let (key, gap) = s.next(&zipf);
                    let closed = closed_hit_key(&zipf, seed, conn, j);
                    push(Request {
                        line: format!("{}{gap:e}", hit_request(hashes[key])),
                        body: hit_request(hashes[closed]),
                    });
                }
            }
            Workload::ColdRing | Workload::ColdGrid => {
                for j in 0..n {
                    push(cold_request(w, seed, conn, j).2);
                }
            }
            Workload::DeltaChain => {
                let mut chain = DeltaChain::new(&delta_base(seed), seed, conn);
                for _ in 0..n {
                    push(delta_request(chain.step().text));
                }
            }
        }
        out
    }

    #[test]
    fn the_same_seed_gives_byte_identical_streams() {
        for w in Workload::ALL {
            for conn in 0..CONNECTIONS {
                assert_eq!(
                    stream(w, 7, conn, 12),
                    stream(w, 7, conn, 12),
                    "{}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn another_seed_gives_other_instances() {
        for w in Workload::ALL {
            assert_ne!(stream(w, 7, 0, 12), stream(w, 8, 0, 12), "{}", w.name());
        }
        let a: Vec<u64> = hit_instances(7).iter().map(instance_hash).collect();
        let b: Vec<u64> = hit_instances(8).iter().map(instance_hash).collect();
        assert!(
            a.iter().all(|h| !b.contains(h)),
            "hits-open working sets overlap"
        );
        assert_ne!(instance_hash(&delta_base(7)), instance_hash(&delta_base(8)));
    }

    #[test]
    fn connections_get_distinct_streams_and_cold_requests_are_never_repeated() {
        for w in Workload::ALL {
            assert_ne!(stream(w, 7, 0, 12), stream(w, 7, 1, 12), "{}", w.name());
        }
        let mut seen = std::collections::HashSet::new();
        for conn in 0..CONNECTIONS {
            for j in 0..16 {
                let (_, inst, _) = cold_request(Workload::ColdGrid, 7, conn, j);
                assert!(
                    seen.insert(instance_hash(&inst)),
                    "request {conn}/{j} repeats"
                );
            }
        }
    }

    #[test]
    fn cold_shapes_cycle_on_every_connection() {
        for conn in 0..CONNECTIONS {
            let mut rs: Vec<usize> = (0..4)
                .map(|j| cold_request(Workload::ColdRing, 7, conn, j).0)
                .collect();
            rs.sort_unstable();
            assert_eq!(rs, vec![3, 3, 4, 4]);
        }
    }

    #[test]
    fn delta_chains_walk_off_the_base_without_returning() {
        let base = delta_base(7);
        let mut chain = DeltaChain::new(&base, 7, 0);
        let mut prev = instance_hash(&base);
        for _ in 0..50 {
            let step = chain.step();
            assert_eq!(Delta::parse_text(&step.text).unwrap().base, prev);
            prev = instance_hash(&step.revision);
            assert_ne!(prev, instance_hash(&base));
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(7);
        let mut rng = Rng::new(7, &[99]);
        let mut counts = vec![0usize; HIT_KEYS];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let top = counts[zipf.by_rank[0]];
        // Rank 1 carries 1/H(256) ≈ 16% of Zipf(1.0) draws.
        assert!((2_600..3_800).contains(&top), "top key drawn {top} times");
    }
}
