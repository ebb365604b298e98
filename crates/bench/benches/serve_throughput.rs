//! Closed-loop serve throughput over real sockets: 64 concurrent
//! clients hammering warm hits against a live server.
//!
//! One iteration drives a fixed burst — [`CLIENTS`] connections each
//! issuing [`REQS_PER_CLIENT`] `SOLVE` requests that hit the result
//! cache — so the committed `median_ns` is the wall time to serve
//! `CLIENTS × REQS_PER_CLIENT` requests end-to-end (parse, probe,
//! frame, write), and `rps = CLIENTS × REQS_PER_CLIENT / (median_ns /
//! 1e9)`. The trajectory gate compares the reactor front-end against
//! the committed `thread_per_conn` baseline measured on the old
//! thread-per-connection server: lower is strictly better.
//!
//! Clients persist across iterations (the fleet parks on a channel
//! between bursts), so the number measures steady-state serving, not
//! connection setup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmlp_gen::catalog;
use mmlp_serve::client::Client;
use mmlp_serve::protocol::Op;
use mmlp_serve::server::{ServeConfig, Server};
use std::sync::mpsc;

/// Concurrent closed-loop connections per burst.
const CLIENTS: usize = 64;
/// Warm-hit requests each client issues per burst.
const REQS_PER_CLIENT: usize = 8;
/// Which front-end this build measures (the committed baseline entry
/// `thread_per_conn` was produced by the pre-reactor server).
const VARIANT: &str = "reactor";

struct Fleet {
    starts: Vec<mpsc::Sender<usize>>,
    done_rx: mpsc::Receiver<()>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Fleet {
    fn spawn(addr: &str, hash: &str) -> Fleet {
        let (done_tx, done_rx) = mpsc::channel();
        let mut starts = Vec::with_capacity(CLIENTS);
        let mut handles = Vec::with_capacity(CLIENTS);
        for _ in 0..CLIENTS {
            let (tx, rx) = mpsc::channel::<usize>();
            starts.push(tx);
            let done = done_tx.clone();
            let hash = hash.to_string();
            let addr = addr.to_string();
            handles.push(std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                while let Ok(n) = rx.recv() {
                    for _ in 0..n {
                        let body = client
                            .run_hash(Op::Solve, &hash, 3)
                            .expect("io")
                            .into_ok()
                            .expect("warm solve");
                        std::hint::black_box(body.len());
                    }
                    done.send(()).expect("report");
                }
            }));
        }
        Fleet {
            starts,
            done_rx,
            handles,
        }
    }

    fn burst(&self) {
        for tx in &self.starts {
            tx.send(REQS_PER_CLIENT).expect("fleet alive");
        }
        for _ in 0..CLIENTS {
            self.done_rx.recv().expect("fleet alive");
        }
    }

    fn join(mut self) {
        self.starts.clear(); // closing the channels lands every client
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn bench_serve_throughput(c: &mut Criterion) {
    let fams = catalog();
    let fam = fams.iter().find(|f| f.name == "bandwidth").unwrap();
    let inst_text = mmlp_instance::textfmt::write_instance(&fam.instance(48, 7));

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        ..Default::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());

    // Prime: upload once, solve once, so every burst request is a warm hit.
    let mut primer = Client::connect(&addr).expect("connect");
    let hash = primer.put(&inst_text).expect("io").expect("put");
    primer
        .run_hash(Op::Solve, &hash, 3)
        .expect("io")
        .into_ok()
        .expect("prime solve");

    let fleet = Fleet::spawn(&addr, &hash);

    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new(VARIANT, CLIENTS), |b| {
        b.iter(|| fleet.burst());
    });
    group.finish();

    fleet.join();
    primer.shutdown().expect("shutdown");
    let summary = server_thread.join().expect("server thread").expect("run");
    assert_eq!(summary.errors, 0, "benchmark traffic must be error-free");
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
