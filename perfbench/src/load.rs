//! Load generation over TCP: `hits-open`'s phases (an open loop with
//! Poisson arrivals, and a saturating closed loop) on non-blocking
//! sockets, and a closed loop of [`Client`]s for the other workloads.
//! One thread and one connection per client; the calling thread runs
//! client 0.

use crate::trace::Span;
use crate::workload::{
    closed_hit_key, hit_request, trace_id, HitStream, Request, Zipf, CONNECTIONS,
};
use mmlp_serve::client::{Client, ClientReply};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one client (or a whole window, once merged) observed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub sent: u64,
    /// OK replies that passed the inline checks.
    pub ok: u64,
    /// `ERR` replies other than `BUSY`.
    pub errors: u64,
    /// `ERR BUSY` replies.
    pub busy: u64,
    /// Requests lost to a transport failure (or never answered).
    pub transport: u64,
    /// OK replies whose body failed a check.
    pub wrong: u64,
    /// Latency of every correct OK reply, in ns (from the due time in
    /// the open loop, from the send in the closed loop).
    pub latency_ns: Vec<u64>,
    /// Closed loop: `(connection, index)` of each latency sample.
    pub requests: Vec<(usize, usize)>,
    /// How late each open-loop request went out, in ns.
    pub late_ns: Vec<u64>,
    /// Reply bytes received, framing included.
    pub reply_bytes: u64,
    /// Client-side `request` spans (traced runs only).
    pub spans: Vec<Span>,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    /// Requests that did not end in a correct OK reply.
    pub fn failed(&self) -> u64 {
        self.errors + self.busy + self.transport + self.wrong
    }

    fn note(&mut self, msg: String) {
        if self.failures.len() < 5 {
            self.failures.push(msg);
        }
    }

    /// Folds another client's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.errors += other.errors;
        self.busy += other.busy;
        self.transport += other.transport;
        self.wrong += other.wrong;
        self.latency_ns.extend(other.latency_ns);
        self.requests.extend(other.requests);
        self.late_ns.extend(other.late_ns);
        self.reply_bytes += other.reply_bytes;
        self.spans.extend(other.spans);
        for f in other.failures {
            self.note(f);
        }
    }

    /// Counts an `ERR` reply, given as its line.
    fn error(&mut self, line: &str, what: &str) {
        if line.starts_with("ERR BUSY") {
            self.busy += 1;
        } else {
            self.errors += 1;
        }
        self.note(format!("{what}: {line}"));
    }

    fn reply(&mut self, reply: std::io::Result<ClientReply>, what: &str) -> Option<String> {
        match reply {
            Ok(ClientReply::Ok(body)) => Some(body),
            Ok(ClientReply::Err(code, msg)) => {
                self.error(&format!("ERR {} {msg}", code.as_str()), what);
                None
            }
            Err(e) => {
                self.transport += 1;
                self.note(format!("{what}: {e}"));
                None
            }
        }
    }
}

// ---- hits-open -------------------------------------------------------

/// The fixed parts of a `hits-open` run.
pub struct OpenLoop {
    /// Address of the server.
    pub addr: String,
    /// The workload seed.
    pub seed: u64,
    /// Content hash of each working-set key.
    pub hashes: Arc<Vec<u64>>,
    /// The reply body each key must get, byte for byte.
    pub bodies: Arc<Vec<Arc<String>>>,
    /// The key popularity law.
    pub zipf: Arc<Zipf>,
    /// Send a `TRACE` line ahead of every request.
    pub traced: bool,
}

/// One `hits-open` connection, kept across the phases.
struct OpenClient {
    conn: usize,
    stream: TcpStream,
    hits: HitStream,
    sent_total: usize,
}

/// Requests each connection keeps in flight in the closed loop.
const PIPELINE: usize = 8;
/// How long a phase may take to drain its last replies.
const DRAIN: Duration = Duration::from_secs(5);

impl OpenLoop {
    /// Connects the clients.
    fn connect(&self) -> Result<Vec<OpenClient>, String> {
        (0..CONNECTIONS)
            .map(|conn| {
                let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
                stream.set_nodelay(true).map_err(|e| e.to_string())?;
                stream.set_nonblocking(true).map_err(|e| e.to_string())?;
                Ok(OpenClient {
                    conn,
                    stream,
                    hits: HitStream::new(self.seed, conn),
                    sent_total: 0,
                })
            })
            .collect()
    }

    /// Runs the phases in order on the same connections, and returns
    /// each phase's tally and its length in seconds. A phase with a rate
    /// offers that many requests per second (split evenly over the
    /// connections) on a Poisson schedule; a phase without one is a
    /// closed loop, each connection keeping `PIPELINE` requests in
    /// flight.
    pub fn phases(&self, phases: &[(f64, Option<f64>)]) -> Result<Vec<(Tally, f64)>, String> {
        set_timer_slack();
        let mut clients = self.connect()?;
        let mut done = Vec::new();
        for &(seconds, rate) in phases {
            let per_conn = rate.map(|r| r / CONNECTIONS as f64);
            let start = Instant::now() + Duration::from_millis(2);
            let window = Duration::from_secs_f64(seconds);
            let (first, rest) = clients.split_first_mut().expect("at least one client");
            let (tally, end) = std::thread::scope(|s| {
                let others: Vec<_> = rest
                    .iter_mut()
                    .map(|c| s.spawn(move || self.run_client(c, per_conn, start, window)))
                    .collect();
                let mut mine = self.run_client(first, per_conn, start, window);
                for h in others {
                    let (t, end) = h.join().expect("load thread panicked");
                    mine.0.merge(t);
                    mine.1 = mine.1.max(end);
                }
                mine
            });
            done.push((tally, end.saturating_duration_since(start).as_secs_f64()));
            // Let the server's queues empty before the next phase.
            std::thread::sleep(Duration::from_millis(20));
        }
        Ok(done)
    }

    /// One connection of a phase; returns its tally and when its last
    /// reply came in. With a `rate`, requests arrive on the Poisson
    /// schedule; like the repository's `Client`, the connection keeps
    /// one request in flight, so an arrival waits in the client's queue
    /// while the previous reply is outstanding, and that wait counts in
    /// its latency. Without one, `PIPELINE` requests are kept in
    /// flight: a request is due when a reply frees its slot, and its
    /// key comes from [`closed_hit_key`]. Requests ready together go out
    /// in one write; replies are parsed as they land.
    fn run_client(
        &self,
        c: &mut OpenClient,
        rate: Option<f64>,
        start: Instant,
        window: Duration,
    ) -> (Tally, Instant) {
        let mut t = Tally::default();
        let mean_gap = rate.map_or(0.0, |r| 1.0 / r);
        let depth = if rate.is_some() { 1 } else { PIPELINE };
        let mut closed_j = 0;
        let mut queue: VecDeque<(Instant, usize)> = VecDeque::new();
        // (due, key, trace id) of each request on the wire, oldest first.
        let mut in_flight: VecDeque<(Instant, usize, u64)> = VecDeque::new();
        let mut last_reply = start;
        let mut wire = String::new();
        let mut inbuf: Vec<u8> = Vec::with_capacity(1 << 16);
        let mut scratch = vec![0u8; 1 << 16];
        let (mut next_key, mut next_due) = match rate {
            Some(_) => {
                let (key, gap) = c.hits.next(&self.zipf);
                (key, start + Duration::from_secs_f64(gap * mean_gap))
            }
            None => (closed_hit_key(&self.zipf, self.seed, c.conn, 0), start),
        };
        let stop_arrivals = start + window;
        let give_up = stop_arrivals + DRAIN;
        let mut arriving = true;
        let fd = c.stream.as_raw_fd();
        loop {
            let now = Instant::now();
            if now < start {
                wait_fd(fd, start - now);
                continue;
            }
            if rate.is_some() {
                while arriving && next_due <= now {
                    if next_due >= stop_arrivals {
                        arriving = false;
                        break;
                    }
                    queue.push_back((next_due, next_key));
                    let (key, gap) = c.hits.next(&self.zipf);
                    next_key = key;
                    next_due += Duration::from_secs_f64(gap * mean_gap);
                }
            } else {
                // The closed loop: a request is due as soon as a slot is free.
                while arriving && queue.len() + in_flight.len() < depth {
                    if now >= stop_arrivals {
                        arriving = false;
                        break;
                    }
                    queue.push_back((now, next_key));
                    closed_j += 1;
                    next_key = closed_hit_key(&self.zipf, self.seed, c.conn, closed_j);
                }
            }
            wire.clear();
            while in_flight.len() < depth {
                let Some((due, key)) = queue.pop_front() else {
                    break;
                };
                let id = if self.traced {
                    let id = trace_id(c.conn, c.sent_total);
                    wire.push_str(&format!("TRACE {id:016x}\n"));
                    id
                } else {
                    0
                };
                wire.push_str(&hit_request(self.hashes[key]));
                if rate.is_some() {
                    // Lateness: how long after the request could go out
                    // (due, and the connection free) it went out.
                    let ready = due.max(last_reply);
                    t.late_ns
                        .push(Instant::now().saturating_duration_since(ready).as_nanos() as u64);
                }
                t.sent += 1;
                c.sent_total += 1;
                in_flight.push_back((due, key, id));
            }
            if !wire.is_empty() {
                if let Err(e) = c.stream.write_all(wire.as_bytes()) {
                    t.note(format!("write: {e}"));
                    break;
                }
            }
            if !in_flight.is_empty() {
                match c.stream.read(&mut scratch) {
                    Ok(0) => {
                        t.note("server closed the connection".into());
                        break;
                    }
                    Ok(n) => {
                        let at = Instant::now();
                        inbuf.extend_from_slice(&scratch[..n]);
                        let mut used = 0;
                        while let Some((reply, len)) = parse_reply(&inbuf[used..]) {
                            let (due, key, id) =
                                in_flight.pop_front().expect("a request in flight");
                            t.reply_bytes += len as u64;
                            last_reply = at;
                            match reply {
                                Ok(body) if body == self.bodies[key].as_bytes() => {
                                    t.ok += 1;
                                    t.latency_ns.push(at.duration_since(due).as_nanos() as u64);
                                    if id != 0 {
                                        t.spans.push(Span::client(id, due, at));
                                    }
                                }
                                Ok(_) => {
                                    t.wrong += 1;
                                    t.note(format!("key {key}: body differs from the solved body"));
                                }
                                Err(line) => t.error(&line, "SOLVE hash"),
                            }
                            used += len;
                        }
                        inbuf.drain(..used);
                        if used > 0 {
                            continue;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(e) => {
                        t.note(format!("read: {e}"));
                        break;
                    }
                }
            }
            if !arriving && queue.is_empty() && in_flight.is_empty() {
                break;
            }
            let now = Instant::now();
            if now > give_up {
                t.note(format!(
                    "{} requests unanswered after the drain",
                    queue.len() + in_flight.len()
                ));
                break;
            }
            let wait = if arriving && rate.is_some() {
                next_due.saturating_duration_since(now)
            } else {
                give_up - now
            };
            wait_fd(fd, wait);
        }
        t.transport += (queue.len() + in_flight.len()) as u64;
        (t, last_reply)
    }
}

/// Parses one framed reply off the front of `buf`: the body (or the
/// `ERR` line) and the bytes it took, or `None` when incomplete.
fn parse_reply(buf: &[u8]) -> Option<(Result<&[u8], String>, usize)> {
    let nl = buf.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&buf[..nl]).unwrap_or("");
    if let Some(n) = header.strip_prefix("OK ") {
        let n: usize = n.trim().parse().unwrap_or(usize::MAX);
        let end = (nl + 1).checked_add(n)?;
        (buf.len() >= end).then(|| (Ok(&buf[nl + 1..end]), end))
    } else {
        Some((Err(header.to_string()), nl + 1))
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Blocks until `fd` is readable or `wait` elapses, with nanosecond
/// timeout resolution.
fn wait_fd(fd: i32, wait: Duration) {
    const POLLIN: i16 = 0x1;
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: wait.as_secs() as i64,
        tv_nsec: wait.subsec_nanos() as i64,
    };
    // SAFETY: one valid pollfd and timespec that outlive the call; a
    // null signal mask leaves the mask unchanged.
    unsafe {
        ppoll(&mut pfd, 1, &ts, std::ptr::null());
    }
}

/// Shrinks this thread's timer slack to 1 µs so open-loop sends wake on
/// time (the default slack is 50 µs, above a warm hit's latency).
fn set_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1000u64, 0u64, 0u64, 0u64);
    }
}

// ---- closed loop ----------------------------------------------------

/// Runs `connections` closed-loop [`Client`]s for `seconds`. Client `c`
/// sends `source(c, j)` for `j = 0, 1, …`, generated between requests;
/// each OK body is handed to `keep(c, j, body)`. The window ends for a
/// client at the first completion after `seconds`. Returns the merged
/// tally and the window's length in seconds.
pub fn closed_loop<S, K>(
    addr: &str,
    connections: usize,
    seconds: f64,
    traced: bool,
    source: S,
    keep: K,
) -> Result<(Tally, f64), String>
where
    S: Fn(usize, usize) -> Request + Sync,
    K: Fn(usize, usize, String) + Sync,
{
    let mut conns = Vec::new();
    for _ in 0..connections {
        conns.push(Client::connect(addr).map_err(|e| format!("connect: {e}"))?);
    }
    let start = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    let run = |c: usize, conn: &mut Client| -> (Tally, Instant) {
        let mut t = Tally::default();
        let mut last = start;
        let mut j = 0;
        while last.duration_since(start) < window {
            let req = source(c, j);
            let id = traced.then(|| trace_id(c, j));
            if let Some(id) = id {
                conn.trace_next(id);
            }
            let sent = Instant::now();
            let reply = conn.request(&req.line, Some(req.body.as_bytes()));
            let at = Instant::now();
            last = at;
            t.sent += 1;
            if let Ok(ClientReply::Ok(body)) = &reply {
                t.reply_bytes += (format!("OK {}\n", body.len()).len() + body.len()) as u64;
            }
            let lost = reply.is_err();
            if let Some(body) = t.reply(reply, "request") {
                t.ok += 1;
                t.latency_ns.push(at.duration_since(sent).as_nanos() as u64);
                t.requests.push((c, j));
                if let Some(id) = id {
                    t.spans.push(Span::client(id, sent, at));
                }
                keep(c, j, body);
            } else if lost {
                break;
            }
            j += 1;
        }
        (t, last)
    };
    let (first, rest) = conns.split_first_mut().expect("at least one connection");
    let (mut tally, mut end) = std::thread::scope(|s| {
        let others: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| s.spawn(move || run(i + 1, conn)))
            .collect();
        let mut mine = run(0, first);
        for h in others {
            let (t, last) = h.join().expect("load thread panicked");
            mine.0.merge(t);
            mine.1 = mine.1.max(last);
        }
        mine
    });
    end = end.max(start);
    tally.latency_ns.shrink_to_fit();
    Ok((tally, end.duration_since(start).as_secs_f64()))
}
