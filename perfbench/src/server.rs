//! The server under test: a release `maxmin-lp serve` child process
//! booted from a fresh copy of the store snapshot.

use mmlp_serve::client::{stat, Client, ClientReply};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running server process.
pub struct Server {
    child: Child,
    stdout: ChildStdout,
    /// The address it listens on.
    pub addr: String,
    /// Seconds from spawn to the first `PING` answered OK.
    pub setup_s: f64,
}

/// Copies every file of `from` (one level, as the store lays it out) into
/// a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    if to.exists() {
        std::fs::remove_dir_all(to)?;
    }
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

impl Server {
    /// Spawns `binary serve` with its defaults except `--addr` and
    /// `--store-dir` (plus `--journal-dir` for a traced run), on a fresh
    /// copy of `snapshot`, and waits until it answers `PING`.
    pub fn boot(
        binary: &Path,
        snapshot: &Path,
        dir: &Path,
        journal: Option<&Path>,
    ) -> Result<Server, String> {
        let store = dir.join("store");
        copy_dir(snapshot, &store).map_err(|e| format!("copy snapshot: {e}"))?;
        let mut cmd = Command::new(binary);
        cmd.arg("serve")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--store-dir")
            .arg(&store);
        if let Some(j) = journal {
            cmd.arg("--journal-dir").arg(j);
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::piped());
        let start = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let mut stdout = child.stdout.take().expect("stdout is piped");
        let addr = match read_listening(&mut stdout) {
            Ok(addr) => addr,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let mut server = Server {
            child,
            stdout,
            addr,
            setup_s: 0.0,
        };
        server.wait_ping(start)?;
        server.setup_s = start.elapsed().as_secs_f64();
        Ok(server)
    }

    fn wait_ping(&mut self, start: Instant) -> Result<(), String> {
        loop {
            if let Ok(mut conn) = Client::connect(&self.addr) {
                if let Ok(ClientReply::Ok(body)) = conn.request("PING", None) {
                    if body == "pong\n" || body == "pong" {
                        return Ok(());
                    }
                }
            }
            if start.elapsed() > Duration::from_secs(60) {
                return Err("server did not answer PING within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User + system CPU time of the server process so far, in seconds.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("read /proc stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')').ok_or("bad /proc stat")? + 2..];
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks: u64 = f[11].parse::<u64>().map_err(|e| e.to_string())?
            + f[12].parse::<u64>().map_err(|e| e.to_string())?;
        Ok(ticks as f64 / clock_ticks_per_s())
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn rss_peak_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("read /proc status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM")?;
        Ok(kb / 1024.0)
    }

    /// Scrapes `STATS` over a fresh connection.
    pub fn stats(&self) -> Result<Stats, String> {
        Client::connect(&self.addr)
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("STATS: {e}"))
    }

    /// Sends `SHUTDOWN`, waits for the drain, and reaps the process.
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = Client::connect(&self.addr).and_then(|mut c| c.shutdown());
        if sent.is_err() {
            let _ = self.child.kill();
        }
        let mut rest = Vec::new();
        let _ = self.stdout.read_to_end(&mut rest);
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        match sent {
            Ok(_) if status.success() => Ok(()),
            Ok(_) => Err(format!("server exited with {status}")),
            Err(e) => Err(format!("SHUTDOWN: {e}")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached on an error path before `shutdown`: never leave
        // the child running.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn read_listening(stdout: &mut ChildStdout) -> Result<String, String> {
    // Read byte by byte so nothing past the banner line is consumed
    // into a buffer that would then be dropped.
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stdout.read(&mut byte) {
            Ok(0) => return Err("server exited before listening".into()),
            Ok(_) if byte[0] == b'\n' => {
                let text = String::from_utf8_lossy(&line).into_owned();
                if let Some(addr) = text.strip_prefix("listening ") {
                    return Ok(addr.trim().to_string());
                }
                line.clear();
            }
            Ok(_) => line.push(byte[0]),
            Err(e) => return Err(format!("read server stdout: {e}")),
        }
    }
}

fn clock_ticks_per_s() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes an integer and reads no memory of ours.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// A `STATS` scrape, as [`Client::stats`] returns it.
pub type Stats = Vec<(String, u64)>;

/// `after[key] − before[key]`.
pub fn stat_delta(before: &Stats, after: &Stats, key: &str) -> u64 {
    stat(after, key).saturating_sub(stat(before, key))
}

/// A work directory that is removed when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// Creates `path` afresh.
    pub fn new(path: PathBuf) -> std::io::Result<WorkDir> {
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
