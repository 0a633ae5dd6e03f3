//! Driving the shipped `geniex-serve` binary: hermetic spawn on an
//! ephemeral port, `/stats` snapshots, peak RSS, SIGTERM drain check,
//! and the two load shapes (open-loop pipelined `Mvm`, closed-loop
//! `Infer`).

use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::protocol::{self, OkBody, Opcode, Request, Response, Status};
use serve::{Client, ClientError};
use telemetry::Json;

use crate::trace::now_ns;

/// Environment every measured process runs with: this host's `nproc`
/// worker count and a cold artifact store.
pub const PINNED_ENV: [(&str, &str); 2] = [("GENIEX_THREADS", "2"), ("GENIEX_STORE", "off")];

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Ok,
    /// The server answered an error status other than `Unavailable`.
    Error,
    /// Refused: admission queue full or draining.
    Unavailable,
    /// Answered, but not bit-identical to the oracle.
    Mismatch,
    /// No answer within the request timeout (or the connection died).
    Timeout,
}

/// Counts of attempted requests by outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub error: u64,
    pub unavailable: u64,
    pub mismatch: u64,
    pub timeout: u64,
}

impl Tally {
    pub fn add(&mut self, class: Class) {
        self.attempted += 1;
        match class {
            Class::Ok => self.ok += 1,
            Class::Error => self.error += 1,
            Class::Unavailable => self.unavailable += 1,
            Class::Mismatch => self.mismatch += 1,
            Class::Timeout => self.timeout += 1,
        }
    }

    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    pub fn describe(&self) -> String {
        format!(
            "attempted {} ok {} error {} unavailable {} mismatch {} timeout {}",
            self.attempted, self.ok, self.error, self.unavailable, self.mismatch, self.timeout
        )
    }
}

/// Pids of servers started and not yet reaped, for [`kill_live`].
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn forget(pid: u32) {
    LIVE.lock().expect("live server list").retain(|&p| p != pid);
}

/// Kills every server still running: the run is being abandoned.
pub fn kill_live() {
    for pid in LIVE.lock().expect("live server list").drain(..) {
        let _ = send_signal(pid, SIGKILL);
    }
}

fn class_of_status(status: Status) -> Class {
    if status == Status::Unavailable {
        Class::Unavailable
    } else {
        Class::Error
    }
}

/// A running `geniex-serve` child process.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Spawn → `READY` line, seconds.
    pub setup_s: f64,
    stdout: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts the binary on an ephemeral port with the pinned
    /// environment and waits for its `READY addr=` line.
    pub fn spawn(bin: &Path) -> Result<Server, String> {
        let start = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.env("GENIEX_SERVE_ADDR", "127.0.0.1:0")
            .env_remove("GENIEX_TRACE")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (k, v) in PINNED_ENV {
            cmd.env(k, v);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        LIVE.lock().expect("live server list").push(child.id());
        let out = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel::<String>();
        let stdout = std::thread::spawn(move || {
            for line in BufReader::new(out).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let ready = loop {
            match rx.recv_timeout(Duration::from_secs(60)) {
                Ok(line) => {
                    if let Some(addr) = line.strip_prefix("READY addr=") {
                        break addr.trim().parse::<SocketAddr>().map_err(|e| e.to_string());
                    }
                }
                Err(_) => break Err("no READY line within 60 s".to_string()),
            }
        };
        let setup_s = start.elapsed().as_secs_f64();
        match ready {
            Ok(addr) => Ok(Server {
                child,
                addr,
                setup_s,
                stdout: Some(stdout),
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                forget(child.id());
                let _ = stdout.join();
                Err(format!("geniex-serve did not start: {e}"))
            }
        }
    }

    /// Peak resident set (VmHWM) of the server process, MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// The live `/stats` document.
    pub fn stats(&self) -> Result<Json, String> {
        let mut c = Client::connect(self.addr).map_err(|e| format!("stats connect: {e}"))?;
        let text = c.stats().map_err(|e| format!("stats: {e}"))?;
        telemetry::json::parse(&text)
    }

    /// Sends SIGTERM and checks the drain: exit status 0 within the
    /// timeout and a run manifest that records `clean_drain: true`.
    pub fn stop(mut self) -> Result<(), String> {
        send_signal(self.child.id(), SIGTERM)?;
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Ok(None) => return Err("server did not drain within 20 s of SIGTERM".into()),
                Err(e) => return Err(format!("wait: {e}")),
            }
        };
        forget(self.child.id());
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        if !status.success() {
            return Err(format!("server exited with {status} after SIGTERM"));
        }
        let manifest = manifest_path();
        let text = std::fs::read_to_string(&manifest)
            .map_err(|e| format!("{}: {e}", manifest.display()))?;
        let clean = text
            .lines()
            .rev()
            .find_map(|l| telemetry::json::parse(l).ok())
            .and_then(|j| j.get("final").and_then(|f| f.get("clean_drain")).cloned());
        match clean {
            Some(Json::Bool(true)) => Ok(()),
            other => Err(format!(
                "manifest does not record a clean drain ({other:?})"
            )),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached on an error path: never leave a server behind.
        if self.stdout.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            forget(self.child.id());
        }
    }
}

/// The server's run manifest (it writes under the checkout's
/// `results/logs/`, which is ignored by git).
fn manifest_path() -> PathBuf {
    serve::config::results_dir()
        .join("logs")
        .join("serve.jsonl")
}

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;

#[cfg(unix)]
fn send_signal(pid: u32, sig: i32) -> Result<(), String> {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    // SAFETY: kill(2) takes two integers and touches no memory of ours;
    // `pid` names our own child, which is only reaped after it leaves
    // the live list, so it cannot be a recycled pid.
    let rc = unsafe { kill(pid, sig) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("kill({pid}, {sig}) failed"))
    }
}

#[cfg(not(unix))]
fn send_signal(_pid: u32, _sig: i32) -> Result<(), String> {
    Err("signalling the server needs a unix host".into())
}

/// One open-loop `Mvm` request and what happened to it. Times are
/// [`now_ns`] readings.
#[derive(Debug, Clone)]
pub struct Sent {
    pub due: u64,
    pub sent: u64,
    pub done: u64,
    pub class: Class,
    pub answer: Vec<i64>,
}

impl Sent {
    /// Latency from the due time, ms (the open-loop definition: a
    /// stall delays every later request's clock).
    pub fn latency_ms(&self) -> f64 {
        (self.done.saturating_sub(self.due)) as f64 * 1e-6
    }

    /// How late the generator sent it, ms.
    pub fn lag_ms(&self) -> f64 {
        (self.sent.saturating_sub(self.due)) as f64 * 1e-6
    }
}

/// Sends `requests[i]` at `origin + offsets_ns[i]`, alternating over
/// two pipelined connections served by one thread each, and collects
/// every answer. A request unanswered `timeout` after its due time
/// ends as [`Class::Timeout`].
pub fn open_loop_mvm(
    addr: SocketAddr,
    offsets_ns: &[u64],
    requests: &[Vec<i64>],
    timeout: Duration,
) -> Vec<Sent> {
    const CONNECTIONS: usize = 2;
    let origin = now_ns() + 2_000_000;
    let mut out: Vec<Option<Sent>> = vec![None; requests.len()];
    let per_conn: Vec<Vec<(usize, Sent)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let mine: Vec<usize> = (c..requests.len()).step_by(CONNECTIONS).collect();
                s.spawn(move || pipeline(addr, origin, &mine, offsets_ns, requests, timeout))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    for (i, sent) in per_conn.into_iter().flatten() {
        out[i] = Some(sent);
    }
    out.into_iter()
        .map(|s| s.expect("every request accounted"))
        .collect()
}

fn pipeline(
    addr: SocketAddr,
    origin: u64,
    mine: &[usize],
    offsets_ns: &[u64],
    requests: &[Vec<i64>],
    timeout: Duration,
) -> Vec<(usize, Sent)> {
    let timeout_ns = timeout.as_nanos() as u64;
    let due = |j: usize| origin + offsets_ns[mine[j]];
    let mut results: Vec<(usize, Sent)> = mine
        .iter()
        .enumerate()
        .map(|(j, &i)| {
            (
                i,
                Sent {
                    due: due(j),
                    sent: 0,
                    done: 0,
                    class: Class::Timeout,
                    answer: Vec::new(),
                },
            )
        })
        .collect();
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => return results,
    };
    let _ = stream.set_nodelay(true);
    let ok_body = OkBody::for_request(Opcode::Mvm);
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let (mut next_send, mut next_recv) = (0usize, 0usize);
    while next_recv < mine.len() {
        let now = now_ns();
        while next_send < mine.len() && due(next_send) <= now {
            let i = mine[next_send];
            let frame = protocol::encode_request(
                i as u64 + 1,
                &Request::Mvm {
                    codes: requests[i].clone(),
                },
            );
            if protocol::write_frame(&mut stream, &frame).is_err() {
                return results;
            }
            results[next_send].1.sent = now_ns();
            next_send += 1;
        }
        if next_recv < next_send && now > due(next_recv) + timeout_ns {
            return results; // the oldest outstanding request timed out
        }
        let wait_ns = if next_send < mine.len() {
            due(next_send).saturating_sub(now_ns())
        } else {
            (due(next_recv) + timeout_ns).saturating_sub(now_ns())
        };
        if next_recv == next_send {
            // Nothing in flight: sleep until the next request is due.
            std::thread::sleep(Duration::from_nanos(wait_ns));
            continue;
        }
        if wait_ns < 20_000 {
            continue;
        }
        let _ = stream.set_read_timeout(Some(Duration::from_nanos(wait_ns)));
        match stream.read(&mut chunk) {
            Ok(0) => return results,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(_) => return results,
        }
        let done = now_ns();
        let mut at = 0usize;
        while buf.len() - at >= 4 {
            let len = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
            if buf.len() - at - 4 < len {
                break;
            }
            let payload = &buf[at + 4..at + 4 + len];
            at += 4 + len;
            if next_recv >= next_send {
                return results; // an answer nobody asked for
            }
            let want_id = mine[next_recv] as u64 + 1;
            let slot = &mut results[next_recv].1;
            slot.done = done;
            slot.class = match protocol::decode_response(payload, ok_body) {
                Ok((id, Response::Mvm { codes })) if id == want_id => {
                    slot.answer = codes;
                    Class::Ok
                }
                Ok((_, Response::Error { status, .. })) => class_of_status(status),
                _ => Class::Error,
            };
            next_recv += 1;
        }
        buf.drain(..at);
    }
    results
}

/// One closed-loop `Infer` request.
#[derive(Debug, Clone)]
pub struct Call {
    pub index: u64,
    pub start: u64,
    pub done: u64,
    pub class: Class,
    pub logits: Vec<f32>,
}

impl Call {
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.start) as f64 * 1e-6
    }
}

/// Sends image `index` and waits for its logits.
fn infer_call(client: &mut Client, shape: [usize; 3], index: u64, pixels: Vec<f32>) -> Call {
    let wire_shape = [shape[0] as u32, shape[1] as u32, shape[2] as u32];
    let start = now_ns();
    let result = client.infer(wire_shape, pixels);
    let done = now_ns();
    let (class, logits) = match result {
        Ok(l) => (Class::Ok, l),
        Err(ClientError::Server { status, .. }) => (class_of_status(status), Vec::new()),
        Err(_) => (Class::Timeout, Vec::new()),
    };
    Call {
        index,
        start,
        done,
        class,
        logits,
    }
}

/// One caller that sends `images` in order, each once the previous one
/// is answered; image `i` is call `i`. Images it could not send count
/// as timed out.
pub fn infer_each(addr: SocketAddr, shape: [usize; 3], images: &[Vec<f32>]) -> Vec<Call> {
    let mut client = Client::connect(addr).ok();
    (0..images.len() as u64)
        .map(|i| match client.as_mut() {
            Some(c) => {
                let call = infer_call(c, shape, i, images[i as usize].clone());
                if call.class == Class::Timeout {
                    client = None;
                }
                call
            }
            None => Call {
                index: i,
                start: 0,
                done: 0,
                class: Class::Timeout,
                logits: Vec::new(),
            },
        })
        .collect()
}

/// Think time a closed-loop caller waits before each request, µs,
/// drawn uniformly from this range. Without it the two callers settle
/// into one of two states and stay there for seconds at a time: in
/// step (both requests arrive within the server's 200 µs linger, so
/// every batch holds both) or alternating (each request queues behind
/// the other's lone batch: about half the throughput at twice the
/// latency). Which state a run sits in then depends on scheduling
/// noise, not on the program. A think time well above the linger but
/// far below one image's compute (tens of ms) keeps the callers apart:
/// each request queues behind the other caller's batch, the server
/// never idles, and the state is the same in every run.
const THINK_US: (u64, u64) = (500, 2500);

/// Two callers that each think (see [`THINK_US`], drawn from `seed`),
/// send an image and wait for its logits, until `duration` has passed.
/// Image `i` comes from `image(i)`.
pub fn closed_loop_infer(
    addr: SocketAddr,
    shape: [usize; 3],
    image: &(dyn Fn(u64) -> Vec<f32> + Sync),
    seed: u64,
    duration: Duration,
) -> Vec<Call> {
    const CALLERS: u64 = 2;
    let deadline = now_ns() + duration.as_nanos() as u64;
    let mut calls: Vec<Call> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|c| {
                s.spawn(move || {
                    let mut calls = Vec::new();
                    let Ok(mut client) = Client::connect(addr) else {
                        return calls;
                    };
                    let mut think = StdRng::seed_from_u64(seed ^ (0x7468_696e_6b00 + c));
                    let mut index = c;
                    loop {
                        std::thread::sleep(Duration::from_micros(
                            think.gen_range(THINK_US.0..=THINK_US.1),
                        ));
                        if now_ns() >= deadline {
                            break;
                        }
                        let call = infer_call(&mut client, shape, index, image(index));
                        let stop = call.class == Class::Timeout;
                        calls.push(call);
                        if stop {
                            break;
                        }
                        index += CALLERS;
                    }
                    calls
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("caller thread"))
            .collect()
    });
    calls.sort_by_key(|c| c.index);
    calls
}
