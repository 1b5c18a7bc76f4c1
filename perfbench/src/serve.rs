//! `serve-mixed`: an in-process `owl::serve` daemon driven by two
//! closed-loop clients, each on its own connection.
//!
//! A pass starts a daemon on a fresh store. The clients first take the
//! 14 keys (7 corpus programs × {default, quick}) off one shared list,
//! in a fixed order, each submitting its next key when the last one is
//! answered — misses that run the pipeline and group-commit the result.
//! After all 14 are answered, each client sends a seeded sequence of
//! keys that are all cache hits. The daemon drains, restarts on the populated store
//! (set-up time: `serve()` until it first answers `status`) and
//! answers a burst of hits without executing anything. Misses write
//! the store; hits read it and re-resolve the program on every submit.

use crate::stats::{self, median, percentile, Op, Rng, Tally};
use crate::{Args, Outcome};
use owl::serve::{
    encode_request, parse_response, serve, Request, Response, ServeConfig, ServeReport,
    StatusReport,
};
use owl::{owl_corpus, OwlConfig, ProgramSummary};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Hits each client sends after the misses.
pub const HITS_PER_CLIENT: usize = 150;
/// Hits each client sends to the restarted daemon.
pub const BURST_PER_CLIENT: usize = 100;
/// Closed-loop clients, one connection each.
pub const CLIENTS: usize = 2;

const POISONED: &str = "a client thread panicked while holding the session log";

/// One cache key: a corpus program at the quick or default config.
pub type Key = (&'static str, bool);

/// The 14 keys: every program at the default config, then every
/// program at the quick config, in corpus order.
pub fn keys() -> Vec<Key> {
    let names: Vec<&'static str> = owl_corpus::all_programs().iter().map(|p| p.name).collect();
    [false, true]
        .into_iter()
        .flat_map(|quick| names.iter().map(move |&n| (n, quick)))
        .collect()
}

/// A client connection speaking the line protocol.
pub struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    /// Connects, retrying until the daemon listens (10 s at most).
    pub fn connect(socket: &Path) -> Result<Client, String> {
        let start = Instant::now();
        loop {
            match UnixStream::connect(socket) {
                Ok(s) => {
                    let reader = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
                    return Ok(Client { writer: s, reader });
                }
                Err(e) if start.elapsed() > Duration::from_secs(10) => {
                    return Err(format!("connect {}: {e}", socket.display()))
                }
                Err(_) => std::thread::yield_now(),
            }
        }
    }

    fn send(&mut self, req: &Request) -> Result<(), String> {
        let mut line = encode_request(req);
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())
    }

    fn recv(&mut self) -> Result<Response, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => parse_response(line.trim_end()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Submits `key` and waits for its answer: `(cached, summary)` on
    /// success, else how the operation failed.
    pub fn submit(&mut self, key: Key) -> Result<(bool, ProgramSummary), (Op, String)> {
        let req = Request::Submit {
            program: key.0.to_string(),
            quick: key.1,
            deadline_ms: None,
            sleep_ms: 0,
            inject_panic: false,
        };
        self.send(&req).map_err(|e| (Op::Failed, e))?;
        loop {
            match self.recv().map_err(|e| (Op::Failed, e))? {
                Response::Accepted { .. } => continue,
                Response::Result {
                    cached, summary, ..
                } => return Ok((cached, summary)),
                Response::Rejected { reason } => {
                    return Err((Op::Refused, format!("rejected: {reason:?}")))
                }
                other => return Err((Op::Failed, format!("{other:?}"))),
            }
        }
    }

    /// Asks for the daemon's status.
    pub fn status(&mut self) -> Result<StatusReport, String> {
        self.send(&Request::Status)?;
        match self.recv()? {
            Response::Status(s) => Ok(*s),
            other => Err(format!("status answered {other:?}")),
        }
    }

    /// Requests a graceful drain and waits for `bye`.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.send(&Request::Shutdown)?;
        match self.recv()? {
            Response::Bye => Ok(()),
            other => Err(format!("shutdown answered {other:?}")),
        }
    }
}

/// What one pass measured.
#[derive(Default)]
pub struct Session {
    /// Operations and their failures.
    pub tally: Tally,
    /// Failed checks.
    pub errors: Vec<String>,
    /// Miss latencies (submit to result), ms.
    pub miss_ms: Vec<f64>,
    /// Hit latencies, fresh daemon and restart burst, ms.
    pub hit_ms: Vec<f64>,
    /// Fresh daemon: first submit to last answer, s.
    pub session_s: f64,
    /// Restart: `serve()` call to the first `status` answer, s.
    pub setup_s: f64,
    /// Lifetime reports of the fresh and the restarted daemon.
    pub reports: Vec<ServeReport>,
}

fn daemon_config(dir: &Path) -> ServeConfig {
    let mut cfg = ServeConfig::new(dir);
    cfg.workers = 2;
    cfg.owl = OwlConfig::default();
    cfg
}

/// Runs one pass (fresh daemon, then restart) under `dir`.
pub fn session(dir: &Path, seed: u64, pass: u64) -> Session {
    let cfg = daemon_config(dir);
    let socket = cfg.socket.clone();
    let keys = keys();
    // Misses are dealt from one list in a fixed order, so how long
    // they take together does not depend on the seed.
    let next_miss = AtomicUsize::new(0);
    let answers: Mutex<HashMap<Key, ProgramSummary>> = Mutex::new(HashMap::new());
    let barrier = Barrier::new(CLIENTS);
    let log = Mutex::new(Session::default());

    // Fresh daemon: misses, then hits.
    std::thread::scope(|sc| {
        let daemon = sc.spawn(|| serve(cfg.clone()));
        let t0 = Instant::now();
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (next_miss, keys, answers, barrier, log, socket) =
                    (&next_miss, &keys, &answers, &barrier, &log, &socket);
                sc.spawn(move || {
                    let mut client = match Client::connect(socket) {
                        Ok(cl) => cl,
                        Err(e) => {
                            log.lock().expect(POISONED).errors.push(e);
                            barrier.wait();
                            return None;
                        }
                    };
                    while let Some(&key) = keys.get(next_miss.fetch_add(1, Ordering::SeqCst)) {
                        let t = Instant::now();
                        let r = client.submit(key);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let mut l = log.lock().expect(POISONED);
                        l.miss_ms.push(ms);
                        match r {
                            Ok((false, summary)) => {
                                l.tally.record(Op::Ok);
                                answers.lock().expect(POISONED).insert(key, summary);
                            }
                            Ok((true, _)) => {
                                l.tally.record(Op::WrongOutput);
                                l.errors.push(format!("{key:?}: first submit was cached"));
                            }
                            Err((op, e)) => {
                                l.tally.record(op);
                                l.errors.push(format!("{key:?}: {e}"));
                            }
                        }
                    }
                    barrier.wait();
                    let mut rng = Rng::new(seed, 0x4175_0000 + pass * 16 + c as u64);
                    let hits: Vec<Key> = (0..HITS_PER_CLIENT)
                        .map(|_| keys[rng.range(0, keys.len() as u64 - 1) as usize])
                        .collect();
                    hit_loop(&mut client, &hits, answers, log);
                    Some(client)
                })
            })
            .collect();
        let mut first = None;
        for h in clients {
            if let Ok(Some(cl)) = h.join() {
                first.get_or_insert(cl);
            }
        }
        log.lock().expect(POISONED).session_s = t0.elapsed().as_secs_f64();
        finish_daemon(first, &socket, daemon, &log);
    });

    // Restart on the populated store: set-up, then a burst of hits.
    let burst = |client: &mut Client, c: u64| {
        let mut rng = Rng::new(seed, 0xb0b0_0000 + pass * 16 + c);
        let hits: Vec<Key> = (0..BURST_PER_CLIENT)
            .map(|_| keys[rng.range(0, keys.len() as u64 - 1) as usize])
            .collect();
        hit_loop(client, &hits, &answers, &log);
    };
    std::thread::scope(|sc| {
        let t = Instant::now();
        let daemon = sc.spawn(|| serve(cfg.clone()));
        let mut first = match Client::connect(&socket).and_then(|mut cl| cl.status().map(|_| cl)) {
            Ok(cl) => Some(cl),
            Err(e) => {
                log.lock()
                    .expect(POISONED)
                    .errors
                    .push(format!("restart: {e}"));
                None
            }
        };
        log.lock().expect(POISONED).setup_s = t.elapsed().as_secs_f64();
        let (burst, socket, log) = (&burst, &socket, &log);
        let other = sc.spawn(move || match Client::connect(socket) {
            Ok(mut cl) => burst(&mut cl, 1),
            Err(e) => log.lock().expect(POISONED).errors.push(e),
        });
        if let Some(cl) = first.as_mut() {
            burst(cl, 0);
        }
        let _ = other.join();
        finish_daemon(first, socket, daemon, log);
    });

    let mut s = log.into_inner().expect(POISONED);
    let expected_hits = [CLIENTS * HITS_PER_CLIENT, CLIENTS * BURST_PER_CLIENT];
    let expected_exec = [keys.len(), 0];
    for (i, r) in s.reports.iter().enumerate() {
        if r.executed != expected_exec[i] as u64 || r.cache_hits != expected_hits[i] as u64 {
            s.errors.push(format!(
                "daemon {i}: executed {} / hits {}, expected {} / {}",
                r.executed, r.cache_hits, expected_exec[i], expected_hits[i]
            ));
        }
    }
    if s.reports.len() != 2 {
        s.errors
            .push(format!("{} of 2 daemons drained cleanly", s.reports.len()));
    }
    s
}

/// Submits `hits`, each of which must be answered from the store with
/// the summary its miss produced.
fn hit_loop(
    client: &mut Client,
    hits: &[Key],
    answers: &Mutex<HashMap<Key, ProgramSummary>>,
    log: &Mutex<Session>,
) {
    for &key in hits {
        let t = Instant::now();
        let r = client.submit(key);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let expected = answers.lock().expect(POISONED).get(&key).cloned();
        let mut l = log.lock().expect(POISONED);
        l.hit_ms.push(ms);
        match r {
            Ok((true, summary)) if Some(&summary) == expected.as_ref() => l.tally.record(Op::Ok),
            Ok(_) => {
                l.tally.record(Op::WrongOutput);
                l.errors
                    .push(format!("{key:?}: hit not cached or differs from its miss"));
            }
            Err((op, e)) => {
                l.tally.record(op);
                l.errors.push(format!("{key:?}: {e}"));
            }
        }
    }
}

/// Shuts the daemon down (through `client`, or a new connection when
/// there is none), waits for it to drain and keeps its report.
fn finish_daemon(
    client: Option<Client>,
    socket: &Path,
    daemon: std::thread::ScopedJoinHandle<'_, Result<ServeReport, owl::JournalError>>,
    log: &Mutex<Session>,
) {
    let bye = match client {
        Some(cl) => cl.shutdown(),
        None => Client::connect(socket).and_then(Client::shutdown),
    };
    let joined = daemon.join();
    let mut l = log.lock().expect(POISONED);
    if let Err(e) = bye {
        l.errors.push(format!("shutdown: {e}"));
    }
    match joined {
        Ok(Ok(report)) => l.reports.push(report),
        Ok(Err(e)) => l.errors.push(format!("daemon: {e}")),
        Err(_) => l.errors.push("daemon panicked".to_string()),
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut session_s = Vec::new();
    let mut unit_ms = Vec::new();
    let mut hit_ms = Vec::new();
    let mut miss_ms = Vec::new();
    let mut requests = 0usize;
    let mut busy_s = 0.0;
    let need = stats::samples_needed(90);
    let start = Instant::now();
    for pass in 0u64.. {
        let dir = args.work.join(format!("s{pass}"));
        let s = session(&dir, args.seed, pass);
        let _ = std::fs::remove_dir_all(&dir);
        setup_s.push(s.setup_s);
        session_s.push(s.session_s);
        unit_ms.extend(&s.miss_ms);
        unit_ms.extend(&s.hit_ms);
        hit_ms.extend(&s.hit_ms);
        miss_ms.extend(&s.miss_ms);
        requests += s.miss_ms.len() + CLIENTS * HITS_PER_CLIENT;
        busy_s += s.session_s;
        out.tally.attempted += s.tally.attempted;
        out.tally.failed += s.tally.failed;
        out.errors.extend(s.errors);
        if !out.errors.is_empty()
            || (start.elapsed() >= args.seconds && unit_ms.len() >= need && pass >= 2)
        {
            break;
        }
    }
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");
    out.metric("pass_s", median(&session_s), "s");
    out.metric("unit_ms.p50", median(&unit_ms), "ms");
    out.metric("unit_ms.p90", percentile(&unit_ms, 90.0), "ms");
    let tail = |v: &[f64]| {
        stats::highest_percentile(v.len()).map_or("n/a".to_string(), |p| {
            format!("p{p} {:.3}", percentile(v, f64::from(p)))
        })
    };
    out.info(format!(
        "serve-mixed: {} passes; serve_rps {:.2}; hit_ms p50 {:.3}, {} (n={}); miss_ms p50 {:.3}, {} (n={})",
        session_s.len(),
        requests as f64 / busy_s,
        median(&hit_ms),
        tail(&hit_ms),
        hit_ms.len(),
        median(&miss_ms),
        tail(&miss_ms),
        miss_ms.len()
    ));
    out.info(format!(
        "work: {} executions and {} hits per pass; error_rate {:.6} ({} of {} operations failed)",
        keys().len(),
        CLIENTS * (HITS_PER_CLIENT + BURST_PER_CLIENT),
        out.tally.error_rate(),
        out.tally.failed,
        out.tally.attempted
    ));
    out
}
