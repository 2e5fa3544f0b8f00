//! `serve`: the served request around `update_timing`.
//!
//! `gpasta serve --workers 2` hosts one session on a small leon2. One
//! client process holds two keep-alive connections in a closed loop: a
//! writer (`POST …/edit` then `POST …/update`) and a reader
//! (`GET …/report?k=`) on the same session. After every round of writer
//! iterations the writer evicts and restores the session over the wire,
//! each on a short-lived connection of its own, with the reader held off
//! meanwhile. Wire decode/encode, dispatch and
//! the session lock dominate; timing work is small.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Cursor};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;
use std::time::{Duration, Instant};

use gpasta::sched::RunBudget;
use gpasta::serve::{dispatch, parse_request, HttpLimits, Registry, Request};
use gpasta::session::{DesignSources, Session};
use serde_json::Value;

use crate::design::{
    check_report, edit_batch, endpoint_bits, leon2, same_bits, verilog, BenchEdit, Shape, REPORT_K,
};
use crate::replay::Replay;
use crate::trace::Recorder;
use crate::util::{median, ms, peak_rss_mb, Outcome, Samples};
use crate::wire::{request, Client, Reply};
use crate::{layer_metrics, repeat_setup, write_trace, Args, Plan};

const SESSION: &str = "bench";
/// Executor threads of the daemon's session.
const DAEMON_WORKERS: usize = 2;
/// Readiness is polled at this granularity, never with coarse sleeps.
const POLL: Duration = Duration::from_micros(200);
const READY_TIMEOUT: Duration = Duration::from_secs(60);
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `gpasta serve`. Dropping it shuts the daemon down (asking
/// first, killing after a grace period) and waits for it, on every path
/// out of the workload.
struct Daemon {
    child: Child,
    /// Held open so the daemon's shutdown messages never meet a closed
    /// pipe.
    stdout: Option<BufReader<ChildStdout>>,
    addr: SocketAddr,
    spool: PathBuf,
    stopped: bool,
}

impl Daemon {
    fn spawn(args: &Args, tag: usize) -> Result<Daemon, String> {
        let spool = args
            .workdir
            .join(format!("spool-{}-{tag}", std::process::id()));
        let mut child = Command::new(&args.gpasta)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--workers"])
            .arg(DAEMON_WORKERS.to_string())
            .arg("--spool")
            .arg(&spool)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", args.gpasta.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .rsplit_once("http://")
            .and_then(|(_, a)| a.parse::<SocketAddr>().ok());
        let mut daemon = Daemon {
            child,
            stdout: Some(stdout),
            addr: "127.0.0.1:0".parse().expect("literal address"),
            spool,
            stopped: false,
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                daemon.addr = addr;
                Ok(daemon)
            }
            _ => Err(format!(
                "daemon did not announce its address (got {line:?})"
            )),
        }
    }

    fn wait_ready(&self) -> Result<(), String> {
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            let reply = Client::new(self.addr).exchange(&request("GET", "/readyz", None));
            if matches!(reply, Ok(ref r) if r.status == 200) {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err("daemon never became ready".into());
            }
            std::thread::sleep(POLL);
        }
    }

    fn shutdown(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        let _ = Client::new(self.addr).exchange(&request("POST", "/shutdown", None));
        let deadline = Instant::now() + EXIT_TIMEOUT;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(_)) | Err(_) => break,
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        self.stdout = None;
        let _ = std::fs::remove_dir_all(&self.spool);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn json(reply: &Reply) -> Option<Value> {
    serde_json::from_str(&reply.body).ok()
}

/// `report.wns_bits` and `report.tns_bits` of a create or update reply.
fn reply_bits(v: &Value) -> Option<(String, String)> {
    let report = v.get("report")?;
    Some((
        report.get("wns_bits")?.as_str()?.to_string(),
        report.get("tns_bits")?.as_str()?.to_string(),
    ))
}

fn create_body(text: &str) -> String {
    let body = Value::Object(vec![
        ("name".to_string(), Value::String(SESSION.to_string())),
        ("verilog".to_string(), Value::String(text.to_string())),
    ]);
    serde_json::to_string(&body).expect("a JSON object serializes")
}

fn edit_body(batch: &[BenchEdit], shape: &Shape) -> String {
    let items: Vec<String> = batch.iter().map(|e| e.to_json(shape)).collect();
    format!("{{\"edits\":[{}]}}", items.join(","))
}

fn report_path() -> String {
    format!("/sessions/{SESSION}/report?k={REPORT_K}")
}

/// What the writer connection did.
#[derive(Default)]
struct WriterLog {
    update_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    /// `(wns, tns)` bit patterns of each update reply, in batch order.
    bits: Vec<(String, String)>,
    attempted: u64,
    failed: u64,
    rounds: usize,
    /// Connections the evict and restore requests opened.
    admin_connects: u64,
}

#[derive(Default)]
struct ReaderLog {
    read_ms: Vec<f64>,
    wns_bits: Vec<String>,
    attempted: u64,
    failed: u64,
}

/// One timed request on a traced connection: spans for the time to the
/// first byte and for the gap between the head and the rest of the body.
fn traced_exchange(
    rec: &mut Recorder,
    client: &mut Client,
    req: &[u8],
    id: u64,
) -> Result<Reply, String> {
    let root = rec.begin("serve.request", id);
    let reply = client.exchange(req);
    if let Ok(r) = &reply {
        rec.interval("serve.ttfb", id, r.sent, r.first_byte);
        rec.interval("serve.head_to_body", id, r.head, r.done);
    }
    rec.end(root);
    reply
}

/// Whole writer rounds: `updates_per_round` edit+update pairs, then an
/// evict and a restore with the reader held off. Stops after `fixed`
/// rounds, or once the window is over when `fixed` is `None`.
#[allow(clippy::too_many_arguments)]
fn writer(
    args: &Args,
    plan: &Plan,
    shape: &Shape,
    addr: SocketAddr,
    first_batch: u64,
    fixed: Option<usize>,
    gate: &RwLock<()>,
    rec: &mut Recorder,
) -> WriterLog {
    let mut log = WriterLog::default();
    let mut client = Client::new(addr);
    let edit_path = format!("/sessions/{SESSION}/edit");
    let update_req = request("POST", &format!("/sessions/{SESSION}/update"), Some("{}"));
    let evict_req = request("DELETE", &format!("/sessions/{SESSION}"), None);
    let restore_req = request("POST", &format!("/sessions/{SESSION}/restore"), Some("{}"));
    let mut batch = first_batch;
    let start = Instant::now();
    loop {
        for _ in 0..plan.updates_per_round {
            let edits = edit_batch(args.seed, batch, shape);
            let req = request("POST", &edit_path, Some(&edit_body(&edits, shape)));
            let edited = traced_exchange(rec, &mut client, &req, batch);
            log.attempted += 1;
            if !matches!(edited, Ok(ref r) if r.status == 200) {
                log.failed += 1;
            }
            let updated = traced_exchange(rec, &mut client, &update_req, batch);
            log.attempted += 1;
            let bits = updated.ok().and_then(|r| {
                log.update_ms.push(ms(r.round_trip()));
                let v = json(&r).filter(|_| r.status == 200)?;
                let completed = v.get("outcome")?.get("stop")?.as_str()? == "completed";
                reply_bits(&v).filter(|_| completed)
            });
            match bits {
                Some(b) => log.bits.push(b),
                None => {
                    log.failed += 1;
                    log.bits.push((String::new(), String::new()));
                }
            }
            batch += 1;
        }
        {
            // Evict and restore are operator requests: each goes out on a
            // connection of its own, as from an admin tool, opened before
            // the reader is held off so the daemon has its connection
            // thread waiting. On a reused keep-alive connection their
            // replies would sometimes meet F1's delayed-ACK stall and
            // sometimes not, and a median of that mix jumps between ~5 and
            // ~48 ms from run to run.
            let mut admins = [Client::new(addr), Client::new(addr)];
            for admin in &mut admins {
                let _ = admin.connect();
            }
            let _held = gate.write().expect("the gate guards no data");
            for ((req, samples), admin) in [
                (&evict_req, &mut log.checkpoint_ms),
                (&restore_req, &mut log.restore_ms),
            ]
            .into_iter()
            .zip(&mut admins)
            {
                let reply = traced_exchange(rec, admin, req, batch);
                log.admin_connects += admin.connects;
                log.attempted += 1;
                match reply {
                    Ok(r) if r.status == 200 => samples.push(ms(r.round_trip())),
                    _ => log.failed += 1,
                }
            }
        }
        log.rounds += 1;
        let over = match fixed {
            Some(n) => log.rounds >= n,
            None => plan.over(args, start, log.rounds, log.update_ms.len()),
        };
        if over {
            break;
        }
    }
    rec.count(
        "serve.connects",
        0,
        (client.connects + log.admin_connects) as f64,
    );
    log
}

fn reader(addr: SocketAddr, gate: &RwLock<()>, done: &AtomicBool, rec: &mut Recorder) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut client = Client::new(addr);
    let req = request("GET", &report_path(), None);
    let mut id = 0u64;
    while !done.load(Ordering::Acquire) {
        let reply = {
            let _held = gate.read().expect("the gate guards no data");
            traced_exchange(rec, &mut client, &req, id)
        };
        id += 1;
        log.attempted += 1;
        let bits = reply.ok().and_then(|r| {
            log.read_ms.push(ms(r.round_trip()));
            let v = json(&r).filter(|_| r.status == 200)?;
            Some(reply_bits(&v)?.0)
        });
        match bits {
            Some(b) => log.wns_bits.push(b),
            None => log.failed += 1,
        }
    }
    rec.count("serve.connects", 0, client.connects as f64);
    log
}

/// Run the writer and the reader against the daemon until the writer's
/// rounds are over.
fn load(
    args: &Args,
    plan: &Plan,
    shape: &Shape,
    addr: SocketAddr,
    first_batch: u64,
    fixed: Option<usize>,
    rec: &mut Recorder,
) -> (WriterLog, ReaderLog, Duration) {
    let gate = RwLock::new(());
    let done = AtomicBool::new(false);
    let mut wrec = rec.for_thread(1);
    let mut rrec = rec.for_thread(2);
    let start = Instant::now();
    let (w, r) = std::thread::scope(|s| {
        let r = s.spawn(|| reader(addr, &gate, &done, &mut rrec));
        let w = writer(
            args,
            plan,
            shape,
            addr,
            first_batch,
            fixed,
            &gate,
            &mut wrec,
        );
        // Release: the reader's Acquire load sees the stop only after
        // every writer request has completed.
        done.store(true, Ordering::Release);
        (w, r.join().expect("the reader thread does not panic"))
    });
    let window = start.elapsed();
    rec.absorb(wrec);
    rec.absorb(rrec);
    (w, r, window)
}

/// Spawn, wait for readiness and create the session: one `setup_s`
/// sample. Returns the daemon and the create reply's WNS/TNS bits.
fn start_daemon(args: &Args, tag: usize, body: &str) -> Result<(Daemon, (String, String)), String> {
    let daemon = Daemon::spawn(args, tag)?;
    daemon.wait_ready()?;
    let reply = Client::new(daemon.addr).exchange(&request("POST", "/sessions", Some(body)))?;
    if reply.status != 200 {
        return Err(format!(
            "create_session answered {}: {}",
            reply.status, reply.body
        ));
    }
    let bits = json(&reply)
        .as_ref()
        .and_then(reply_bits)
        .ok_or("create_session reply has no report bits")?;
    Ok((daemon, bits))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let plan = Plan::SERVE.for_args(args);
    let mut out = Outcome::default();
    let mut samples = Samples::default();

    let netlist = leon2(plan.scale, args.seed);
    let text = verilog(&netlist);
    let shape = Shape::of(&netlist);
    drop(netlist);
    let body = create_body(&text);
    eprintln!(
        "perfbench: serve: create_session body {} bytes of JSON",
        body.len()
    );

    let (mut daemon, initial) =
        repeat_setup(&mut samples.setup_s, |tag| start_daemon(args, tag, &body))?;

    let mut off = Recorder::disabled();
    let (w, r, window) = load(args, &plan, &shape, daemon.addr, 0, None, &mut off);
    samples.window = window;
    samples.update_ms = w.update_ms.clone();
    samples.read_ms = r.read_ms.clone();
    samples.checkpoint_ms = w.checkpoint_ms.clone();
    samples.restore_ms = w.restore_ms.clone();
    let mut writes = vec![w];
    let mut reads = vec![r];

    let mut rec = Recorder::new(Instant::now(), 0);
    if args.trace {
        let first = writes[0].bits.len() as u64;
        let rounds = writes[0].rounds;
        let (w, r, _) = load(
            args,
            &plan,
            &shape,
            daemon.addr,
            first,
            Some(rounds),
            &mut rec,
        );
        writes.push(w);
        reads.push(r);
    }
    let final_report = Client::new(daemon.addr).exchange(&request("GET", &report_path(), None));
    samples.peak_rss_mb = peak_rss_mb(Some(daemon.child.id())).unwrap_or(0.0);
    daemon.shutdown();
    samples.log("serve");

    for w in &writes {
        out.attempted += w.attempted;
        out.failed += w.failed;
    }
    for r in &reads {
        out.attempted += r.attempted;
        out.failed += r.failed;
    }
    out.op(matches!(final_report, Ok(ref r) if r.status == 200));

    // An in-process session fed the identical edit stream must reproduce
    // every update reply's bits, and every read must show a state some
    // update (or the create) produced.
    let wire_bits: Vec<(String, String)> = writes.iter().flat_map(|w| w.bits.clone()).collect();
    let mut oracle = Session::create(
        SESSION,
        DesignSources::verilog_only(text.clone()),
        DAEMON_WORKERS,
    )
    .map_err(|e| format!("oracle session: {e}"))?;
    eprintln!(
        "perfbench: serve: leon2@{} {:?}",
        plan.scale,
        oracle.shape()
    );
    let hex = |v: f32| format!("{:08x}", v.to_bits());
    let mut states: HashSet<String> = HashSet::from([initial.0.clone()]);
    let mut mismatch = Ok(());
    for (i, got) in wire_bits.iter().enumerate() {
        for e in edit_batch(args.seed, i as u64, &shape) {
            oracle
                .apply_edit(&e.to_session(&shape))
                .map_err(|e| format!("oracle edit: {e}"))?;
        }
        oracle
            .update_timing(&RunBudget::unbounded())
            .map_err(|e| format!("oracle update: {e}"))?;
        let rep = oracle.report(0);
        let want = (hex(rep.wns_ps), hex(rep.tns_ps));
        states.insert(want.0.clone());
        if mismatch.is_ok() && *got != want {
            mismatch = Err(format!(
                "update {i}: wire WNS/TNS bits {got:?}, in-process {want:?}"
            ));
        }
    }
    out.check("update replies equal an in-process session", mismatch);
    let stray = reads
        .iter()
        .flat_map(|r| r.wns_bits.iter())
        .find(|b| !states.contains(*b));
    out.check(
        "every read shows a state an update produced",
        match stray {
            Some(b) => Err(format!("read WNS bits {b} match no update")),
            None => Ok(()),
        },
    );
    let oracle_report = oracle.report(REPORT_K);
    out.check(
        "report equals required - arrival",
        check_report(oracle.timer(), &oracle_report),
    );
    out.check(
        "final wire report lists the in-process worst endpoints",
        final_report.and_then(|r| {
            let v = json(&r).ok_or("final report is not JSON")?;
            let worst = v
                .get("report")
                .and_then(|r| r.get("worst"))
                .and_then(Value::as_array)
                .ok_or("no worst list")?;
            let got: Vec<&str> = worst
                .iter()
                .filter_map(|e| e.get("slack_bits").and_then(Value::as_str))
                .collect();
            let want: Vec<String> = oracle_report
                .worst
                .iter()
                .map(|e| hex(e.slack_ps))
                .collect();
            if got.len() == want.len() && got.iter().zip(&want).all(|(g, w)| *g == w.as_str()) {
                Ok(())
            } else {
                Err(format!("wire worst slacks {got:?}, in-process {want:?}"))
            }
        }),
    );

    if args.trace {
        let untraced_p50 = median(&writes[0].update_ms);
        let traced_p50 = median(&writes[1].update_ms);
        rec.time("serve.create_decode", 0, || {
            serde_json::from_str::<Value>(&body)
        })
        .map_err(|e| format!("create body does not decode: {e}"))?;
        in_process(args, &mut rec, &shape, &text, writes[1].bits.len() as u64)?;
        let bits = replay(args, &plan, &mut rec, &shape, &text, wire_bits.len())?;
        out.check(
            "traced replay reaches the in-process bits",
            same_bits(
                "traced replay vs session",
                &bits,
                &endpoint_bits(oracle.timer()),
            ),
        );
        write_trace(args, &rec);
        out.metrics = layer_metrics(&rec, untraced_p50, traced_p50);
    } else {
        out.metrics = samples.metrics();
    }
    Ok(out)
}

/// The router's parameter merge: the JSON body's fields, the session
/// name from the path, and the query pairs (numbers where they parse).
fn params(req: &Request) -> Value {
    let mut pairs = match &req.body {
        Some(Value::Object(body)) => body.clone(),
        _ => Vec::new(),
    };
    pairs.push(("name".to_string(), Value::String(SESSION.to_string())));
    for (key, raw) in &req.query {
        let value = raw
            .parse::<f64>()
            .map_or_else(|_| Value::String(raw.clone()), Value::Number);
        pairs.push((key.clone(), value));
    }
    Value::Object(pairs)
}

/// Decode recorded request bytes, dispatch in-process, encode the reply.
fn serve_bytes(
    rec: &mut Recorder,
    registry: &Registry,
    bytes: &[u8],
    method: &str,
    id: u64,
) -> Result<(), String> {
    let req = rec.time("serve.decode", id, || {
        parse_request(&mut Cursor::new(bytes), &HttpLimits::default())
    });
    let req = req.map_err(|e| e.to_string())?;
    let params = params(&req);
    let value = rec.time("serve.dispatch", id, || dispatch(registry, method, &params));
    let value = value.map_err(|e| e.to_string())?;
    let text = rec.time("serve.encode", id, || serde_json::to_string(&value));
    std::hint::black_box(text.map_err(|e| e.to_string())?);
    Ok(())
}

/// The daemon's layers in-process: the same request bytes through
/// `parse_request`, `dispatch` and the reply encoder, with a writer and a
/// reader thread on one session. The reader times how long it waits for
/// the session lock the writer holds.
fn in_process(
    args: &Args,
    rec: &mut Recorder,
    shape: &Shape,
    text: &str,
    batches: u64,
) -> Result<(), String> {
    let spool = args
        .workdir
        .join(format!("spool-inproc-{}", std::process::id()));
    let registry = Registry::new(spool.clone(), DAEMON_WORKERS, 16).with_admission(256);
    let result = (|| {
        registry
            .create(SESSION, DesignSources::verilog_only(text))
            .map_err(|e| format!("in-process create: {e}"))?;
        let edit_path = format!("/sessions/{SESSION}/edit");
        let update_req = request("POST", &format!("/sessions/{SESSION}/update"), Some("{}"));
        let report_req = request("GET", &report_path(), None);
        let done = AtomicBool::new(false);
        let mut wrec = rec.for_thread(3);
        let mut rrec = rec.for_thread(4);
        let (w, r) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut id = 0u64;
                while !done.load(Ordering::Acquire) {
                    let arc = registry.live(SESSION).map_err(|e| e.to_string())?;
                    rrec.time("serve.lock_wait", id, || drop(arc.lock()));
                    serve_bytes(&mut rrec, &registry, &report_req, "report", id)?;
                    id += 1;
                }
                Ok::<_, String>(())
            });
            let written = (|| {
                for b in 0..batches {
                    let edits = edit_batch(args.seed, b, shape);
                    let req = request("POST", &edit_path, Some(&edit_body(&edits, shape)));
                    serve_bytes(&mut wrec, &registry, &req, "edit_session", b)?;
                    serve_bytes(&mut wrec, &registry, &update_req, "update_timing", b)?;
                }
                Ok::<_, String>(())
            })();
            done.store(true, Ordering::Release);
            (
                written,
                reader.join().expect("the reader thread does not panic"),
            )
        });
        rec.absorb(wrec);
        rec.absorb(rrec);
        w.and(r)
    })();
    drop(registry);
    let _ = std::fs::remove_dir_all(&spool);
    result
}

/// The timing layers the daemon runs per request, replayed in-process
/// on the run's whole edit stream with the same evict/restore points.
/// Returns the final endpoint slack bits.
fn replay(
    args: &Args,
    plan: &Plan,
    rec: &mut Recorder,
    shape: &Shape,
    text: &str,
    batches: usize,
) -> Result<Vec<u32>, String> {
    let netlist = rec.time("circuits.generate", 0, || leon2(plan.scale, args.seed));
    drop(netlist);
    let mut replay = Replay::create(rec, text, DAEMON_WORKERS)?;
    let ckpt = args
        .workdir
        .join(format!("serve-traced-{}.ckpt", std::process::id()));
    for b in 0..batches {
        replay.apply(&edit_batch(args.seed, b as u64, shape));
        replay.update(rec, b as u64)?;
        replay.read(rec, b as u64, REPORT_K);
        if (b + 1) % plan.updates_per_round == 0 {
            replay.evict(rec, b as u64, &ckpt)?;
            replay.restore(rec, b as u64, &ckpt)?;
        }
    }
    let _ = std::fs::remove_file(&ckpt);
    Ok(endpoint_bits(replay.timer()))
}
