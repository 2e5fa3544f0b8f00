//! The benchmark binary: one workload per process.
//!
//! ```text
//! perfbench --workload eco|full|serve --seed N --seconds S --trace 0|1
//!           [--smoke] [--gpasta PATH] [--workdir DIR]
//! ```
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `perfbench/run.py` builds the package and calls this.

mod design;
mod eco;
mod full;
mod replay;
mod serve;
mod trace;
mod util;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::Recorder;
use util::{median, metric, Metric};

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Tiny designs and short rounds, for the benchmark's own tests.
    pub smoke: bool,
    /// The `gpasta` executable the `serve` workload runs as its daemon.
    pub gpasta: PathBuf,
    /// Checkpoints, spools and trace files go here.
    pub workdir: PathBuf,
}

/// Repetitions of the set-up whose median is `setup_s`.
pub const SETUPS: usize = 3;

/// Design size and stop rule of one workload. A run does whole rounds:
/// `updates_per_round` updates, then one checkpoint and one restore.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// leon2 scale of the measured design.
    pub scale: f64,
    /// leon2 scale under `--smoke`.
    pub smoke_scale: f64,
    pub updates_per_round: usize,
    /// Rounds continue past `--seconds` until the checkpoint and restore
    /// p50s have at least ten samples beyond them...
    pub min_rounds: usize,
    /// ...and the update p90 has at least `min_updates / 10` beyond it.
    pub min_updates: usize,
}

impl Plan {
    pub const ECO: Plan = Plan {
        scale: 0.05,
        smoke_scale: 0.002,
        updates_per_round: 25,
        min_rounds: 20,
        min_updates: 100,
    };
    pub const FULL: Plan = Plan {
        scale: 0.05,
        smoke_scale: 0.002,
        updates_per_round: 7,
        min_rounds: 20,
        min_updates: 140,
    };
    pub const SERVE: Plan = Plan {
        scale: 0.004,
        smoke_scale: 0.001,
        updates_per_round: 5,
        min_rounds: 20,
        min_updates: 100,
    };

    /// This plan, or under `--smoke` the same code on a tiny design with
    /// three-update rounds and no minimum.
    pub fn for_args(self, args: &Args) -> Plan {
        if args.smoke {
            Plan {
                scale: self.smoke_scale,
                updates_per_round: 3,
                min_rounds: 0,
                min_updates: 0,
                ..self
            }
        } else {
            self
        }
    }

    /// Whether a run that started at `start` may stop after `rounds`
    /// whole rounds and `updates` updates.
    pub fn over(&self, args: &Args, start: Instant, rounds: usize, updates: usize) -> bool {
        start.elapsed() >= args.seconds && rounds >= self.min_rounds && updates >= self.min_updates
    }
}

/// Run `setup` `SETUPS` times, dropping each result before the next
/// starts, push each one's wall time onto `setup_s`, and keep the last.
pub fn repeat_setup<T>(
    setup_s: &mut Vec<f64>,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<T, String> {
    let mut kept = None;
    for i in 0..SETUPS {
        drop(kept.take());
        let t0 = Instant::now();
        let built = setup(i)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some(built);
    }
    Ok(kept.expect("SETUPS is not 0"))
}

/// Executor threads, device lanes and client connections: the host's
/// parallelism.
pub fn lanes() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        smoke: false,
        gpasta: PathBuf::new(),
        workdir: PathBuf::from(".bench_work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => args.trace = value()? != "0",
            "--smoke" => args.smoke = true,
            "--gpasta" => args.gpasta = value()?.into(),
            "--workdir" => args.workdir = value()?.into(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !matches!(args.workload.as_str(), "eco" | "full" | "serve") {
        return Err("--workload must be eco, full or serve".into());
    }
    Ok(args)
}

/// How a per-layer metric is read off the trace.
enum Source {
    /// Median self time of the spans with this name.
    Span(&'static str),
    /// Mean self time of the spans with this name: for waits, where the
    /// median is the uncontended case.
    MeanSpan(&'static str),
    /// Median of the counts with this name.
    Count(&'static str),
    /// Sum of the counts with this name.
    Total(&'static str),
}

/// Every per-layer metric, in `BENCHMARK.json` order. A layer a workload
/// does not call reads 0.
const LAYERS: &[(&str, Source, &str)] = &[
    (
        "circuits.generate_ms",
        Source::Span("circuits.generate"),
        "ms",
    ),
    ("sta.parse_ms", Source::Span("sta.parse"), "ms"),
    ("sta.timer_build_ms", Source::Span("sta.timer_build"), "ms"),
    ("core.install_ms", Source::Span("core.install"), "ms"),
    (
        "serve.create_decode_ms",
        Source::Span("serve.create_decode"),
        "ms",
    ),
    ("sta.tdg_build_ms", Source::Span("sta.tdg_build"), "ms"),
    ("sta.tasks", Source::Count("sta.tasks"), "count"),
    ("tdg.csr_ms", Source::Span("tdg.csr"), "ms"),
    ("core.partition_ms", Source::Span("core.partition"), "ms"),
    ("tdg.partitions", Source::Count("tdg.partitions"), "count"),
    ("core.repair_ms", Source::Span("core.repair"), "ms"),
    (
        "core.repair_moved",
        Source::Count("core.repair_moved"),
        "count",
    ),
    (
        "core.repair_fresh",
        Source::Count("core.repair_fresh"),
        "count",
    ),
    ("tdg.quotient_ms", Source::Span("tdg.quotient"), "ms"),
    ("sched.execute_ms", Source::Span("sched.execute"), "ms"),
    (
        "sched.dispatches",
        Source::Count("sched.dispatches"),
        "count",
    ),
    (
        "sched.tasks_executed",
        Source::Count("sched.tasks_executed"),
        "count",
    ),
    ("sta.report_ms", Source::Span("sta.report"), "ms"),
    ("sta.paths_ms", Source::Span("sta.paths"), "ms"),
    (
        "checkpoint.write_ms",
        Source::Span("checkpoint.write"),
        "ms",
    ),
    (
        "checkpoint.bytes",
        Source::Count("checkpoint.bytes"),
        "bytes",
    ),
    ("checkpoint.read_ms", Source::Span("checkpoint.read"), "ms"),
    ("session.rebuild_ms", Source::Span("session.rebuild"), "ms"),
    ("serve.ttfb_ms", Source::Span("serve.ttfb"), "ms"),
    (
        "serve.head_to_body_ms",
        Source::Span("serve.head_to_body"),
        "ms",
    ),
    ("serve.decode_ms", Source::Span("serve.decode"), "ms"),
    ("serve.dispatch_ms", Source::Span("serve.dispatch"), "ms"),
    ("serve.encode_ms", Source::Span("serve.encode"), "ms"),
    (
        "serve.lock_wait_ms",
        Source::MeanSpan("serve.lock_wait"),
        "ms",
    ),
    ("serve.connects", Source::Total("serve.connects"), "count"),
];

/// The per-layer metrics of a traced run, plus the tracing overhead: the
/// traced phase's median update latency against the untraced phase's.
pub fn layer_metrics(rec: &Recorder, untraced_p50: f64, traced_p50: f64) -> Vec<Metric> {
    let spans = rec.self_ms();
    let counts = rec.counts();
    let mut out: Vec<Metric> = LAYERS
        .iter()
        .map(|(name, from, unit)| {
            let value = match from {
                Source::Span(s) => spans.get(s).map_or(0.0, |v| median(v)),
                Source::MeanSpan(s) => spans
                    .get(s)
                    .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64),
                Source::Count(c) => counts.get(c).map_or(0.0, |v| median(v)),
                Source::Total(c) => counts.get(c).map_or(0.0, |v| v.iter().sum()),
            };
            metric(name, value, unit)
        })
        .collect();
    let overhead = if untraced_p50 > 0.0 {
        100.0 * (traced_p50 / untraced_p50 - 1.0)
    } else {
        0.0
    };
    out.push(metric("trace.overhead_pct", overhead, "%"));
    out
}

/// Write the traced run's spans next to the other run artefacts.
pub fn write_trace(args: &Args, rec: &Recorder) {
    let path = args.workdir.join(format!(
        "trace-{}-seed{}-{}.jsonl",
        args.workload,
        args.seed,
        std::process::id()
    ));
    match rec.write_jsonl(&path) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.workdir) {
        eprintln!("perfbench: cannot create {}: {e}", args.workdir.display());
        return ExitCode::FAILURE;
    }
    let result = match args.workload.as_str() {
        "eco" => eco::run(&args),
        "full" => full::run(&args),
        _ => serve::run(&args),
    };
    match result {
        Ok(outcome) => {
            println!("{}", outcome.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} did not run to its end: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
