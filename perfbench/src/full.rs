//! `full`: the paper's Fig. 1(a) flow, a whole-design update per
//! iteration.
//!
//! Each iteration applies a seeded edit batch, invalidates the whole
//! design and runs `Timer::update_timing`, `Tdg::csr`, a fresh `GPasta`
//! (Alg. 1 on the simulated device, one lane per host thread),
//! `QuotientTdg::build` and `Executor::run_partitioned`, then reads
//! `report(k)`. After every round it checkpoints the timing state and
//! resumes from the checkpoint, as a batch flow does across a restart.
//! The partitioner, the CSR view and the quotient do most of the work;
//! incremental repair and the wire are bypassed.

use std::path::Path;
use std::time::Instant;

use gpasta::checkpoint::DesignShape;
use gpasta::core::{GPasta, Partitioner, PartitionerOptions};
use gpasta::gpu::Device;
use gpasta::sched::Executor;
use gpasta::session::DesignSources;
use gpasta::sta::{k_worst_paths, Timer};
use gpasta::tdg::QuotientTdg;

use crate::design::{
    check_report, edit_batch, endpoint_bits, leon2, same_bits, verilog, BenchEdit, Shape, REPORT_K,
};
use crate::replay::{build_timer, resume, write_state};
use crate::trace::Recorder;
use crate::util::{median, ms, peak_rss_mb, Outcome, Samples};
use crate::{lanes, layer_metrics, repeat_setup, write_trace, Args, Plan};

/// The flow's state between iterations.
struct Flow {
    sources: DesignSources,
    shape: Shape,
    timer: Timer,
    exec: Executor,
    /// `(net, f32 bits)` of every net-capacitance edit, replayed on resume.
    journal: Vec<(u32, u32)>,
    iterations: u64,
}

/// Generate, write and parse the design, build the timer and run the
/// initial full analysis.
fn setup(rec: &mut Recorder, plan: &Plan, seed: u64) -> Result<Flow, String> {
    let netlist = rec.time("circuits.generate", 0, || leon2(plan.scale, seed));
    let text = rec.time("sta.verilog_text", 0, || verilog(&netlist));
    let shape = Shape::of(&netlist);
    drop(netlist);
    let mut timer = build_timer(rec, 0, &text)?;
    rec.time("core.install", 0, || timer.update_timing().run_sequential());
    Ok(Flow {
        sources: DesignSources::verilog_only(text),
        shape,
        timer,
        exec: Executor::new(lanes()),
        journal: Vec::new(),
        iterations: 0,
    })
}

/// Every task lies in exactly one partition's execution order.
fn check_cover(quotient: &QuotientTdg, num_tasks: usize) -> Result<(), String> {
    let mut seen = vec![false; num_tasks];
    for order in quotient.execution_orders() {
        for &t in order {
            match seen.get_mut(t as usize) {
                Some(s) if !*s => *s = true,
                Some(_) => return Err(format!("task {t} lies in two partitions")),
                None => return Err(format!("task {t} is out of range")),
            }
        }
    }
    match seen.iter().position(|s| !s) {
        Some(t) => Err(format!("task {t} lies in no partition")),
        None => Ok(()),
    }
}

/// One whole-design update and one read.
fn iteration(
    rec: &mut Recorder,
    flow: &mut Flow,
    seed: u64,
    out: &mut Outcome,
    samples: &mut Samples,
) -> Result<(), String> {
    let req = flow.iterations;
    for e in edit_batch(seed, req, &flow.shape) {
        e.apply_to(&mut flow.timer);
        if let BenchEdit::NetCap { net, cap_ff } = e {
            flow.journal.push((net, cap_ff.to_bits()));
        }
    }
    flow.timer.invalidate_all();
    flow.iterations += 1;

    let t = Instant::now();
    let root = rec.begin("update", req);
    let span = rec.begin("sta.tdg_build", req);
    let update = flow.timer.update_timing();
    rec.end(span);
    let tdg = update.tdg();
    rec.time("tdg.csr", req, || {
        tdg.csr();
    });
    let partition = rec.time("core.partition", req, || {
        GPasta::with_device(Device::new(lanes())).partition(tdg, &PartitionerOptions::default())
    });
    let partition = partition.map_err(|e| format!("partition: {e}"));
    let quotient = partition.and_then(|p| {
        rec.count("tdg.partitions", req, p.num_partitions() as f64);
        rec.time("tdg.quotient", req, || QuotientTdg::build(tdg, &p))
            .map_err(|e| format!("quotient rejects the partition: {e}"))
    });
    let ran = quotient.map(|q| {
        let report = rec.time("sched.execute", req, || {
            flow.exec.run_partitioned(&q, &update.task_fn())
        });
        (q, report)
    });
    rec.end(root);
    samples.update_ms.push(ms(t.elapsed()));
    out.op(ran.is_ok());
    let (quotient, report) = ran?;
    let n = tdg.num_tasks();
    rec.count("sta.tasks", req, n as f64);
    rec.count("sched.dispatches", req, report.dispatches as f64);
    rec.count("sched.tasks_executed", req, report.tasks_executed as f64);
    out.check(
        "partition covers every task once and all of them run",
        check_cover(&quotient, n).and_then(|()| {
            if report.tasks_executed == n {
                Ok(())
            } else {
                Err(format!("{} of {n} tasks executed", report.tasks_executed))
            }
        }),
    );
    drop(update);

    let t = Instant::now();
    let read = rec.time("sta.report", req, || flow.timer.report(REPORT_K));
    samples.read_ms.push(ms(t.elapsed()));
    out.op(true);
    if rec.enabled() {
        if let Some(worst) = read.worst.first() {
            let node = worst.node;
            let timer = &flow.timer;
            let paths = rec.time("sta.paths", req, || {
                k_worst_paths(timer.graph(), timer.netlist(), timer.data(), node, REPORT_K)
            });
            std::hint::black_box(paths);
        }
    }
    Ok(())
}

/// Checkpoint the timing state, then resume from it on a rebuilt timer.
fn checkpoint_and_resume(
    rec: &mut Recorder,
    flow: &mut Flow,
    path: &Path,
    round: u64,
    out: &mut Outcome,
    samples: &mut Samples,
) -> Result<(), String> {
    let before = endpoint_bits(&flow.timer);
    let t = Instant::now();
    let written = write_state(
        rec,
        round,
        path,
        &flow.sources,
        flow.iterations as u32,
        &flow.timer,
        None,
    );
    samples.checkpoint_ms.push(ms(t.elapsed()));
    out.op(written.is_ok());
    written.map_err(|e| format!("checkpoint: {e}"))?;

    let t = Instant::now();
    let root = rec.begin("restore", round);
    let resumed = resume(
        rec,
        round,
        path,
        &flow.sources.verilog,
        &flow.journal,
        |_, _| Ok(()),
    );
    rec.end(root);
    samples.restore_ms.push(ms(t.elapsed()));
    out.op(resumed.is_ok());
    flow.timer = resumed.map_err(|e| format!("resume: {e}"))?.0;
    out.check(
        "resume is bit-exact",
        same_bits("resumed timer", &endpoint_bits(&flow.timer), &before),
    );
    Ok(())
}

/// Whole rounds until the window is over (`rounds` fixed, or open-ended
/// when `None`). Returns the rounds run.
fn rounds(
    args: &Args,
    plan: &Plan,
    rec: &mut Recorder,
    flow: &mut Flow,
    fixed: Option<usize>,
    out: &mut Outcome,
    samples: &mut Samples,
) -> Result<usize, String> {
    let ckpt = args
        .workdir
        .join(format!("full-{}.ckpt", std::process::id()));
    let start = Instant::now();
    let mut done = 0;
    loop {
        for _ in 0..plan.updates_per_round {
            iteration(rec, flow, args.seed, out, samples)?;
        }
        checkpoint_and_resume(rec, flow, &ckpt, done as u64, out, samples)?;
        done += 1;
        let over = match fixed {
            Some(n) => done >= n,
            None => plan.over(args, start, done, samples.update_ms.len()),
        };
        if over {
            break;
        }
    }
    samples.window = start.elapsed();
    let _ = std::fs::remove_file(&ckpt);
    Ok(done)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let plan = Plan::FULL.for_args(args);
    let mut out = Outcome::default();
    let mut samples = Samples::default();
    let mut off = Recorder::disabled();

    let mut flow = repeat_setup(&mut samples.setup_s, |_| setup(&mut off, &plan, args.seed))?;
    eprintln!(
        "perfbench: full: leon2@{} {:?}",
        plan.scale,
        DesignShape::of(&flow.timer)
    );
    let done = rounds(
        args,
        &plan,
        &mut off,
        &mut flow,
        None,
        &mut out,
        &mut samples,
    )?;
    samples.peak_rss_mb = peak_rss_mb(None).unwrap_or(0.0);
    samples.log("full");

    // The partitioned answer against an unpartitioned sequential run of
    // the same state, and the report against the raw values.
    let partitioned = endpoint_bits(&flow.timer);
    out.check(
        "report equals required - arrival",
        check_report(&flow.timer, &flow.timer.report(REPORT_K)),
    );
    flow.timer.invalidate_all();
    flow.timer.update_timing().run_sequential();
    out.check(
        "partitioned run equals an unpartitioned sequential run",
        same_bits(
            "partitioned vs sequential",
            &partitioned,
            &endpoint_bits(&flow.timer),
        ),
    );

    if args.trace {
        drop(flow);
        let mut rec = Recorder::new(Instant::now(), 0);
        let mut traced = Samples::default();
        let mut flow = setup(&mut rec, &plan, args.seed)?;
        rounds(
            args,
            &plan,
            &mut rec,
            &mut flow,
            Some(done),
            &mut out,
            &mut traced,
        )?;
        out.check(
            "traced run reaches the untraced bits",
            same_bits(
                "traced vs untraced",
                &endpoint_bits(&flow.timer),
                &partitioned,
            ),
        );
        write_trace(args, &rec);
        out.metrics = layer_metrics(&rec, median(&samples.update_ms), median(&traced.update_ms));
    } else {
        out.metrics = samples.metrics();
    }
    Ok(out)
}
