//! `eco`: the timing-closure loop on an in-process `Session`.
//!
//! A closed loop applies a seeded batch of 1–8 edits, calls
//! `update_timing`, and reads `report(k)`. After every round of updates it
//! evicts the session to a checkpoint and restores it. Updates are
//! cone-local: dispatch and incremental repair dominate, and the partition
//! kernel is never called.

use std::time::Instant;

use gpasta::sched::{RunBudget, StopCause};
use gpasta::session::{DesignSources, Session};

use crate::design::{
    check_report, edit_batch, endpoint_bits, fresh_oracle_bits, leon2, same_bits, verilog,
    BenchEdit, Shape, REPORT_K,
};
use crate::replay::Replay;
use crate::trace::Recorder;
use crate::util::{median, ms, peak_rss_mb, Outcome, Samples};
use crate::{lanes, layer_metrics, repeat_setup, write_trace, Args, Plan};

pub fn run(args: &Args) -> Result<Outcome, String> {
    let plan = Plan::ECO.for_args(args);
    let workers = lanes();
    let mut out = Outcome::default();
    let mut samples = Samples::default();

    // Set-up: generation, Verilog text, session create (parse, timer,
    // initial analysis, partition-cache install).
    let built = repeat_setup(&mut samples.setup_s, |_| {
        let netlist = leon2(plan.scale, args.seed);
        let text = verilog(&netlist);
        let shape = Shape::of(&netlist);
        drop(netlist);
        let session = Session::create("bench", DesignSources::verilog_only(text.clone()), workers)
            .map_err(|e| format!("session create: {e}"))?;
        Ok((text, shape, session))
    })?;
    let (text, shape, mut session) = built;
    eprintln!("perfbench: eco: leon2@{} {:?}", plan.scale, session.shape());

    let ckpt = args
        .workdir
        .join(format!("eco-{}.ckpt", std::process::id()));
    let mut applied: Vec<BenchEdit> = Vec::new();
    let mut batches = 0u64;
    let mut rounds = 0usize;
    let start = Instant::now();
    loop {
        for _ in 0..plan.updates_per_round {
            let batch = edit_batch(args.seed, batches, &shape);
            batches += 1;
            let mut ok = true;
            for e in &batch {
                ok &= session.apply_edit(&e.to_session(&shape)).is_ok();
            }
            applied.extend(batch);
            let t = Instant::now();
            let update = session.update_timing(&RunBudget::unbounded());
            samples.update_ms.push(ms(t.elapsed()));
            ok &= matches!(update, Ok(ref u) if u.stop == StopCause::Completed);
            out.op(ok);

            let t = Instant::now();
            let report = session.report(REPORT_K);
            samples.read_ms.push(ms(t.elapsed()));
            std::hint::black_box(report);
            out.op(true);
        }
        let before = endpoint_bits(session.timer());
        let t = Instant::now();
        let dormant = session.evict_to(&ckpt);
        samples.checkpoint_ms.push(ms(t.elapsed()));
        out.op(dormant.is_ok());
        let dormant = dormant.map_err(|e| format!("evict: {e}"))?;
        drop(session);
        let t = Instant::now();
        let restored = dormant.restore(workers);
        samples.restore_ms.push(ms(t.elapsed()));
        out.op(restored.is_ok());
        session = restored.map_err(|e| format!("restore: {e}"))?;
        out.check(
            "restore is bit-exact",
            same_bits("restored session", &endpoint_bits(session.timer()), &before),
        );
        rounds += 1;
        if plan.over(args, start, rounds, samples.update_ms.len()) {
            break;
        }
    }
    samples.window = start.elapsed();
    samples.peak_rss_mb = peak_rss_mb(None).unwrap_or(0.0);
    let _ = std::fs::remove_file(&ckpt);
    samples.log("eco");

    // The session's answer against an independent sequential analysis of
    // the same netlist and edits, and its report against its own values.
    let final_bits = endpoint_bits(session.timer());
    out.check(
        "incremental session equals a fresh sequential timer",
        fresh_oracle_bits(&text, &applied)
            .and_then(|want| same_bits("session vs fresh timer", &final_bits, &want)),
    );
    out.check(
        "report equals required - arrival",
        check_report(session.timer(), &session.report(REPORT_K)),
    );

    if args.trace {
        let untraced_p50 = median(&samples.update_ms);
        drop(session);
        let (rec, traced_p50, bits) = traced(args, &plan, &shape, rounds, workers)?;
        out.check(
            "traced replay reaches the session's bits",
            same_bits("traced replay vs session", &bits, &final_bits),
        );
        write_trace(args, &rec);
        out.metrics = layer_metrics(&rec, untraced_p50, traced_p50);
    } else {
        out.metrics = samples.metrics();
    }
    Ok(out)
}

/// Replay the same set-up, edit stream, reads and evict/restore rounds
/// through the layers' public calls, with a span around each call.
/// Returns the recorder, the traced median update latency and the final
/// endpoint slack bits.
fn traced(
    args: &Args,
    plan: &Plan,
    shape: &Shape,
    rounds: usize,
    workers: usize,
) -> Result<(Recorder, f64, Vec<u32>), String> {
    let mut rec = Recorder::new(Instant::now(), 0);
    let netlist = rec.time("circuits.generate", 0, || leon2(plan.scale, args.seed));
    let text = rec.time("sta.verilog_text", 0, || verilog(&netlist));
    drop(netlist);
    let mut replay = Replay::create(&mut rec, &text, workers)?;
    let ckpt = args
        .workdir
        .join(format!("eco-traced-{}.ckpt", std::process::id()));
    let mut update_ms = Vec::new();
    let mut index = 0u64;
    for round in 0..rounds {
        for _ in 0..plan.updates_per_round {
            replay.apply(&edit_batch(args.seed, index, shape));
            let t = Instant::now();
            replay.update(&mut rec, index)?;
            update_ms.push(ms(t.elapsed()));
            replay.read(&mut rec, index, REPORT_K);
            index += 1;
        }
        replay.evict(&mut rec, round as u64, &ckpt)?;
        replay.restore(&mut rec, round as u64, &ckpt)?;
    }
    let _ = std::fs::remove_file(&ckpt);
    let bits = endpoint_bits(replay.timer());
    Ok((rec, median(&update_ms), bits))
}
