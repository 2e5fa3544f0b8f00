//! The traced incremental pipeline.
//!
//! `Session` keeps its timer, partition cache and executor private, so the
//! traced run rebuilds the same pipeline from the layers' public calls —
//! `Timer::update_timing`, `IncrementalPartitioner::repair_and_project`,
//! `QuotientTdg::build_in`, `run_partitioned_recovering_bounded` — and
//! opens a span around each. It replays the untraced run's edit stream and
//! must reach the same slack bits (checked by the caller). Its checkpoint
//! write and its rebuild from a checkpoint are also `full`'s checkpoint
//! and resume, without the partition cache.

use std::path::Path;

use gpasta::checkpoint::{read_checkpoint, write_checkpoint, DesignShape, UpdateCheckpoint};
use gpasta::core::{IncrementalPartitioner, PartitionerOptions, SeqGPasta};
use gpasta::sched::{Executor, FaultPlan, RetryPolicy, RunBudget, StopCause};
use gpasta::session::DesignSources;
use gpasta::sta::{k_worst_paths, parse_verilog, CellLibrary, Timer, TimingReport};
use gpasta::tdg::{QuotientArena, QuotientTdg};

use crate::design::{BenchEdit, CLOCK_PS};
use crate::trace::Recorder;

pub struct Replay {
    sources: DesignSources,
    timer: Timer,
    inc: IncrementalPartitioner<SeqGPasta>,
    exec: Executor,
    arena: QuotientArena,
    /// `(net, f32 bits)` of every net-capacitance edit: net caps live in
    /// the netlist, which a restore rebuilds from source.
    journal: Vec<(u32, u32)>,
    updates_done: u32,
}

/// Write a checkpoint of `timer`'s timing state, and of the partition
/// cache when `inc` is given (what `Session::evict_to` writes).
pub fn write_state(
    rec: &mut Recorder,
    req: u64,
    path: &Path,
    sources: &DesignSources,
    iterations_done: u32,
    timer: &Timer,
    inc: Option<&IncrementalPartitioner<SeqGPasta>>,
) -> Result<(), String> {
    let written = rec.time("checkpoint.write", req, || {
        let ckpt = UpdateCheckpoint {
            circuit: "bench".to_string(),
            scale_bits: sources.netlist_bits(),
            seed: sources.constraint_bits(),
            iterations_done,
            shape: DesignShape::of(timer),
            snapshot: timer.snapshot(),
            cache: inc.and_then(|inc| inc.export_cache().ok()),
        };
        write_checkpoint(path, &ckpt)
    });
    written.map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    rec.count("checkpoint.bytes", req, bytes as f64);
    Ok(())
}

/// Read a checkpoint and rebuild its timer from the sources (what
/// `DormantSession::restore` does): reparse, replay the net-cap journal
/// (net caps live in the netlist), and restore the snapshot.
/// `before_restore` sees the rebuilt timer while it is still wholly dirty,
/// within the rebuild span.
pub fn resume(
    rec: &mut Recorder,
    req: u64,
    path: &Path,
    verilog: &str,
    journal: &[(u32, u32)],
    before_restore: impl FnOnce(&mut Timer, &mut UpdateCheckpoint) -> Result<(), String>,
) -> Result<(Timer, UpdateCheckpoint), String> {
    let ckpt = rec.time("checkpoint.read", req, || read_checkpoint(path));
    let mut ckpt = ckpt.map_err(|e| e.to_string())?;
    let span = rec.begin("session.rebuild", req);
    let timer = build_timer(rec, req, verilog).and_then(|mut timer| {
        before_restore(&mut timer, &mut ckpt)?;
        for &(net, bits) in journal {
            timer.set_net_cap(net, f32::from_bits(bits));
        }
        timer
            .restore_snapshot(&ckpt.snapshot)
            .map_err(|e| e.to_string())?;
        Ok(timer)
    });
    rec.end(span);
    Ok((timer?, ckpt))
}

pub fn build_timer(rec: &mut Recorder, req: u64, verilog: &str) -> Result<Timer, String> {
    let netlist = rec.time("sta.parse", req, || parse_verilog(verilog));
    let netlist = netlist.map_err(|e| e.to_string())?;
    rec.time("sta.timer_build", req, || {
        let mut timer =
            Timer::try_new(netlist, CellLibrary::typical()).map_err(|e| e.to_string())?;
        timer.set_clock_period(CLOCK_PS);
        Ok(timer)
    })
}

impl Replay {
    /// Parse, build the timer, run the initial full analysis and install
    /// the partition cache on its TDG (what `Session::create` does).
    pub fn create(rec: &mut Recorder, verilog: &str, workers: usize) -> Result<Replay, String> {
        let mut timer = build_timer(rec, 0, verilog)?;
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        rec.time("core.install", 0, || {
            let full = timer.update_timing();
            inc.install(full.tdg(), &PartitionerOptions::default())
                .map_err(|e| e.to_string())?;
            full.run_sequential();
            Ok::<_, String>(())
        })?;
        Ok(Replay {
            sources: DesignSources::verilog_only(verilog),
            timer,
            inc,
            exec: Executor::new(workers),
            arena: QuotientArena::new(),
            journal: Vec::new(),
            updates_done: 0,
        })
    }

    pub fn timer(&self) -> &Timer {
        &self.timer
    }

    /// Apply an edit batch straight to the timer.
    pub fn apply(&mut self, batch: &[BenchEdit]) {
        for &e in batch {
            e.apply_to(&mut self.timer);
            if let BenchEdit::NetCap { net, cap_ff } = e {
                self.journal.push((net, cap_ff.to_bits()));
            }
        }
    }

    /// One incremental update of the applied edits.
    pub fn update(&mut self, rec: &mut Recorder, req: u64) -> Result<(), String> {
        let root = rec.begin("update", req);
        let span = rec.begin("sta.tdg_build", req);
        let update = self.timer.update_timing();
        rec.end(span);
        let tasks = update.tdg().num_tasks();
        rec.count("sta.tasks", req, tasks as f64);
        if tasks > 0 {
            let repaired = rec.time("core.repair", req, || {
                let ids = update.full_space_ids();
                self.inc.repair_and_project(&ids)
            });
            let (stats, sub) = repaired.map_err(|e| e.to_string())?;
            rec.count("core.repair_moved", req, stats.moved as f64);
            rec.count("core.repair_fresh", req, stats.fresh_partitions as f64);
            let quotient = rec.time("tdg.quotient", req, || {
                QuotientTdg::build_in(update.tdg(), &sub, &mut self.arena)
            });
            let quotient = quotient.map_err(|e| e.to_string())?;
            let ran = rec.time("sched.execute", req, || {
                update.run_partitioned_recovering_bounded(
                    &self.exec,
                    &quotient,
                    &FaultPlan::none(),
                    &RetryPolicy::default(),
                    &RunBudget::unbounded(),
                )
            });
            self.arena.recycle(quotient);
            rec.count(
                "sched.dispatches",
                req,
                ran.outcome.report.dispatches as f64,
            );
            rec.count(
                "sched.tasks_executed",
                req,
                ran.outcome.report.tasks_executed as f64,
            );
            if ran.outcome.stop != StopCause::Completed || !ran.is_clean() {
                rec.end(root);
                return Err(format!("update {req} did not complete cleanly"));
            }
        }
        drop(update);
        rec.end(root);
        self.updates_done += 1;
        Ok(())
    }

    /// One `report(k)` read plus the `k` worst paths through the most
    /// critical endpoint.
    pub fn read(&self, rec: &mut Recorder, req: u64, k: usize) -> TimingReport {
        let root = rec.begin("read", req);
        let report = rec.time("sta.report", req, || self.timer.report(k));
        if let Some(worst) = report.worst.first() {
            let node = worst.node;
            let paths = rec.time("sta.paths", req, || {
                k_worst_paths(
                    self.timer.graph(),
                    self.timer.netlist(),
                    self.timer.data(),
                    node,
                    k,
                )
            });
            std::hint::black_box(paths);
        }
        rec.end(root);
        report
    }

    /// Checkpoint the timing state and the partition cache.
    pub fn evict(&mut self, rec: &mut Recorder, req: u64, path: &Path) -> Result<(), String> {
        let root = rec.begin("evict", req);
        let written = write_state(
            rec,
            req,
            path,
            &self.sources,
            self.updates_done,
            &self.timer,
            Some(&self.inc),
        );
        rec.end(root);
        written
    }

    /// Rebuild from the checkpoint and the sources, then restore the
    /// partition cache on the rebuilt full TDG.
    pub fn restore(&mut self, rec: &mut Recorder, req: u64, path: &Path) -> Result<(), String> {
        let root = rec.begin("restore", req);
        let result = self.rebuild(rec, req, path);
        rec.end(root);
        result
    }

    fn rebuild(&mut self, rec: &mut Recorder, req: u64, path: &Path) -> Result<(), String> {
        let mut inc = IncrementalPartitioner::new(SeqGPasta::new());
        let (timer, ckpt) = resume(
            rec,
            req,
            path,
            &self.sources.verilog,
            &self.journal,
            |timer, ckpt| {
                let full = timer.update_timing();
                match ckpt.cache.take() {
                    Some(cache) => inc.restore_cache(full.tdg(), cache),
                    None => inc.install(full.tdg(), &PartitionerOptions::default()),
                }
                .map_err(|e| e.to_string())
            },
        )?;
        self.timer = timer;
        self.inc = inc;
        self.arena = QuotientArena::new();
        self.updates_done = ckpt.iterations_done;
        Ok(())
    }
}
