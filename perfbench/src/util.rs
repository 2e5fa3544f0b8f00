//! Seeded randomness, order statistics, memory readings and the result
//! line the benchmark prints.

use std::fmt::Write as _;
use std::time::Duration;

/// splitmix64: a tiny seeded generator, so the edit stream depends on the
/// `--seed` argument and on nothing inside the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `VmHWM` (peak resident set) of a process in MiB, from
/// `/proc/<pid>/status`; `pid` `None` reads this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of failed correctness checks (empty when correct).
    pub wrong: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Count one operation; `ok == false` counts it as failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count one correctness check: a failed check is a failed operation
    /// and makes the run incorrect.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.op(result.is_ok());
        if let Err(why) = result {
            eprintln!("perfbench: check `{what}` failed: {why}");
            self.wrong.push(format!("{what}: {why}"));
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.wrong.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Raw samples of one untraced run, reduced to the end-to-end metrics.
#[derive(Debug, Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub update_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
    /// Length of the measured window (whole rounds).
    pub window: Duration,
    pub peak_rss_mb: f64,
}

impl Samples {
    /// Every end-to-end metric, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let per_s = self.update_ms.len() as f64 / self.window.as_secs_f64().max(1e-9);
        vec![
            metric("setup_s", median(&self.setup_s), "s"),
            metric("update_p50_ms", median(&self.update_ms), "ms"),
            metric("update_p90_ms", percentile(&self.update_ms, 0.9), "ms"),
            metric("updates_per_s", per_s, "1/s"),
            metric("read_p50_ms", median(&self.read_ms), "ms"),
            metric("read_p90_ms", percentile(&self.read_ms, 0.9), "ms"),
            metric("checkpoint_p50_ms", median(&self.checkpoint_ms), "ms"),
            metric("restore_p50_ms", median(&self.restore_ms), "ms"),
            metric("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }

    /// One line on stderr with the sample counts behind the percentiles.
    pub fn log(&self, workload: &str) {
        eprintln!(
            "perfbench: {workload}: {} set-ups, {} updates, {} reads, {} checkpoints, {} restores in {:.2} s",
            self.setup_s.len(),
            self.update_ms.len(),
            self.read_ms.len(),
            self.checkpoint_ms.len(),
            self.restore_ms.len(),
            self.window.as_secs_f64()
        );
    }
}
