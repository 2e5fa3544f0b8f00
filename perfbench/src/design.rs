//! The benchmark's inputs and its independent correctness checks.
//!
//! Inputs: leon2, the paper's largest design, generated at a chosen scale
//! from the `--seed` argument, and a seeded stream of edit batches (1–8
//! repower or net-capacitance edits each). Checks: slacks recomputed from
//! the raw arrival/required values, WNS/TNS recomputed from them, and a
//! fresh timer analysed sequentially with the edits applied directly.

use gpasta::circuits::PaperCircuit;
use gpasta::session::Edit;
use gpasta::sta::{
    parse_verilog, write_verilog, CellLibrary, GateId, Mode, Netlist, NodeId, Timer, TimingData,
    TimingReport, Tr,
};

use crate::util::Rng;

/// Clock period every workload analyses against (the session default).
pub const CLOCK_PS: f32 = 1_000.0;
/// Endpoints per report read.
pub const REPORT_K: usize = 10;
/// Largest edit batch.
pub const MAX_BATCH: u64 = 8;
/// Drive strengths a repower edit picks from (exact in binary, so they
/// survive the JSON wire unchanged).
const DRIVES: [f32; 7] = [0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0];

/// leon2 at `scale` of the paper's task count, from `seed`.
pub fn leon2(scale: f64, seed: u64) -> Netlist {
    let mut spec = PaperCircuit::Leon2.spec(scale);
    spec.seed = seed;
    gpasta::circuits::generate_netlist(&spec)
}

pub fn verilog(netlist: &Netlist) -> String {
    write_verilog(netlist, "leon2")
}

/// What the edit stream needs to know about the design.
#[derive(Debug, Clone)]
pub struct Shape {
    pub gate_names: Vec<String>,
    pub nets: u32,
}

impl Shape {
    pub fn of(netlist: &Netlist) -> Shape {
        Shape {
            gate_names: netlist.gates().iter().map(|g| g.name.clone()).collect(),
            nets: netlist.num_nets() as u32,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BenchEdit {
    Repower { gate: u32, drive: f32 },
    NetCap { net: u32, cap_ff: f32 },
}

/// Edit batch `index` of the stream seeded by `seed`: 1–8 edits, half
/// repowers and half net-capacitance changes on uniformly drawn objects.
pub fn edit_batch(seed: u64, index: u64, shape: &Shape) -> Vec<BenchEdit> {
    let mut rng = Rng::new(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let n = 1 + rng.below(MAX_BATCH);
    (0..n)
        .map(|_| {
            if rng.below(2) == 0 {
                BenchEdit::Repower {
                    gate: rng.below(shape.gate_names.len() as u64) as u32,
                    drive: DRIVES[rng.below(DRIVES.len() as u64) as usize],
                }
            } else {
                BenchEdit::NetCap {
                    net: rng.below(u64::from(shape.nets)) as u32,
                    cap_ff: 0.25 * (1 + rng.below(40)) as f32,
                }
            }
        })
        .collect()
}

impl BenchEdit {
    /// The session edit, addressing gates by netlist name as a user would.
    pub fn to_session(self, shape: &Shape) -> Edit {
        match self {
            BenchEdit::Repower { gate, drive } => Edit::Repower {
                gate: shape.gate_names[gate as usize].clone(),
                drive,
            },
            BenchEdit::NetCap { net, cap_ff } => Edit::SetNetCap { net, cap_ff },
        }
    }

    /// Apply straight to a timer, bypassing the session layer.
    pub fn apply_to(self, timer: &mut Timer) {
        match self {
            BenchEdit::Repower { gate, drive } => timer.repower_gate(GateId(gate), drive),
            BenchEdit::NetCap { net, cap_ff } => timer.set_net_cap(net, cap_ff),
        }
    }

    /// The wire form `POST /sessions/{name}/edit` takes.
    pub fn to_json(self, shape: &Shape) -> String {
        match self {
            BenchEdit::Repower { gate, drive } => format!(
                "{{\"op\":\"repower\",\"gate\":\"{}\",\"drive\":{drive:?}}}",
                shape.gate_names[gate as usize]
            ),
            BenchEdit::NetCap { net, cap_ff } => {
                format!("{{\"op\":\"set_net_cap\",\"net\":{net},\"cap_ff\":{cap_ff:?}}}")
            }
        }
    }
}

/// Setup (late) slack at `v` recomputed from the raw values: the worst
/// over transitions of required − arrival.
pub fn slack_from_data(data: &TimingData, v: NodeId) -> f32 {
    [Tr::Rise, Tr::Fall]
        .iter()
        .map(|&tr| data.required(v, tr, Mode::Late) - data.arrival(v, tr, Mode::Late))
        .fold(f32::INFINITY, f32::min)
}

/// Bit patterns of every endpoint's recomputed setup slack, in endpoint
/// order.
pub fn endpoint_bits(timer: &Timer) -> Vec<u32> {
    timer
        .graph()
        .endpoints()
        .iter()
        .map(|&v| slack_from_data(timer.data(), NodeId(v)).to_bits())
        .collect()
}

/// A report agrees with the timer's raw values: each listed endpoint's
/// slack is required − arrival, the list is the `k` worst, WNS is the
/// minimum and TNS the sum of the negative slacks (summed worst first,
/// as the report defines it).
pub fn check_report(timer: &Timer, report: &TimingReport) -> Result<(), String> {
    let mut slacks: Vec<f32> = timer
        .graph()
        .endpoints()
        .iter()
        .map(|&v| slack_from_data(timer.data(), NodeId(v)))
        .collect();
    slacks.sort_by(f32::total_cmp);
    if report.num_endpoints != slacks.len() {
        return Err(format!(
            "report counts {} endpoints, the graph has {}",
            report.num_endpoints,
            slacks.len()
        ));
    }
    for (i, e) in report.worst.iter().enumerate() {
        let direct = slack_from_data(timer.data(), e.node);
        if e.slack_ps.to_bits() != direct.to_bits() {
            return Err(format!(
                "endpoint {} reports slack {} but required - arrival is {direct}",
                e.name, e.slack_ps
            ));
        }
        if e.slack_ps.to_bits() != slacks[i].to_bits() {
            return Err(format!("worst[{i}] is not the {i}-th smallest slack"));
        }
    }
    let wns = slacks.first().copied().unwrap_or(f32::INFINITY);
    let tns: f32 = slacks.iter().map(|s| s.min(0.0)).sum();
    if wns.to_bits() != report.wns_ps.to_bits() || tns.to_bits() != report.tns_ps.to_bits() {
        return Err(format!(
            "report WNS/TNS {}/{} but recomputed {wns}/{tns}",
            report.wns_ps, report.tns_ps
        ));
    }
    Ok(())
}

/// Endpoint slack bits of a fresh timer built from `verilog`, with
/// `edits` applied directly and one sequential full analysis: no
/// partition, no incremental cache, no executor.
pub fn fresh_oracle_bits(verilog: &str, edits: &[BenchEdit]) -> Result<Vec<u32>, String> {
    let netlist = parse_verilog(verilog).map_err(|e| e.to_string())?;
    let mut timer = Timer::try_new(netlist, CellLibrary::typical()).map_err(|e| e.to_string())?;
    timer.set_clock_period(CLOCK_PS);
    for &e in edits {
        e.apply_to(&mut timer);
    }
    timer.update_timing().run_sequential();
    Ok(endpoint_bits(&timer))
}

pub fn same_bits(what: &str, got: &[u32], want: &[u32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: {} endpoints vs {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: endpoint {i} slack bits {:08x} vs {:08x}",
            got[i], want[i]
        )),
    }
}
