//! `paper_sim`: host speed of the paper's cycle simulator. One thread runs
//! a fixed set of Figure 6 workloads on six of the evaluated systems,
//! replaying `vbi_sim::engine::run_on`'s loop from its public parts so the
//! phases can be timed apart: building the system, attaching regions and
//! the init-write phase plus warm-up are set-up; the post-warm-up accesses
//! are the timed work.
//!
//! Every pass over the (workload, system) pairs must reproduce the first
//! pass's simulated counts exactly, and one small pair is checked against
//! `engine::run` itself.

use std::time::Instant;

use vbi_sim::engine::{self, EngineConfig};
use vbi_sim::systems::{build_system, MemorySystem, SystemCounters, SystemKind};
use vbi_workloads::spec::benchmark;
use vbi_workloads::trace::{Access, WorkloadSpec};

use crate::measure::{median, ns_since, Rung, Span};
use crate::report::RunReport;

/// mcf is Figure 6's TLB outlier, GemsFDTD its many-VB case (195 VBs),
/// deepsjeng-17 and namd small-footprint controls.
const WORKLOADS: [&str; 4] = ["mcf", "GemsFDTD", "deepsjeng-17", "namd"];
const SYSTEMS: [SystemKind; 6] = [
    SystemKind::Native,
    SystemKind::Virtual,
    SystemKind::Vivt,
    SystemKind::EnigmaHw2M,
    SystemKind::Vbi1,
    SystemKind::VbiFull,
];
const PASSES: usize = 3;
/// Timed accesses per pair and pass, per second of `--seconds` (sized so a
/// run's passes together take about `--seconds` on a 2-CPU x86-64 host).
const ACCESSES_PER_SECOND: f64 = 9_000.0;
const PHYS_FRAMES: u64 = 1 << 20;
/// Accesses per latency sample: the latency of a simulated access is the
/// mean over a batch of consecutive ones (trace generation and cycle
/// accounting included, as in the timed loop). Single accesses fall into
/// cost classes whose boundary sits near p99, which made a per-access p99
/// swing by half between runs.
const BATCH: usize = 64;

/// Simulated counts of one (workload, system) run; must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    instructions: u64,
    cycles: u64,
    tlb_misses: u64,
    llc_misses: u64,
    dram_accesses: u64,
    translation_accesses: u64,
    zero_lines: u64,
}

impl Counts {
    fn ipc(&self) -> f64 {
        self.instructions as f64 / self.cycles as f64
    }
}

/// Host-time phases of one pair, as (start, end) ns since the run's
/// epoch.
#[derive(Default)]
struct Phases {
    setup_s: f64,
    init: (u64, u64),
    /// Trace generation alone (traced passes only).
    trace: (u64, u64),
    /// The timed accesses (with trace generation, untraced passes; without
    /// it, traced passes).
    access: (u64, u64),
    /// Untraced passes: mean ns per access of each batch of `BATCH`.
    samples: Vec<u64>,
}

fn secs((start, end): (u64, u64)) -> f64 {
    (end - start) as f64 * 1e-9
}

/// Cycle accounting of `engine::run_on` for one access.
fn account(
    spec: &WorkloadSpec,
    access: &Access,
    stall: u64,
    instructions: &mut u64,
    cycles_x4: &mut u64,
) {
    *instructions += u64::from(access.gap) + 1;
    *cycles_x4 += u64::from(access.gap);
    let exposed = if access.dependent { stall as f64 } else { stall as f64 / spec.mlp };
    *cycles_x4 += (exposed * 4.0) as u64;
}

/// Builds, attaches and runs the init-write phase exactly as
/// `engine::run_on` does; returns the system and the init time.
fn prepare(
    kind: SystemKind,
    spec: &WorkloadSpec,
    epoch: Instant,
) -> (Box<dyn MemorySystem>, (u64, u64)) {
    let mut system = build_system(kind, PHYS_FRAMES);
    let sizes: Vec<u64> = spec.regions.iter().map(|r| r.bytes).collect();
    system.attach_regions(&sizes);
    let init = ns_since(epoch);
    for (i, region) in spec.regions.iter().enumerate() {
        let pages = region.bytes >> 12;
        let init_pages = (pages as f64 * region.init_fraction).round() as u64;
        for k in 0..init_pages {
            let page = if region.init_fraction >= 1.0 {
                k
            } else {
                ((k as f64 / region.init_fraction) as u64).min(pages - 1)
            };
            let _ = system.access(i, page << 12, true);
        }
    }
    (system, (init, ns_since(epoch)))
}

/// One pair: set-up, warm-up, then `config.accesses` timed accesses.
/// Traced passes generate the trace first and time generation and access
/// apart; untraced ones generate as they go, like `engine::run_on`, and
/// time each batch of accesses.
fn run_pair(
    kind: SystemKind,
    spec: &WorkloadSpec,
    config: &EngineConfig,
    traced: bool,
    epoch: Instant,
) -> (Counts, Phases) {
    let start = Instant::now();
    let (mut system, init) = prepare(kind, spec, epoch);
    let mut trace = spec.trace(config.seed);
    for access in trace.by_ref().take(config.warmup) {
        let _ = system.access(access.region, access.offset, access.is_write);
    }
    system.reset_counters();
    let mut phases = Phases { setup_s: start.elapsed().as_secs_f64(), init, ..Phases::default() };

    let (mut instructions, mut cycles_x4) = (0u64, 0u64);
    if traced {
        let t = ns_since(epoch);
        let accesses: Vec<Access> = trace.take(config.accesses).collect();
        phases.trace = (t, ns_since(epoch));
        let t = ns_since(epoch);
        for access in &accesses {
            let cost = system.access(access.region, access.offset, access.is_write);
            account(spec, access, cost.stall, &mut instructions, &mut cycles_x4);
        }
        phases.access = (t, ns_since(epoch));
    } else {
        let t = ns_since(epoch);
        phases.samples.reserve(config.accesses / BATCH + 1);
        let mut batch_start = Instant::now();
        for (i, access) in trace.take(config.accesses).enumerate() {
            let cost = system.access(access.region, access.offset, access.is_write);
            account(spec, &access, cost.stall, &mut instructions, &mut cycles_x4);
            if (i + 1) % BATCH == 0 {
                let now = Instant::now();
                phases.samples.push((now - batch_start).as_nanos() as u64 / BATCH as u64);
                batch_start = now;
            }
        }
        phases.access = (t, ns_since(epoch));
    }
    let counters = system.counters();
    (counts(instructions, (cycles_x4 / 4).max(1), &counters), phases)
}

fn counts(instructions: u64, cycles: u64, c: &SystemCounters) -> Counts {
    Counts {
        instructions,
        cycles,
        tlb_misses: c.tlb_misses,
        llc_misses: c.llc_misses,
        dram_accesses: c.dram_accesses,
        translation_accesses: c.translation_accesses,
        zero_lines: c.zero_lines,
    }
}

fn specs() -> Vec<WorkloadSpec> {
    WORKLOADS.iter().map(|w| benchmark(w).expect("Figure 6 workload exists")).collect()
}

/// One pass over every pair: (counts, phases) in pair order.
fn pass(
    specs: &[WorkloadSpec],
    config: &EngineConfig,
    traced: bool,
    epoch: Instant,
) -> Vec<(Counts, Phases)> {
    specs
        .iter()
        .flat_map(|spec| SYSTEMS.iter().map(move |&kind| (kind, spec)))
        .map(|(kind, spec)| run_pair(kind, spec, config, traced, epoch))
        .collect()
}

/// The replayed loop must be `engine::run`, count for count.
fn check_against_engine(seed: u64, report: &mut RunReport) {
    let spec = benchmark("deepsjeng-17").expect("workload exists");
    let config = EngineConfig { accesses: 5_000, warmup: 500, seed, phys_frames: PHYS_FRAMES };
    let reference = engine::run(SystemKind::VbiFull, &spec, &config);
    let (ours, _) = run_pair(SystemKind::VbiFull, &spec, &config, false, Instant::now());
    let theirs = counts(reference.instructions, reference.cycles, &reference.counters);
    if ours != theirs {
        report.problem(format!(
            "replayed engine loop diverges from engine::run: {ours:?} vs {theirs:?}"
        ));
    }
}

fn sum_seconds(results: &[(Counts, Phases)], f: fn(&Phases) -> f64) -> f64 {
    results.iter().map(|(_, p)| f(p)).sum()
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> RunReport {
    let mut report = RunReport::new("paper_sim", seed);
    let accesses = ((seconds * ACCESSES_PER_SECOND) as usize).max(1);
    let config = EngineConfig { accesses, warmup: accesses / 10, seed, phys_frames: PHYS_FRAMES };
    check_against_engine(seed, &mut report);
    let specs = specs();
    let per_pass = (accesses * specs.len() * SYSTEMS.len()) as u64;
    let epoch = Instant::now();

    let untraced_passes = if trace { 1 } else { PASSES };
    let mut passes: Vec<Vec<(Counts, Phases)>> =
        (0..untraced_passes).map(|_| pass(&specs, &config, false, epoch)).collect();
    if trace {
        passes.push(pass(&specs, &config, true, epoch));
    }
    report.attempted = per_pass * passes.len() as u64;
    let untraced = &passes[..untraced_passes];
    let setups: Vec<f64> = untraced.iter().map(|p| sum_seconds(p, |x| x.setup_s)).collect();
    report.setup(median(&setups));
    let timed_s: f64 = untraced.iter().map(|p| sum_seconds(p, |x| secs(x.access))).sum();
    report.metrics.set("ops_per_s", per_pass as f64 * untraced.len() as f64 / timed_s, "1/s");
    for (_, phases) in untraced.iter().flatten() {
        report.latencies.0.extend(&phases.samples);
    }
    for (name, q) in [("op_p50_ns", 0.5), ("op_p99_ns", 0.99)] {
        let value = report.latencies.percentile(q).map_or(0.0, |p| p.value_ns as f64);
        report.metrics.set(name, value, "ns");
    }

    let first: Vec<Counts> = passes[0].iter().map(|(c, _)| *c).collect();
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.iter().map(|(c, _)| *c).ne(first.iter().copied()) {
            report.problem(format!(
                "pass {i} simulated different counts than pass 0 with the same seed"
            ));
        }
    }
    simulated_counts(&specs, &first, &mut report);
    if trace {
        host_phases(&specs, passes.last().expect("traced pass"), accesses, &mut report);
    }
    report
}

/// Prints every pair's simulated counts and records per-system totals and
/// the Figure 6 IPC ratios.
fn simulated_counts(specs: &[WorkloadSpec], counts: &[Counts], report: &mut RunReport) {
    let at = |w: usize, s: usize| &counts[w * SYSTEMS.len() + s];
    for (w, spec) in specs.iter().enumerate() {
        for (s, kind) in SYSTEMS.iter().enumerate() {
            println!("sim pair {} / {}: {:?}", spec.name, kind.label(), at(w, s));
        }
    }
    let m = &mut report.metrics;
    for (s, kind) in SYSTEMS.iter().enumerate() {
        let total = |f: fn(&Counts) -> u64| (0..specs.len()).map(|w| f(at(w, s))).sum::<u64>();
        let label = kind.label();
        let cycles = total(|c| c.cycles);
        m.set(format!("sim.{label}.cycles"), cycles as f64, "cycles");
        m.set(
            format!("sim.{label}.ipc"),
            total(|c| c.instructions) as f64 / cycles as f64,
            "1/cycle",
        );
        m.set(format!("sim.{label}.llc_misses"), total(|c| c.llc_misses) as f64, "count");
        m.set(format!("sim.{label}.dram_accesses"), total(|c| c.dram_accesses) as f64, "count");
        m.set(
            format!("sim.{label}.translation_accesses"),
            total(|c| c.translation_accesses) as f64,
            "count",
        );
        m.set(format!("sim.{label}.zero_lines"), total(|c| c.zero_lines) as f64, "count");
    }
    // Geometric mean over the workloads of each system's IPC relative to
    // Native, as Figure 6 normalizes.
    let ratio = |s: usize| {
        let logs: f64 = (0..specs.len()).map(|w| (at(w, s).ipc() / at(w, 0).ipc()).ln()).sum();
        (logs / specs.len() as f64).exp()
    };
    let vbi_full = ratio(SYSTEMS.iter().position(|&k| k == SystemKind::VbiFull).expect("listed"));
    let vivt = ratio(SYSTEMS.iter().position(|&k| k == SystemKind::Vivt).expect("listed"));
    m.set("sim.ipc_ratio.VBI-Full_vs_Native", vbi_full, "ratio");
    m.set("sim.ipc_ratio.VIVT_vs_Native", vivt, "ratio");
    println!(
        "Figure 6 ordering (VBI-Full/Native {vbi_full:.3} > VIVT/Native {vivt:.3} > 1): {}",
        vbi_full > vivt && vivt > 1.0
    );
}

/// Per-layer host times of the traced pass, plus its spans (one per pair
/// and phase).
fn host_phases(
    specs: &[WorkloadSpec],
    traced: &[(Counts, Phases)],
    accesses: usize,
    report: &mut RunReport,
) {
    let per_system = (accesses * specs.len()) as f64;
    for (s, kind) in SYSTEMS.iter().enumerate() {
        let pairs = || (0..specs.len()).map(|w| &traced[w * SYSTEMS.len() + s].1);
        let label = kind.label();
        let access: f64 = pairs().map(|p| secs(p.access)).sum();
        report.metrics.set(format!("sim.access_ns.{label}"), 1e9 * access / per_system, "ns");
        report.metrics.set(
            format!("sim.init_s.{label}"),
            pairs().map(|p| secs(p.init)).sum::<f64>(),
            "s",
        );
    }
    let total = (accesses * traced.len()) as f64;
    let trace_s = sum_seconds(traced, |p| secs(p.trace));
    report.metrics.set("workloads.trace_ns", 1e9 * trace_s / total, "ns");
    let traced_rate = total / (trace_s + sum_seconds(traced, |p| secs(p.access)));
    let untraced = report.metrics.get("ops_per_s").unwrap_or(0.0);
    report.metrics.set("trace.overhead_ratio", untraced / traced_rate, "ratio");
    for (i, (_, p)) in traced.iter().enumerate() {
        for (rung, (start_ns, end_ns)) in
            [(Rung::SimInit, p.init), (Rung::SimTrace, p.trace), (Rung::SimAccess, p.access)]
        {
            report.spans.push(Span { op: i as u64, rung, start_ns, end_ns });
        }
    }
}
