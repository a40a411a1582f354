//! `telemetry` bench: what the telemetry plane costs on the hot path.
//!
//! Runs the `read_path` hot loop — N readers hammering warm
//! CVT-cache-hit loads through one shared session — twice: with telemetry
//! off (the uninstrumented baseline) and with the metrics registry armed
//! (per-op counters + latency histograms, the default shipping
//! configuration). The final line is a machine-readable JSON summary (tag
//! `BENCH_telemetry`) carrying the instrumented/uninstrumented throughput
//! ratio.
//!
//! The claim under test: metrics-off recording is flag-gated behind one
//! relaxed load, and metrics-on costs a few relaxed counter bumps per op
//! plus clock reads on 1-in-16 ops (latency sampling — see
//! `Telemetry::should_time`). The run *asserts* the metrics-on ratio
//! stays above a floor (`VBI_TELEMETRY_FLOOR`, default 0.90 — the slack
//! is scheduler noise on shared CI hosts, not instrument cost).
//!
//! Run with `cargo bench -p vbi-bench --bench telemetry`; set
//! `VBI_READ_OPS` to change the per-thread load count (default 50 000).

use vbi_core::telemetry::{bench_line, JsonValue as J};
use vbi_sim::service_run::{read_path_run, ReadPathConfig, ReadPathReport};

fn run(ops_per_thread: usize, telemetry: bool) -> ReadPathReport {
    read_path_run(&ReadPathConfig {
        threads: 4,
        shards: 4,
        ops_per_thread,
        telemetry,
        ..ReadPathConfig::default()
    })
}

fn main() {
    let ops_per_thread =
        std::env::var("VBI_READ_OPS").ok().and_then(|v| v.parse::<usize>().ok()).unwrap_or(50_000);
    let floor = std::env::var("VBI_TELEMETRY_FLOOR")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.90);
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // Interleave the configurations across rounds and keep each side's best
    // round: on a shared host, comparing best-vs-best cancels scheduler
    // noise that would swamp a single-round comparison.
    let rounds = 3;
    let mut best_off: Option<ReadPathReport> = None;
    let mut best_on: Option<ReadPathReport> = None;
    for _ in 0..rounds {
        let off = run(ops_per_thread, false);
        let on = run(ops_per_thread, true);
        if best_off.as_ref().is_none_or(|b| off.ops_per_sec > b.ops_per_sec) {
            best_off = Some(off);
        }
        if best_on.as_ref().is_none_or(|b| on.ops_per_sec > b.ops_per_sec) {
            best_on = Some(on);
        }
    }
    let off = best_off.expect("rounds > 0");
    let on = best_on.expect("rounds > 0");
    let metrics_ratio = on.ops_per_sec / off.ops_per_sec.max(1.0);

    println!("{:>12} {:>14} {:>8}", "telemetry", "ops/sec", "ratio");
    println!("{:>12} {:>14.0} {:>8}", "off", off.ops_per_sec, "1.00");
    println!("{:>12} {:>14.0} {:>8.2}", "metrics", on.ops_per_sec, metrics_ratio);

    assert!(
        metrics_ratio >= floor,
        "telemetry overhead regression: metrics-on read path runs at \
         {metrics_ratio:.2}x the uninstrumented throughput (floor {floor:.2}). \
         Recording must stay a flag-gated handful of relaxed atomics."
    );

    println!(
        "{}",
        bench_line(
            "telemetry",
            &[
                ("host_cpus", J::U(host_cpus as u64)),
                ("ops_per_thread", J::U(ops_per_thread as u64)),
                ("rounds", J::U(rounds)),
                ("ops_per_sec_off", J::F(off.ops_per_sec, 0)),
                ("ops_per_sec_metrics", J::F(on.ops_per_sec, 0)),
                ("metrics_ratio", J::F(metrics_ratio, 3)),
                ("floor", J::F(floor, 2)),
            ],
        )
    );
}
