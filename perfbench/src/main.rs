//! The repository benchmark: one workload per run, chosen by name, with its
//! inputs drawn from `--seed`.
//!
//! ```text
//! perfbench --workload <resident_rw|async_churn|oversub_rw|paper_sim>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `README.md`). Every metric goes to stdout as `name = value
//! unit`, and the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A wrong value or a broken check
//! makes `correct` false and the exit code 1.

mod async_wl;
mod measure;
mod plan;
mod report;
mod rng;
mod sim_wl;
mod sync_wl;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::{result_line, write_spans};

/// Every end-to-end metric, in `BENCHMARK.json` order.
const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("op_p50_ns", "ns"),
    ("op_p99_ns", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, in `BENCHMARK.json` order.
const PER_LAYER: &[(&str, &str)] = &[
    ("front.sync_ns", "ns"),
    ("front.load_u64_p50_ns", "ns"),
    ("front.async_ns", "ns"),
    ("engine.execute_ns", "ns"),
    ("shard.translate_ns", "ns"),
    ("mtl.translate_ns", "ns"),
    ("mtl.data_ns", "ns"),
    ("queue.self_ns", "ns"),
    ("shard.lock_ns", "ns"),
    ("ops.self_ns", "ns"),
    ("phys.self_ns", "ns"),
    ("mtl.translations_per_op", "1/op"),
    ("mtl.translations_per_data_op", "1/op"),
    ("mtl.translations_per_u64_op", "1/op"),
    ("mtl.tlb_hit_ratio", "ratio"),
    ("mtl.walks_per_kop", "1/kop"),
    ("mtl.vit_hit_ratio", "ratio"),
    ("mtl.zero_line_ratio", "ratio"),
    ("alloc.pages_allocated_per_op", "1/op"),
    ("frame_cache.hit_ratio", "ratio"),
    ("frame_cache.refills_per_kop", "1/kop"),
    ("frame_cache.flushes_per_kop", "1/kop"),
    ("pressure.evictions_per_op", "1/op"),
    ("pressure.writebacks_per_op", "1/op"),
    ("pressure.faults_in_per_op", "1/op"),
    ("pressure.frames_borrowed", "count"),
    ("pressure.fault_op_p50_ns", "ns"),
    ("pressure.resident_op_p50_ns", "ns"),
    ("pressure.fault_ops", "count"),
    ("shard.contended_ratio", "ratio"),
    ("client_map.lookups_per_op", "1/op"),
    ("cvt_cache.hit_ratio", "ratio"),
    ("queue.inflight_high_water", "count"),
    ("queue.backpressure_waits_per_kop", "1/kop"),
    ("trace.overhead_ratio", "ratio"),
    ("workloads.trace_ns", "ns"),
    ("sim.access_ns.Native", "ns"),
    ("sim.access_ns.Virtual", "ns"),
    ("sim.access_ns.VIVT", "ns"),
    ("sim.access_ns.Enigma-HW-2M", "ns"),
    ("sim.access_ns.VBI-1", "ns"),
    ("sim.access_ns.VBI-Full", "ns"),
    ("sim.init_s.Native", "s"),
    ("sim.init_s.Virtual", "s"),
    ("sim.init_s.VIVT", "s"),
    ("sim.init_s.Enigma-HW-2M", "s"),
    ("sim.init_s.VBI-1", "s"),
    ("sim.init_s.VBI-Full", "s"),
    ("sim.Native.cycles", "cycles"),
    ("sim.Native.ipc", "1/cycle"),
    ("sim.Native.llc_misses", "count"),
    ("sim.Native.dram_accesses", "count"),
    ("sim.Native.translation_accesses", "count"),
    ("sim.Native.zero_lines", "count"),
    ("sim.Virtual.cycles", "cycles"),
    ("sim.Virtual.ipc", "1/cycle"),
    ("sim.Virtual.llc_misses", "count"),
    ("sim.Virtual.dram_accesses", "count"),
    ("sim.Virtual.translation_accesses", "count"),
    ("sim.Virtual.zero_lines", "count"),
    ("sim.VIVT.cycles", "cycles"),
    ("sim.VIVT.ipc", "1/cycle"),
    ("sim.VIVT.llc_misses", "count"),
    ("sim.VIVT.dram_accesses", "count"),
    ("sim.VIVT.translation_accesses", "count"),
    ("sim.VIVT.zero_lines", "count"),
    ("sim.Enigma-HW-2M.cycles", "cycles"),
    ("sim.Enigma-HW-2M.ipc", "1/cycle"),
    ("sim.Enigma-HW-2M.llc_misses", "count"),
    ("sim.Enigma-HW-2M.dram_accesses", "count"),
    ("sim.Enigma-HW-2M.translation_accesses", "count"),
    ("sim.Enigma-HW-2M.zero_lines", "count"),
    ("sim.VBI-1.cycles", "cycles"),
    ("sim.VBI-1.ipc", "1/cycle"),
    ("sim.VBI-1.llc_misses", "count"),
    ("sim.VBI-1.dram_accesses", "count"),
    ("sim.VBI-1.translation_accesses", "count"),
    ("sim.VBI-1.zero_lines", "count"),
    ("sim.VBI-Full.cycles", "cycles"),
    ("sim.VBI-Full.ipc", "1/cycle"),
    ("sim.VBI-Full.llc_misses", "count"),
    ("sim.VBI-Full.dram_accesses", "count"),
    ("sim.VBI-Full.translation_accesses", "count"),
    ("sim.VBI-Full.zero_lines", "count"),
    ("sim.ipc_ratio.VBI-Full_vs_Native", "ratio"),
    ("sim.ipc_ratio.VIVT_vs_Native", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} host_cpus {host_cpus}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = match args.workload.as_str() {
        "resident_rw" => sync_wl::run(&sync_wl::resident(), args.seed, args.seconds, args.trace),
        "oversub_rw" => sync_wl::run(&sync_wl::oversub(), args.seed, args.seconds, args.trace),
        "async_churn" => async_wl::run(args.seed, args.seconds, args.trace),
        "paper_sim" => sim_wl::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    report.finish_end_to_end();
    report.metrics.print_table();
    println!(
        "failed_op_ratio = {} (failed {} of {} attempted); wrong values {}",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted,
        report.wrong
    );
    if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.tsv", args.workload));
        if let Err(e) = write_spans(&path, &report.spans) {
            report.problem(format!("writing {}: {e}", path.display()));
        } else if !report.spans.is_empty() {
            println!("spans: {} written to {}", report.spans.len(), path.display());
        }
    }
    for problem in &report.problems {
        eprintln!("perfbench: CHECK FAILED: {problem}");
    }
    let correct = report.wrong == 0 && report.problems.is_empty();
    let selected = report.metrics.select(if args.trace { PER_LAYER } else { END_TO_END });
    println!("{}", result_line(correct, report.attempted, report.failed, &selected));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
