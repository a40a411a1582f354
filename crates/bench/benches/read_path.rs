//! `read_path` bench: lock-free session reads across reader counts.
//!
//! The paper's central performance claim is that clients cache CVT entries,
//! so the common-case translation check needs no MTL (or OS) involvement.
//! This bench isolates exactly that hot path: N reader threads share ONE
//! client session and hammer warm CVT-cache-hit loads, which the service
//! answers from the seqlock-published snapshot with zero client locks. The
//! final line is a machine-readable JSON summary (tag `BENCH_read_path`).
//!
//! Run with `cargo bench -p vbi-bench --bench read_path`; set
//! `VBI_READ_OPS` to change the per-thread load count (default 50 000).
//! The `client_locks` column is the structural signal: it must read 0 on
//! every row, and the run asserts it.

use vbi_core::telemetry::{bench_line, JsonValue as J};
use vbi_sim::service_run::{read_path_run, ReadPathConfig};

fn main() {
    let ops_per_thread =
        std::env::var("VBI_READ_OPS").ok().and_then(|v| v.parse::<usize>().ok()).unwrap_or(50_000);
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    println!(
        "{:>7} {:>12} {:>13} {:>14} {:>12}",
        "threads", "ops/sec", "client-locks", "lockfree-hits", "torn-retries"
    );
    let mut results = Vec::new();
    for threads in [1, 2, 4, 8] {
        let report = read_path_run(&ReadPathConfig {
            threads,
            shards: 4,
            ops_per_thread,
            ..ReadPathConfig::default()
        });
        println!(
            "{:>7} {:>12.0} {:>13} {:>14} {:>12}",
            threads,
            report.ops_per_sec,
            report.client_locks,
            report.cache.lockfree_hits,
            report.cache.torn_retries,
        );
        // The structural claim the sweep exists to demonstrate — fail loud
        // in CI if a regression puts client locks back on the hit path.
        assert_eq!(report.client_locks, 0, "warm cache-hit reads must take zero client locks");
        results.push(report);
    }

    let entries: Vec<String> = results.iter().map(|r| r.to_json()).collect();
    println!(
        "{}",
        bench_line(
            "read_path",
            &[
                ("host_cpus", J::U(host_cpus as u64)),
                ("ops_per_thread", J::U(ops_per_thread as u64)),
                ("results", J::Raw(format!("[{}]", entries.join(",")))),
            ],
        )
    );
}
