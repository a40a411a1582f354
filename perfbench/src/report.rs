//! What one run measured, and the counter arithmetic shared by the service
//! workloads.

use vbi_core::cvt_cache::CvtCacheStats;
use vbi_core::telemetry::ClientMapStats;
use vbi_core::MtlStats;
use vbi_service::{ShardLoad, VbiService};

use crate::measure::{
    mean_ns, peak_rss_mb, quantile, windows, Latencies, Metrics, Rung, Span, Window,
};

/// Length of the windows a timed phase is cut into.
const WINDOW_NS: u64 = 100_000_000;
/// Quantile of the window rates reported as `ops_per_s`: the rate three
/// windows in four sustain. The host's speed moves by tens of percent for
/// seconds at a time, mostly in bursts of extra speed; this quantile sits
/// in the common state and spreads least from run to run.
const RATE_Q: f64 = 0.25;
/// Quantile of the window percentiles reported as `op_p50_ns`/`op_p99_ns`:
/// the latency three windows in four stay within (same reasoning).
const LATENCY_Q: f64 = 0.75;

/// The public counters of a service, read at a phase boundary.
pub struct ServiceCounters {
    mtl: MtlStats,
    shards: Vec<ShardLoad>,
    map: ClientMapStats,
    cvt: CvtCacheStats,
    borrowed: u64,
}

impl ServiceCounters {
    pub fn read(svc: &VbiService) -> Self {
        Self {
            mtl: svc.stats(),
            shards: svc.contention(),
            map: svc.client_map_stats(),
            cvt: svc.snapshot().cvt_cache,
            borrowed: svc.frames_borrowed(),
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Everything a workload run produced.
#[derive(Default)]
pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Loads that returned something other than the shadow's value.
    pub wrong: u64,
    pub latencies: Latencies,
    /// Fixed-length windows of the timed phases (service workloads).
    pub windows: Vec<Window>,
    pub metrics: Metrics,
    pub spans: Vec<Span>,
    /// Broken checks (teardown, layer exercise, determinism); any one
    /// makes the run incorrect.
    pub problems: Vec<String>,
}

impl RunReport {
    pub fn new(workload: &'static str, seed: u64) -> Self {
        Self { workload, seed, ..Self::default() }
    }

    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    pub fn check_teardown(&mut self, free_frames: u64, phys_frames: u64, swap_occupancy: usize) {
        if free_frames != phys_frames || swap_occupancy != 0 {
            self.problem(format!(
                "teardown: free_frames {free_frames} of {phys_frames}, swap_occupancy {swap_occupancy}"
            ));
        }
    }

    pub fn setup(&mut self, setup_s: f64) {
        self.metrics.set("setup_s", setup_s, "s");
    }

    /// Folds one timed phase's completed ops, as (end ns since the phase
    /// started, latency ns), into the run's windows and latency samples.
    pub fn phase(&mut self, ops: &[(u64, u64)], phase_ns: u64) {
        self.windows.extend(windows(ops, phase_ns, WINDOW_NS));
        self.latencies.0.extend(ops.iter().map(|&(_, latency)| latency));
    }

    /// Per-op counter deltas of one timed phase of `ops` front-end ops,
    /// plus the layer-exercise check of the workload.
    pub fn counts(&mut self, before: &ServiceCounters, after: &ServiceCounters, ops: u64) {
        let d = |f: fn(&MtlStats) -> u64| f(&after.mtl) - f(&before.mtl);
        let requests = d(|s| s.translation_requests);
        let fc_hits = d(|s| s.frame_cache_hits);
        let evictions = d(|s| s.evictions);
        let faults_in = d(|s| s.faults_in);
        let sum = |v: &[ShardLoad], f: fn(&ShardLoad) -> u64| v.iter().map(f).sum::<u64>();
        let m = &mut self.metrics;
        m.set("mtl.translations_per_op", ratio(requests, ops), "1/op");
        m.set("mtl.tlb_hit_ratio", ratio(d(|s| s.tlb_hits), requests), "ratio");
        m.set("mtl.walks_per_kop", 1e3 * ratio(d(|s| s.walks), ops), "1/kop");
        let vit_hits = d(|s| s.vit_cache_hits);
        m.set("mtl.vit_hit_ratio", ratio(vit_hits, vit_hits + d(|s| s.vit_cache_misses)), "ratio");
        m.set("mtl.zero_line_ratio", ratio(d(|s| s.zero_line_returns), requests), "ratio");
        m.set("alloc.pages_allocated_per_op", ratio(d(|s| s.pages_allocated), ops), "1/op");
        m.set(
            "frame_cache.hit_ratio",
            ratio(fc_hits, fc_hits + d(|s| s.frame_cache_misses)),
            "ratio",
        );
        m.set(
            "frame_cache.refills_per_kop",
            1e3 * ratio(d(|s| s.frame_cache_refills), ops),
            "1/kop",
        );
        m.set(
            "frame_cache.flushes_per_kop",
            1e3 * ratio(d(|s| s.frame_cache_flushes), ops),
            "1/kop",
        );
        m.set("pressure.evictions_per_op", ratio(evictions, ops), "1/op");
        m.set("pressure.writebacks_per_op", ratio(d(|s| s.writebacks), ops), "1/op");
        m.set("pressure.faults_in_per_op", ratio(faults_in, ops), "1/op");
        m.set("pressure.frames_borrowed", (after.borrowed - before.borrowed) as f64, "count");
        m.set(
            "shard.contended_ratio",
            ratio(
                sum(&after.shards, |s| s.contended) - sum(&before.shards, |s| s.contended),
                sum(&after.shards, |s| s.acquisitions) - sum(&before.shards, |s| s.acquisitions),
            ),
            "ratio",
        );
        m.set(
            "client_map.lookups_per_op",
            ratio(after.map.lookups() - before.map.lookups(), ops),
            "1/op",
        );
        m.set(
            "cvt_cache.hit_ratio",
            ratio(after.cvt.hits() - before.cvt.hits(), after.cvt.lookups() - before.cvt.lookups()),
            "ratio",
        );

        // Each workload exists to exercise some layers and bypass others;
        // a run that silently stopped doing so measures something else.
        let exercised = match self.workload {
            "resident_rw" if evictions + faults_in + fc_hits > 0 => Err(format!(
                "resident_rw must not evict, fault in or hit the frame cache \
                 (evictions {evictions}, faults_in {faults_in}, frame_cache_hits {fc_hits})"
            )),
            "async_churn" if fc_hits == 0 || evictions > 0 => Err(format!(
                "async_churn needs frame-cache hits and no evictions \
                 (frame_cache_hits {fc_hits}, evictions {evictions})"
            )),
            "oversub_rw" if evictions == 0 => Err("oversub_rw must evict".to_string()),
            _ => Ok(()),
        };
        if let Err(what) = exercised {
            self.problem(format!("layer exercise: {what}"));
        }
    }

    /// Ladder rung means and the self times derived from them.
    /// `translations_per_data_op` is the translation count per op of the
    /// `mtl.data` rung.
    pub fn ladder(&mut self, spans: &[Span], translations_per_data_op: f64) {
        let front_sync = mean_ns(spans, Rung::FrontSync);
        let front_async = mean_ns(spans, Rung::FrontAsync);
        let execute = mean_ns(spans, Rung::EngineExecute);
        let shard = mean_ns(spans, Rung::ShardTranslate);
        let translate = mean_ns(spans, Rung::MtlTranslate);
        let data = mean_ns(spans, Rung::MtlData);
        let lock = shard - translate;
        let m = &mut self.metrics;
        m.set("front.sync_ns", front_sync, "ns");
        m.set("front.async_ns", front_async, "ns");
        m.set("engine.execute_ns", execute, "ns");
        m.set("shard.translate_ns", shard, "ns");
        m.set("mtl.translate_ns", translate, "ns");
        m.set("mtl.data_ns", data, "ns");
        m.set("queue.self_ns", if front_async > 0.0 { front_async - execute } else { 0.0 }, "ns");
        m.set("shard.lock_ns", lock, "ns");
        m.set("ops.self_ns", execute - data - lock, "ns");
        m.set("phys.self_ns", data - translations_per_data_op * translate, "ns");
        m.set("mtl.translations_per_data_op", translations_per_data_op, "1/op");
    }

    /// The reported throughput: the `RATE_Q` quantile of the window rates
    /// (0 without windows).
    pub fn window_rate(&self) -> f64 {
        let rates: Vec<f64> = self.windows.iter().map(|w| w.rate).collect();
        if rates.is_empty() {
            0.0
        } else {
            quantile(&rates, RATE_Q)
        }
    }

    /// Mean of the window rates (0 without windows).
    pub fn mean_rate(&self) -> f64 {
        self.windows.iter().map(|w| w.rate).sum::<f64>() / self.windows.len().max(1) as f64
    }

    /// Throughput and latency from the windows (service workloads), the
    /// pooled percentiles with their sample counts, and peak RSS. A p99
    /// needs ten samples beyond it, pooled and in every window it comes
    /// from.
    pub fn finish_end_to_end(&mut self) {
        match (self.latencies.percentile(0.50), self.latencies.percentile(0.99)) {
            (Some(p50), Some(p99)) => println!(
                "pooled op latency: p50 {} ns, p99 {} ns (samples {}, beyond p99 {})",
                p50.value_ns, p99.value_ns, p99.samples, p99.beyond
            ),
            _ => self.problem(format!(
                "too few latency samples ({}) for a p99 with ten beyond it",
                self.latencies.len()
            )),
        }
        if !self.windows.is_empty() {
            let p50s: Vec<f64> = self.windows.iter().map(|w| w.p50_ns).collect();
            let p99s: Vec<f64> = self.windows.iter().filter_map(|w| w.p99_ns).collect();
            if p99s.len() < self.windows.len() {
                self.problem(format!(
                    "{} of {} windows hold too few samples for a p99",
                    self.windows.len() - p99s.len(),
                    self.windows.len()
                ));
            } else {
                let min_rate = self.windows.iter().map(|w| w.rate).fold(f64::INFINITY, f64::min);
                println!(
                    "windows: {} of {} ms, at least {} samples each",
                    self.windows.len(),
                    WINDOW_NS / 1_000_000,
                    (min_rate * WINDOW_NS as f64 / 1e9) as u64
                );
                self.metrics.set("ops_per_s", self.window_rate(), "1/s");
                self.metrics.set("op_p50_ns", quantile(&p50s, LATENCY_Q), "ns");
                self.metrics.set("op_p99_ns", quantile(&p99s, LATENCY_Q), "ns");
            }
        }
        self.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    }
}
