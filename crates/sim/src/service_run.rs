//! Multi-threaded traffic harness for the sharded memory service.
//!
//! Where [`crate::engine`] measures *simulated cycles* of one core, this
//! module measures *host throughput* of the concurrent service: M OS
//! threads replay workload traces against a [`VbiService`] — synchronously
//! or batched ([`service_run`]), or pipelined through the [`VbiQueue`]
//! submission/completion front end ([`queue_run`]) — and the report
//! carries real ops/sec plus the per-shard lock-contention counters (and,
//! in queue mode, the submission-ring high-water depth). A fourth driver,
//! [`migration_run`], hammers VBs with readers while a churn thread
//! migrates them between shards through the engine's `Op::Migrate`,
//! asserting byte-exactness throughout; a fifth, [`async_run`], multiplexes
//! thousands of awaited [`AsyncSession`](vbi_service::AsyncSession) tasks
//! on one executor thread and reports wake-to-complete latency and
//! backpressure engagement; a sixth, [`alloc_churn_run`], loops
//! request/touch/release cycles over short-lived VBs across threads — the
//! frame allocate/free hot path the per-shard magazine cache fronts.
//! These are the drivers behind the `service`, `queue`, `read_path`,
//! `migration`, `async_sessions`, and `alloc_churn` benches in `vbi-bench`
//! and the equivalence/stress suites at the workspace root.
//!
//! The same replay is exposed in deterministic single-threaded form
//! ([`replay_on_system`] / [`replay_on_service`]) so a fixed trace can be
//! pushed through the single-owner [`System`] and through a 1-shard,
//! 1-thread service and compared load-for-load and counter-for-counter.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::Rng;

use vbi_core::config::VbiConfig;
use vbi_core::ops::Op as VbiOp;
use vbi_core::perm::Rwx;
use vbi_core::stats::MtlStats;
use vbi_core::system::{System, VbHandle};
use vbi_core::vb::VbProperties;
use vbi_service::{ServiceConfig, ShardLoad, VbiQueue, VbiService};
use vbi_workloads::spec::benchmark;
use vbi_workloads::trace::WorkloadSpec;

/// Cap on the per-region VB size used by the harness: keeps the footprint
/// of a many-threaded run bounded while still exercising multi-page VBs.
pub const REGION_CAP: u64 = 4 << 20;

/// One replayable operation, fully resolved from a workload trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Index into the workload's region list (one VB per region).
    pub region: usize,
    /// 8-byte-aligned offset within the (capped) region.
    pub offset: u64,
    /// Store (`true`) or load (`false`).
    pub is_write: bool,
}

/// Materializes `count` operations of `spec`'s trace with `seed` — the
/// fixed workload both sides of an equivalence comparison replay.
pub fn trace_ops(spec: &WorkloadSpec, seed: u64, count: usize) -> Vec<Op> {
    spec.trace(seed)
        .take(count)
        .map(|a| {
            let cap = spec.regions[a.region].bytes.min(REGION_CAP);
            Op { region: a.region, offset: (a.offset % (cap - 8)) & !7, is_write: a.is_write }
        })
        .collect()
}

/// Replays `ops` through a single-owner [`System`]; returns every loaded
/// value (in op order) and the MTL counters.
pub fn replay_on_system(
    config: VbiConfig,
    spec: &WorkloadSpec,
    ops: &[Op],
) -> (Vec<u64>, MtlStats) {
    let system = System::new(config);
    let session = system.create_client().expect("fresh system");
    let handles: Vec<VbHandle> = spec
        .regions
        .iter()
        .map(|r| {
            session
                .request_vb(r.bytes.min(REGION_CAP), VbProperties::NONE, Rwx::READ_WRITE)
                .expect("harness footprint fits the machine")
        })
        .collect();
    let mut loads = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let va = handles[op.region].at(op.offset);
        if op.is_write {
            session.store_u64(va, i as u64).expect("in-bounds store");
        } else {
            loads.push(session.load_u64(va).expect("in-bounds load"));
        }
    }
    let stats = system.mtl().stats();
    (loads, stats)
}

/// Replays `ops` through a [`VbiService`] from one thread; returns every
/// loaded value (in op order) and the merged MTL counters.
pub fn replay_on_service(
    service: &VbiService,
    spec: &WorkloadSpec,
    ops: &[Op],
) -> (Vec<u64>, MtlStats) {
    let session = service.create_client().expect("service has client IDs");
    let handles: Vec<VbHandle> = spec
        .regions
        .iter()
        .map(|r| {
            session
                .request_vb(r.bytes.min(REGION_CAP), VbProperties::NONE, Rwx::READ_WRITE)
                .expect("harness footprint fits the machine")
        })
        .collect();
    let mut loads = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let va = handles[op.region].at(op.offset);
        if op.is_write {
            session.store_u64(va, i as u64).expect("in-bounds store");
        } else {
            loads.push(session.load_u64(va).expect("in-bounds load"));
        }
    }
    (loads, service.stats())
}

/// Configuration of one multi-threaded service run.
#[derive(Debug, Clone)]
pub struct ServiceRunConfig {
    /// Worker (OS) threads replaying traffic.
    pub threads: usize,
    /// MTL shards (power of two).
    pub shards: usize,
    /// Operations each thread replays.
    pub ops_per_thread: usize,
    /// Batch size for [`VbiService::submit`]; `1` uses the unbatched path.
    pub batch: usize,
    /// Trace seed (thread `t` replays stream `seed ^ t`).
    pub seed: u64,
    /// Total physical frames of the machine (split across shards).
    pub phys_frames: u64,
    /// Benchmark whose trace is replayed (a `vbi-workloads` name).
    pub benchmark: &'static str,
}

impl Default for ServiceRunConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            shards: 4,
            ops_per_thread: 50_000,
            batch: 64,
            seed: 2020,
            phys_frames: 1 << 18, // 1 GiB
            benchmark: "mcf",
        }
    }
}

/// Report of one multi-threaded service run.
#[derive(Debug, Clone)]
pub struct ServiceRunReport {
    /// The run's configuration (threads, shards, batch, ...).
    pub threads: usize,
    /// Shard count of the run.
    pub shards: usize,
    /// Operations completed across all threads.
    pub total_ops: u64,
    /// Wall-clock seconds of the whole replay scope, including each
    /// worker's setup (client/VB creation, trace materialization).
    pub elapsed_secs: f64,
    /// Throughput in operations per second.
    pub ops_per_sec: f64,
    /// Merged MTL counters across shards.
    pub mtl: MtlStats,
    /// Per-shard lock traffic.
    pub shard_loads: Vec<ShardLoad>,
}

impl ServiceRunReport {
    /// Total blocked lock acquisitions across shards.
    pub fn total_contended(&self) -> u64 {
        self.shard_loads.iter().map(|l| l.contended).sum()
    }

    /// One-line JSON rendering via the shared
    /// [`json_object`](vbi_core::telemetry::json_object) emitter: sorted
    /// keys, schema-stable.
    pub fn to_json(&self) -> String {
        use vbi_core::telemetry::JsonValue as J;
        vbi_core::telemetry::json_object(&[
            ("threads", J::U(self.threads as u64)),
            ("shards", J::U(self.shards as u64)),
            ("total_ops", J::U(self.total_ops)),
            ("elapsed_secs", J::F(self.elapsed_secs, 6)),
            ("ops_per_sec", J::F(self.ops_per_sec, 0)),
            ("translation_requests", J::U(self.mtl.translation_requests)),
            ("tlb_hits", J::U(self.mtl.tlb_hits)),
            ("contended_lock_acquisitions", J::U(self.total_contended())),
        ])
    }
}

/// Runs `config.threads` workers against a fresh `config.shards`-way
/// service, each replaying `config.ops_per_thread` trace operations against
/// its own client and VBs, and reports throughput plus contention.
///
/// Each thread owns an independent, deterministic trace stream
/// (`seed ^ thread`) and an unshared RNG ([`SmallRng::stream`]) for store
/// values, so workload generation takes no locks.
///
/// # Panics
///
/// Panics if `config.benchmark` is unknown or the footprint exceeds the
/// machine (the harness caps regions at [`REGION_CAP`] to prevent this).
pub fn service_run(config: &ServiceRunConfig) -> ServiceRunReport {
    let spec = benchmark(config.benchmark)
        .unwrap_or_else(|| panic!("unknown benchmark {:?}", config.benchmark));
    let service = VbiService::new(ServiceConfig::new(
        config.shards,
        VbiConfig { phys_frames: config.phys_frames, ..VbiConfig::vbi_full() },
    ));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for thread in 0..config.threads {
            let service = service.clone();
            let spec = &spec;
            scope.spawn(move || {
                replay_worker(&service, spec, config, thread as u64);
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let total_ops = (config.threads * config.ops_per_thread) as u64;
    ServiceRunReport {
        threads: config.threads,
        shards: config.shards,
        total_ops,
        elapsed_secs: elapsed,
        ops_per_sec: if elapsed > 0.0 { total_ops as f64 / elapsed } else { 0.0 },
        mtl: service.stats(),
        shard_loads: service.contention(),
    }
}

fn replay_worker(
    service: &VbiService,
    spec: &WorkloadSpec,
    config: &ServiceRunConfig,
    thread: u64,
) {
    let session = service.create_client().expect("service has client IDs");
    let handles: Vec<VbHandle> = spec
        .regions
        .iter()
        .map(|r| {
            session
                .request_vb(r.bytes.min(REGION_CAP), VbProperties::NONE, Rwx::READ_WRITE)
                .expect("harness footprint fits the machine")
        })
        .collect();
    // Per-thread RNG: no shared lock anywhere in trace generation.
    let mut values = SmallRng::stream(config.seed, thread);
    let ops = trace_ops(spec, config.seed ^ thread, config.ops_per_thread);
    if config.batch <= 1 {
        for op in &ops {
            let va = handles[op.region].at(op.offset);
            if op.is_write {
                session.store_u64(va, values.gen()).expect("in-bounds store");
            } else {
                session.load_u64(va).expect("in-bounds load");
            }
        }
    } else {
        let client = session.id();
        let mut batch: Vec<VbiOp> = Vec::with_capacity(config.batch);
        for op in &ops {
            let va = handles[op.region].at(op.offset);
            batch.push(if op.is_write {
                VbiOp::StoreU64 { client, va, value: values.gen() }
            } else {
                VbiOp::LoadU64 { client, va }
            });
            if batch.len() == config.batch {
                flush(service, &mut batch);
            }
        }
        flush(service, &mut batch);
    }
}

fn flush(service: &VbiService, batch: &mut Vec<VbiOp>) {
    if batch.is_empty() {
        return;
    }
    for response in service.submit(batch) {
        assert!(response.is_ok(), "harness requests are always in bounds");
    }
    batch.clear();
}

/// Report of one queue-mode run ([`queue_run`]): M submitter threads
/// pipelining tagged ops through a [`VbiQueue`] while per-shard workers
/// execute and post completions.
#[derive(Debug, Clone)]
pub struct QueueRunReport {
    /// Submitter threads.
    pub threads: usize,
    /// MTL shards (= queue worker threads).
    pub shards: usize,
    /// Pipeline window each submitter keeps in flight.
    pub window: usize,
    /// Operations completed across all threads.
    pub total_ops: u64,
    /// Completions reaped (must equal `total_ops` — asserted by the run).
    pub completions: u64,
    /// Wall-clock seconds of the whole replay scope, including each
    /// submitter's setup (client/VB creation, trace materialization) and
    /// the final drain.
    pub elapsed_secs: f64,
    /// Throughput in operations per second.
    pub ops_per_sec: f64,
    /// High-water mark of SQEs queued at once.
    pub max_queue_depth: usize,
    /// Merged MTL counters across shards.
    pub mtl: MtlStats,
    /// Per-shard lock traffic.
    pub shard_loads: Vec<ShardLoad>,
}

impl QueueRunReport {
    /// One-line JSON rendering via the shared
    /// [`json_object`](vbi_core::telemetry::json_object) emitter: sorted
    /// keys, schema-stable.
    pub fn to_json(&self) -> String {
        use vbi_core::telemetry::JsonValue as J;
        vbi_core::telemetry::json_object(&[
            ("threads", J::U(self.threads as u64)),
            ("shards", J::U(self.shards as u64)),
            ("window", J::U(self.window as u64)),
            ("total_ops", J::U(self.total_ops)),
            ("completions", J::U(self.completions)),
            ("elapsed_secs", J::F(self.elapsed_secs, 6)),
            ("ops_per_sec", J::F(self.ops_per_sec, 0)),
            ("max_queue_depth", J::U(self.max_queue_depth as u64)),
            ("translation_requests", J::U(self.mtl.translation_requests)),
            ("tlb_hits", J::U(self.mtl.tlb_hits)),
        ])
    }
}

/// Runs `config.threads` submitters against a fresh [`VbiQueue`] over a
/// `config.shards`-way service: each submitter pipelines its trace through
/// tagged submissions, keeping up to `config.batch` ops in flight (the
/// pipeline window), and reaps completions as it goes — the asynchronous
/// analogue of [`service_run`]. Every completion is verified `Ok`, and the
/// run asserts none were lost.
///
/// # Panics
///
/// Panics if `config.benchmark` is unknown, the footprint exceeds the
/// machine, or any completion is missing or failed.
pub fn queue_run(config: &ServiceRunConfig) -> QueueRunReport {
    let spec = benchmark(config.benchmark)
        .unwrap_or_else(|| panic!("unknown benchmark {:?}", config.benchmark));
    let queue = VbiQueue::new(ServiceConfig::new(
        config.shards,
        VbiConfig { phys_frames: config.phys_frames, ..VbiConfig::vbi_full() },
    ));
    let window = config.batch.max(1);
    let started = Instant::now();
    let reaped: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..config.threads)
            .map(|thread| {
                let queue = &queue;
                let spec = &spec;
                scope.spawn(move || queue_worker(queue, spec, config, thread as u64, window))
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("submitter panicked")).sum()
    });
    // Reap whatever the submitters left in flight.
    let leftovers = queue.drain();
    for cqe in &leftovers {
        assert!(cqe.result.is_ok(), "harness requests are always in bounds");
    }
    let elapsed = started.elapsed().as_secs_f64();
    let total_ops = (config.threads * config.ops_per_thread) as u64;
    let completions = reaped + leftovers.len() as u64;
    assert_eq!(completions, total_ops, "a completion was lost");
    let depth = queue.depth();
    let service = queue.service();
    QueueRunReport {
        threads: config.threads,
        shards: config.shards,
        window,
        total_ops,
        completions,
        elapsed_secs: elapsed,
        ops_per_sec: if elapsed > 0.0 { total_ops as f64 / elapsed } else { 0.0 },
        max_queue_depth: depth.high_water,
        mtl: service.stats(),
        shard_loads: service.contention(),
    }
}

/// One submitter: pipeline the thread's trace through the queue with a
/// bounded window, reaping (and checking) completions to make room.
/// Returns the number of completions this thread reaped.
fn queue_worker(
    queue: &VbiQueue,
    spec: &WorkloadSpec,
    config: &ServiceRunConfig,
    thread: u64,
    window: usize,
) -> u64 {
    // Setup is synchronous: the client and its VBs exist before the first
    // pipelined access (queued ops may not depend on unreaped ones).
    let session = queue.create_client().expect("service has client IDs");
    let client = session.id();
    let handles: Vec<VbHandle> = spec
        .regions
        .iter()
        .map(|r| {
            session
                .request_vb(r.bytes.min(REGION_CAP), VbProperties::NONE, Rwx::READ_WRITE)
                .expect("harness footprint fits the machine")
        })
        .collect();
    let mut values = SmallRng::stream(config.seed, thread);
    let ops = trace_ops(spec, config.seed ^ thread, config.ops_per_thread);
    let mut reaped = 0u64;
    for (seq, op) in ops.iter().enumerate() {
        let va = handles[op.region].at(op.offset);
        let tag = (thread << 32) | seq as u64;
        queue.submit(
            tag,
            if op.is_write {
                VbiOp::StoreU64 { client, va, value: values.gen() }
            } else {
                VbiOp::LoadU64 { client, va }
            },
        );
        // The window bounds *global* in-flight work; the completion queue
        // is shared, so a reaped CQE may belong to any submitter. Blocking
        // reap (not a try_reap spin) keeps submitters off the CPU while
        // the shard workers catch up.
        while queue.in_flight() > (window * config.threads) as u64 {
            match queue.reap() {
                Some(cqe) => {
                    assert!(cqe.result.is_ok(), "harness requests are always in bounds");
                    reaped += 1;
                }
                None => break, // another thread reaped the queue idle
            }
        }
    }
    reaped
}

/// Configuration of one read-path run ([`read_path_run`]): N reader
/// threads sharing **one** client session, hammering warm CVT-cache-hit
/// loads — the hot path the lock-free redesign takes the client lock off.
#[derive(Debug, Clone)]
pub struct ReadPathConfig {
    /// Reader threads sharing the one session.
    pub threads: usize,
    /// MTL shards (spreads the VBs so readers of different VBs do not
    /// serialize on one shard lock either).
    pub shards: usize,
    /// Loads each reader performs.
    pub ops_per_thread: usize,
    /// VBs the client owns (reads round-robin across them; keep it at or
    /// below the CVT-cache slot count so the cache stays warm).
    pub vbs: usize,
    /// Whether the telemetry metrics registry is armed (per-op counters and
    /// latency histograms at the engine's execute boundary). `false` is the
    /// uninstrumented baseline the `BENCH_telemetry` overhead bench
    /// compares against.
    pub telemetry: bool,
    /// Total physical frames of the machine.
    pub phys_frames: u64,
}

impl Default for ReadPathConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            shards: 4,
            ops_per_thread: 50_000,
            vbs: 16,
            telemetry: true,
            phys_frames: 1 << 16,
        }
    }
}

/// Report of one read-path run.
#[derive(Debug, Clone)]
pub struct ReadPathReport {
    /// Reader threads of the run.
    pub threads: usize,
    /// Loads completed across all readers.
    pub total_ops: u64,
    /// Wall-clock seconds of the read phase only (setup and warm-up are
    /// excluded — this isolates the steady-state hot path).
    pub elapsed_secs: f64,
    /// Throughput in loads per second.
    pub ops_per_sec: f64,
    /// Client-lock acquisitions during the read phase. Zero when every
    /// read hit the published cache lock-free.
    pub client_locks: u64,
    /// CVT-cache stats delta of the read phase.
    pub cache: vbi_core::cvt_cache::CvtCacheStats,
    /// Client-map stats delta of the read phase: published-table hits,
    /// generation retries, and authoritative-mutex fallbacks.
    pub map: vbi_core::telemetry::ClientMapStats,
}

impl ReadPathReport {
    /// One-line JSON rendering via the shared
    /// [`json_object`](vbi_core::telemetry::json_object) emitter: sorted
    /// keys, schema-stable.
    pub fn to_json(&self) -> String {
        use vbi_core::telemetry::JsonValue as J;
        vbi_core::telemetry::json_object(&[
            ("threads", J::U(self.threads as u64)),
            ("total_ops", J::U(self.total_ops)),
            ("elapsed_secs", J::F(self.elapsed_secs, 6)),
            ("ops_per_sec", J::F(self.ops_per_sec, 0)),
            ("client_locks", J::U(self.client_locks)),
            ("lockfree_hits", J::U(self.cache.lockfree_hits)),
            ("locked_hits", J::U(self.cache.locked_hits)),
            ("torn_retries", J::U(self.cache.torn_retries)),
            ("map_lockfree_hits", J::U(self.map.lockfree_hits)),
            ("map_generation_retries", J::U(self.map.generation_retries)),
            ("map_locked_fallbacks", J::U(self.map.locked_fallbacks)),
        ])
    }
}

/// Runs `config.threads` readers, all clones of **one** session, over a
/// warm CVT cache: every load is a cache-hit protection check plus one
/// home-shard memory read, and the checks take zero client locks (seqlock
/// snapshot).
///
/// # Panics
///
/// Panics if the footprint does not fit the machine or any read fails.
pub fn read_path_run(config: &ReadPathConfig) -> ReadPathReport {
    let service = VbiService::new(ServiceConfig::new(
        config.shards,
        VbiConfig {
            phys_frames: config.phys_frames,
            telemetry_metrics: config.telemetry,
            ..VbiConfig::vbi_full()
        },
    ));
    let session = service.create_client().expect("fresh service");
    let handles: Vec<VbHandle> = (0..config.vbs)
        .map(|_| {
            session
                .request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE)
                .expect("footprint fits")
        })
        .collect();
    // Populate and warm: one locked fill per CVT index, then steady state.
    for (i, vb) in handles.iter().enumerate() {
        session.store_u64(vb.at(0), i as u64).expect("in-bounds store");
        session.load_u64(vb.at(0)).expect("warm-up load");
    }
    let locks_before = service.client_lock_acquisitions(session.id()).expect("live client");
    let cache_before = session.cvt_cache_stats().expect("live client");
    let map_before = service.client_map_stats();

    let started = Instant::now();
    std::thread::scope(|scope| {
        for thread in 0..config.threads {
            let session = session.clone();
            let handles = &handles;
            scope.spawn(move || {
                for i in 0..config.ops_per_thread {
                    let vb = &handles[(i + thread) % handles.len()];
                    let got = session.load_u64(vb.at(0)).expect("in-bounds load");
                    assert_eq!(got, ((i + thread) % handles.len()) as u64, "stale read");
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();

    // Snap the map delta first: the stats accessors below resolve the
    // client through the map themselves and would pollute the count.
    let map_after = service.client_map_stats();
    let client_locks =
        service.client_lock_acquisitions(session.id()).expect("live client") - locks_before;
    let cache_after = session.cvt_cache_stats().expect("live client");
    let total_ops = (config.threads * config.ops_per_thread) as u64;
    ReadPathReport {
        threads: config.threads,
        total_ops,
        elapsed_secs: elapsed,
        ops_per_sec: if elapsed > 0.0 { total_ops as f64 / elapsed } else { 0.0 },
        client_locks,
        cache: vbi_core::cvt_cache::CvtCacheStats {
            lockfree_hits: cache_after.lockfree_hits - cache_before.lockfree_hits,
            locked_hits: cache_after.locked_hits - cache_before.locked_hits,
            misses: cache_after.misses - cache_before.misses,
            torn_retries: cache_after.torn_retries - cache_before.torn_retries,
        },
        map: vbi_core::telemetry::ClientMapStats {
            lockfree_hits: map_after.lockfree_hits - map_before.lockfree_hits,
            generation_retries: map_after.generation_retries - map_before.generation_retries,
            locked_fallbacks: map_after.locked_fallbacks - map_before.locked_fallbacks,
            // Gauges are end-of-run occupancy, not deltas.
            arena_chunks: map_after.arena_chunks,
            slots_live: map_after.slots_live,
            slots_dead: map_after.slots_dead,
        },
    }
}

/// Configuration of one allocation-churn run ([`alloc_churn_run`]): N
/// worker threads, each on its **own** client, looping request → touch →
/// release over short-lived VBs while also keeping a persistent VB under
/// data traffic. Every churn cycle allocates and frees physical frames on
/// the worker's home shard — the order-0 hot path the magazine frame
/// cache takes the buddy's split/coalesce bookkeeping off.
#[derive(Debug, Clone)]
pub struct AllocChurnConfig {
    /// Worker threads, one client each.
    pub threads: usize,
    /// MTL shards (workers land on shards via round-robin VB placement).
    pub shards: usize,
    /// Request → touch → release cycles each worker performs.
    pub churns_per_thread: usize,
    /// Bytes of each short-lived VB (4 KiB = one frame per cycle, the
    /// pure order-0 churn the cache is built for).
    pub vb_bytes: u64,
    /// `true` = magazine frame cache in front of each shard's buddy;
    /// `false` = buddy-only baseline the A/B gate compares against.
    pub frame_cache: bool,
    /// Total physical frames of the machine (keep it ample: this driver
    /// measures allocator churn, not eviction).
    pub phys_frames: u64,
}

impl Default for AllocChurnConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            shards: 4,
            churns_per_thread: 10_000,
            vb_bytes: 4 << 10,
            frame_cache: true,
            phys_frames: 1 << 16,
        }
    }
}

/// Report of one allocation-churn run.
#[derive(Debug, Clone)]
pub struct AllocChurnReport {
    /// Worker threads of the run.
    pub threads: usize,
    /// Whether the magazine frame cache was enabled.
    pub frame_cache: bool,
    /// Request → touch → release cycles completed across all workers.
    pub total_churns: u64,
    /// Engine ops executed across all workers (5 per cycle: request,
    /// store, load, persistent store, release).
    pub total_ops: u64,
    /// Wall-clock seconds of the churn phase only (setup and warm-up are
    /// excluded).
    pub elapsed_secs: f64,
    /// Churn cycles per second.
    pub churns_per_sec: f64,
    /// Engine ops per second.
    pub ops_per_sec: f64,
    /// Frame-cache counter deltas of the churn phase, summed across
    /// shards. All zero with the cache disabled.
    pub cache_hits: u64,
    /// Cache misses (order-0 allocations that had to refill or fall
    /// through to the buddy).
    pub cache_misses: u64,
    /// Batch refills pulled from the buddy.
    pub cache_refills: u64,
    /// Whole-cache flushes back to the buddy.
    pub cache_flushes: u64,
    /// Depot-overflow bulk frees back to the buddy.
    pub cache_batch_frees: u64,
    /// Absolute free-frame drift across the churn phase: every churned VB
    /// is released, so any nonzero value is a leaked (or conjured) frame.
    pub frames_leaked: u64,
}

impl AllocChurnReport {
    /// One-line JSON rendering via the shared
    /// [`json_object`](vbi_core::telemetry::json_object) emitter: sorted
    /// keys, schema-stable.
    pub fn to_json(&self) -> String {
        use vbi_core::telemetry::JsonValue as J;
        vbi_core::telemetry::json_object(&[
            ("threads", J::U(self.threads as u64)),
            ("frame_cache", J::B(self.frame_cache)),
            ("total_churns", J::U(self.total_churns)),
            ("total_ops", J::U(self.total_ops)),
            ("elapsed_secs", J::F(self.elapsed_secs, 6)),
            ("churns_per_sec", J::F(self.churns_per_sec, 0)),
            ("ops_per_sec", J::F(self.ops_per_sec, 0)),
            ("cache_hits", J::U(self.cache_hits)),
            ("cache_misses", J::U(self.cache_misses)),
            ("cache_refills", J::U(self.cache_refills)),
            ("cache_flushes", J::U(self.cache_flushes)),
            ("cache_batch_frees", J::U(self.cache_batch_frees)),
            ("frames_leaked", J::U(self.frames_leaked)),
        ])
    }
}

/// Runs `config.threads` workers, each on its own client, through
/// request → store → load → release cycles over `vb_bytes` VBs while a
/// persistent per-worker VB stays under store traffic. Ample physical
/// memory keeps eviction out of the picture: the measured work is the
/// engine's frame allocate/free path, so the cached-vs-buddy-only A/B in
/// `vbi-bench` isolates exactly the magazine layer.
///
/// # Panics
///
/// Panics if the footprint does not fit the machine or any op fails.
pub fn alloc_churn_run(config: &AllocChurnConfig) -> AllocChurnReport {
    let service = VbiService::new(ServiceConfig::new(
        config.shards,
        VbiConfig {
            phys_frames: config.phys_frames,
            frame_cache: config.frame_cache,
            ..VbiConfig::vbi_full()
        },
    ));
    let sessions: Vec<_> =
        (0..config.threads).map(|_| service.create_client().expect("fresh service")).collect();
    let persistent: Vec<VbHandle> = sessions
        .iter()
        .map(|session| {
            let vb = session
                .request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE)
                .expect("footprint fits");
            session.store_u64(vb.at(0), 1).expect("warm-up store");
            vb
        })
        .collect();
    // One unmeasured churn cycle per worker: first-touch translation
    // structures and TLB compulsory misses land here, not on the clock.
    for (worker, session) in sessions.iter().enumerate() {
        let vb = session
            .request_vb(config.vb_bytes, VbProperties::NONE, Rwx::READ_WRITE)
            .expect("warm-up request fits");
        session.store_u64(vb.at(0), worker as u64).expect("warm-up store");
        session.release_vb(vb.cvt_index).expect("warm-up release");
    }
    let stats_before = service.stats();
    let free_before = service.free_frames();

    let started = Instant::now();
    std::thread::scope(|scope| {
        for (worker, session) in sessions.iter().enumerate() {
            let persistent = &persistent[worker];
            scope.spawn(move || {
                for i in 0..config.churns_per_thread {
                    let value = (worker * config.churns_per_thread + i) as u64;
                    let vb = session
                        .request_vb(config.vb_bytes, VbProperties::NONE, Rwx::READ_WRITE)
                        .expect("churn request fits");
                    session.store_u64(vb.at(0), value).expect("in-bounds store");
                    assert_eq!(
                        session.load_u64(vb.at(0)).expect("in-bounds load"),
                        value,
                        "stale read on a churned VB"
                    );
                    session.store_u64(persistent.at(0), value).expect("persistent store");
                    session.release_vb(vb.cvt_index).expect("release churned VB");
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();

    let stats_after = service.stats();
    let frames_leaked = free_before.abs_diff(service.free_frames());
    let total_churns = (config.threads * config.churns_per_thread) as u64;
    let total_ops = total_churns * 5;
    AllocChurnReport {
        threads: config.threads,
        frame_cache: config.frame_cache,
        total_churns,
        total_ops,
        elapsed_secs: elapsed,
        churns_per_sec: if elapsed > 0.0 { total_churns as f64 / elapsed } else { 0.0 },
        ops_per_sec: if elapsed > 0.0 { total_ops as f64 / elapsed } else { 0.0 },
        cache_hits: stats_after.frame_cache_hits - stats_before.frame_cache_hits,
        cache_misses: stats_after.frame_cache_misses - stats_before.frame_cache_misses,
        cache_refills: stats_after.frame_cache_refills - stats_before.frame_cache_refills,
        cache_flushes: stats_after.frame_cache_flushes - stats_before.frame_cache_flushes,
        cache_batch_frees: stats_after.frame_cache_batch_frees
            - stats_before.frame_cache_batch_frees,
        frames_leaked,
    }
}

/// Configuration of one migration run ([`migration_run`]): N reader
/// threads hammering a set of VBs through clones of **one** session while
/// a churn thread migrates those same VBs between shards through the
/// engine's `Op::Migrate` — the §4.2.2 "seamless migration" claim under
/// concurrent lock-free readers.
#[derive(Debug, Clone)]
pub struct MigrationRunConfig {
    /// Reader threads sharing the one session.
    pub readers: usize,
    /// MTL shards the VBs migrate across (power of two, ≥ 2 to actually
    /// cross shards).
    pub shards: usize,
    /// Loads each reader performs.
    pub reads_per_thread: usize,
    /// Migrations the churn thread performs (round-robin over the VBs and
    /// destination shards).
    pub migrations: usize,
    /// VBs under churn.
    pub vbs: usize,
    /// Total physical frames of the machine.
    pub phys_frames: u64,
}

impl Default for MigrationRunConfig {
    fn default() -> Self {
        Self {
            readers: 4,
            shards: 4,
            reads_per_thread: 20_000,
            migrations: 200,
            vbs: 8,
            phys_frames: 1 << 16,
        }
    }
}

/// Report of one migration run.
#[derive(Debug, Clone)]
pub struct MigrationRunReport {
    /// Reader threads of the run.
    pub readers: usize,
    /// Shard count of the run.
    pub shards: usize,
    /// Loads completed across all readers (retries included).
    pub total_reads: u64,
    /// Migrations the churn thread completed.
    pub migrations: u64,
    /// Wall-clock seconds of the churn + read phase.
    pub elapsed_secs: f64,
    /// Reader throughput in loads per second.
    pub reads_per_sec: f64,
    /// Migration throughput (whole-VB moves per second).
    pub migrations_per_sec: f64,
    /// `MtlStats::vbs_migrated` summed across shards (must equal
    /// `migrations` — asserted by the run).
    pub vbs_migrated: u64,
    /// Reads that raced an in-flight remap and were retried: the check
    /// resolved the pre-remap entry and the load touched the drained
    /// source's afterlife (a clean `VbNotEnabled` in the disable window,
    /// or stale bytes if the freed VBUID was already re-placed). Each one
    /// converged to the byte-exact value on retry — a read that *stays*
    /// wrong fails the run.
    pub stale_retries: u64,
    /// CVT-cache delta of the run: every migration bumps the client's
    /// seqlock epoch, so `misses` counts the forced fallbacks and
    /// `torn_retries` the snapshots a racing rewrite tore.
    pub cache: vbi_core::cvt_cache::CvtCacheStats,
}

impl MigrationRunReport {
    /// One-line JSON rendering via the shared
    /// [`json_object`](vbi_core::telemetry::json_object) emitter: sorted
    /// keys, schema-stable.
    pub fn to_json(&self) -> String {
        use vbi_core::telemetry::JsonValue as J;
        vbi_core::telemetry::json_object(&[
            ("readers", J::U(self.readers as u64)),
            ("shards", J::U(self.shards as u64)),
            ("total_reads", J::U(self.total_reads)),
            ("migrations", J::U(self.migrations)),
            ("elapsed_secs", J::F(self.elapsed_secs, 6)),
            ("reads_per_sec", J::F(self.reads_per_sec, 0)),
            ("migrations_per_sec", J::F(self.migrations_per_sec, 1)),
            ("vbs_migrated", J::U(self.vbs_migrated)),
            ("stale_retries", J::U(self.stale_retries)),
            ("cache_misses", J::U(self.cache.misses)),
            ("torn_retries", J::U(self.cache.torn_retries)),
        ])
    }
}

/// The expected contents of migration-run slot `slot` of VB `vb` — constant
/// for the whole run, so every epoch of a migrated VB is byte-identical and
/// any deviation a reader observes is a lost write or a torn entry.
fn migration_pattern(vb: usize, slot: u64) -> u64 {
    0x5EED_0000_0000_0000 | ((vb as u64) << 32) | slot
}

/// Runs `config.readers` reader threads over `config.vbs` VBs while a churn
/// thread migrates those VBs round-robin across the shards, all through one
/// shared [`ClientSession`](vbi_core::session::ClientSession). Readers
/// assert byte-exactness on every load: a load either observes the pattern
/// value or transiently raced the remap handover (a clean `VbNotEnabled`
/// in the disable window, or the drained source's afterlife if its VBUID
/// was re-placed) and must converge on retry — a torn entry or a value
/// that *stays* wrong fails the run. After the churn the whole footprint
/// is re-verified byte for byte.
///
/// # Panics
///
/// Panics if any read observes a persistently wrong value (a lost write),
/// if a migration fails, or if the migration counter diverges from the
/// churn count.
pub fn migration_run(config: &MigrationRunConfig) -> MigrationRunReport {
    use std::sync::atomic::{AtomicU64, Ordering};

    const SLOTS: u64 = 16;
    let service = VbiService::new(ServiceConfig::new(
        config.shards,
        VbiConfig { phys_frames: config.phys_frames, ..VbiConfig::vbi_full() },
    ));
    let session = service.create_client().expect("fresh service");
    let handles: Vec<VbHandle> = (0..config.vbs)
        .map(|vb| {
            let handle = session
                .request_vb(128 << 10, VbProperties::NONE, Rwx::READ_WRITE)
                .expect("footprint fits");
            for slot in 0..SLOTS {
                session.store_u64(handle.at(slot * 8), migration_pattern(vb, slot)).unwrap();
            }
            session.load_u64(handle.at(0)).expect("warm-up load");
            handle
        })
        .collect();
    let cache_before = session.cvt_cache_stats().expect("live client");
    let stats_before = service.stats();

    let stale_retries = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        // Churn: migrate VB i to shard (i + round) round-robin. The CVT
        // index — the program's pointer — never changes.
        {
            let session = session.clone();
            let handles = &handles;
            scope.spawn(move || {
                for m in 0..config.migrations {
                    let vb = m % handles.len();
                    let to = (vb + m / handles.len() + 1) % config.shards;
                    session.migrate(handles[vb].cvt_index, to).expect("migration succeeds");
                }
            });
        }
        for thread in 0..config.readers {
            let session = session.clone();
            let handles = &handles;
            let stale_retries = &stale_retries;
            scope.spawn(move || {
                for i in 0..config.reads_per_thread {
                    let vb = (i + thread) % handles.len();
                    let slot = (i as u64).wrapping_mul(7) % SLOTS;
                    let va = handles[vb].at(slot * 8);
                    let want = migration_pattern(vb, slot);
                    // Retry through the remap's disable window; a *wrong
                    // value* that survives retries is a real lost write.
                    let mut attempts = 0;
                    loop {
                        match session.load_u64(va) {
                            Ok(value) if value == want => break,
                            outcome => {
                                attempts += 1;
                                stale_retries.fetch_add(1, Ordering::Relaxed);
                                assert!(
                                    attempts < 1_000,
                                    "reader {thread}: VB {vb} slot {slot} stuck at {outcome:?}, \
                                     want {want:#x} — lost write or torn entry"
                                );
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();

    // Post-churn: the whole footprint is byte-exact through the (by now
    // several-times-redirected) CVT entries.
    for (vb, handle) in handles.iter().enumerate() {
        for slot in 0..SLOTS {
            assert_eq!(
                session.load_u64(handle.at(slot * 8)).unwrap(),
                migration_pattern(vb, slot),
                "VB {vb} slot {slot} lost its contents across migration"
            );
        }
    }
    let stats = service.stats();
    let vbs_migrated = stats.vbs_migrated - stats_before.vbs_migrated;
    assert_eq!(vbs_migrated, config.migrations as u64, "migration counter diverged");
    let cache_after = session.cvt_cache_stats().expect("live client");
    let total_reads = (config.readers * config.reads_per_thread) as u64;
    MigrationRunReport {
        readers: config.readers,
        shards: config.shards,
        total_reads,
        migrations: vbs_migrated,
        elapsed_secs: elapsed,
        reads_per_sec: if elapsed > 0.0 { total_reads as f64 / elapsed } else { 0.0 },
        migrations_per_sec: if elapsed > 0.0 { vbs_migrated as f64 / elapsed } else { 0.0 },
        vbs_migrated,
        stale_retries: stale_retries.load(Ordering::Relaxed),
        cache: vbi_core::cvt_cache::CvtCacheStats {
            lockfree_hits: cache_after.lockfree_hits - cache_before.lockfree_hits,
            locked_hits: cache_after.locked_hits - cache_before.locked_hits,
            misses: cache_after.misses - cache_before.misses,
            torn_retries: cache_after.torn_retries - cache_before.torn_retries,
        },
    }
}

/// Configuration of one async-session run ([`async_run`]): N cooperative
/// tasks, each awaiting its ops through an
/// [`AsyncSession`](vbi_service::AsyncSession), all multiplexed on **one**
/// executor thread while the queue's per-shard workers execute — the
/// "many concurrent clients on a handful of threads" scenario.
#[derive(Debug, Clone)]
pub struct AsyncRunConfig {
    /// Concurrent async tasks (each a logical client session).
    pub tasks: usize,
    /// Ops each task awaits (alternating store / load-check of its slot).
    pub ops_per_task: usize,
    /// MTL shards (= queue worker threads).
    pub shards: usize,
    /// In-flight budget per session (the backpressure bound).
    pub inflight_per_session: usize,
    /// Cap on distinct clients: tasks share sessions round-robin above it
    /// (the `ClientId` space is 2^16, the task space is not).
    pub clients: usize,
    /// Total physical frames of the machine.
    pub phys_frames: u64,
    /// Record per-op await latency (two clock reads + a histogram record
    /// per op). Off for pure-throughput comparisons — the gate in
    /// `BENCH_async` must not charge the async side for instrumentation
    /// its baseline doesn't pay; the percentile fields report 0 then.
    pub measure_latency: bool,
}

impl Default for AsyncRunConfig {
    fn default() -> Self {
        Self {
            tasks: 1_000,
            ops_per_task: 20,
            shards: 2,
            inflight_per_session: 4,
            clients: 256,
            phys_frames: 1 << 16,
            measure_latency: true,
        }
    }
}

/// Report of one async-session run.
#[derive(Debug, Clone)]
pub struct AsyncRunReport {
    /// Concurrent tasks of the run.
    pub tasks: usize,
    /// Distinct clients the tasks shared.
    pub clients: usize,
    /// Shard count (= queue worker threads).
    pub shards: usize,
    /// Per-session in-flight budget.
    pub inflight_per_session: usize,
    /// Ops awaited across all tasks.
    pub total_ops: u64,
    /// Completions the queue produced for them (must equal `total_ops` —
    /// asserted by the run).
    pub completions: u64,
    /// Wall-clock seconds of the executor's whole run.
    pub elapsed_secs: f64,
    /// Throughput in awaited operations per second.
    pub ops_per_sec: f64,
    /// Median wake-to-complete latency of one awaited op (submit → future
    /// resolved, budget wait included), in nanoseconds.
    pub p50_await_ns: u64,
    /// 99th-percentile wake-to-complete latency, in nanoseconds.
    pub p99_await_ns: u64,
    /// High-water mark of SQEs queued at once.
    pub max_queue_depth: usize,
    /// High-water mark of ops in flight at once.
    pub inflight_high_water: u64,
    /// Submissions that parked for budget (backpressure engagements).
    pub backpressure_waits: u64,
}

impl AsyncRunReport {
    /// One-line JSON rendering via the shared
    /// [`json_object`](vbi_core::telemetry::json_object) emitter: sorted
    /// keys, schema-stable.
    pub fn to_json(&self) -> String {
        use vbi_core::telemetry::JsonValue as J;
        vbi_core::telemetry::json_object(&[
            ("tasks", J::U(self.tasks as u64)),
            ("clients", J::U(self.clients as u64)),
            ("shards", J::U(self.shards as u64)),
            ("inflight_per_session", J::U(self.inflight_per_session as u64)),
            ("total_ops", J::U(self.total_ops)),
            ("completions", J::U(self.completions)),
            ("elapsed_secs", J::F(self.elapsed_secs, 6)),
            ("ops_per_sec", J::F(self.ops_per_sec, 0)),
            ("p50_await_ns", J::U(self.p50_await_ns)),
            ("p99_await_ns", J::U(self.p99_await_ns)),
            ("max_queue_depth", J::U(self.max_queue_depth as u64)),
            ("inflight_high_water", J::U(self.inflight_high_water)),
            ("backpressure_waits", J::U(self.backpressure_waits)),
        ])
    }
}

/// The value async-run task `task` stores on its `i`-th store — checked
/// back on the following load, so a lost wakeup, a cross-wired tag, or a
/// double-completion all surface as a data mismatch, not just a hang.
fn async_pattern(task: u64, i: u64) -> u64 {
    0xA5C_0000_0000_0000 | (task << 24) | i
}

/// Runs `config.tasks` async tasks on **one** executor thread over a fresh
/// [`AsyncFront`](vbi_service::AsyncFront), `config.shards` queue workers
/// underneath. Tasks share
/// `min(tasks, clients)` sessions round-robin (clones share the session's
/// in-flight budget), each task owning a private 8-byte slot of its
/// session's VB. Every op is awaited and every loaded value checked
/// against the last store, and the run asserts exactly-once completion:
/// queue completions == awaited ops, no outstanding tags, nothing left in
/// flight.
///
/// # Panics
///
/// Panics if any op fails, any load observes a wrong value, or any
/// completion is lost or duplicated.
pub fn async_run(config: &AsyncRunConfig) -> AsyncRunReport {
    use std::cell::RefCell;
    use std::rc::Rc;
    use vbi_core::telemetry::Histogram;
    use vbi_service::{AsyncFront, Executor};

    // Leave headroom in the 2^16 ClientId space.
    let clients = config.tasks.min(config.clients).clamp(1, 60_000);
    let tasks_per_client = config.tasks.div_ceil(clients);
    let front = AsyncFront::new(ServiceConfig::new(
        config.shards,
        VbiConfig { phys_frames: config.phys_frames, ..VbiConfig::vbi_full() },
    ));
    // Setup is synchronous through the service: clients and VBs exist
    // before the first awaited op, so the measured phase is pure
    // submit/await traffic.
    let sessions: Vec<_> = (0..clients)
        .map(|_| {
            let owner = front.service().create_client().expect("service has client IDs");
            let vb = owner
                .request_vb(
                    (tasks_per_client as u64 * 8).max(4096),
                    VbProperties::NONE,
                    Rwx::READ_WRITE,
                )
                .expect("footprint fits");
            (front.session_for(owner.id(), config.inflight_per_session), vb)
        })
        .collect();

    let latency = Rc::new(RefCell::new(Histogram::new()));
    let mut executor = Executor::new();
    for task in 0..config.tasks {
        let (session, vb) = &sessions[task % clients];
        let session = session.clone();
        let va = vb.at((task / clients) as u64 * 8);
        let latency = Rc::clone(&latency);
        let ops = config.ops_per_task;
        let measure = config.measure_latency;
        let task = task as u64;
        executor.spawn(async move {
            let mut last = 0u64;
            for i in 0..ops as u64 {
                let started = measure.then(Instant::now);
                if i % 2 == 0 {
                    last = async_pattern(task, i);
                    session.store_u64(va, last).await.expect("in-bounds store");
                } else {
                    let got = session.load_u64(va).await.expect("in-bounds load");
                    assert_eq!(got, last, "task {task}: completion cross-wired or lost");
                }
                if let Some(started) = started {
                    latency.borrow_mut().record(started.elapsed().as_nanos() as u64);
                }
            }
        });
    }

    let started = Instant::now();
    executor.run();
    let elapsed = started.elapsed().as_secs_f64();

    let total_ops = (config.tasks * config.ops_per_task) as u64;
    let completions = front.queue().completed();
    assert_eq!(completions, total_ops, "every awaited op completes exactly once");
    assert_eq!(front.outstanding(), 0, "no tag left behind");
    assert_eq!(front.queue().in_flight(), 0, "nothing still in flight");
    let latency = latency.borrow();
    if config.measure_latency {
        assert_eq!(latency.count(), total_ops);
    }
    AsyncRunReport {
        tasks: config.tasks,
        clients,
        shards: config.shards,
        inflight_per_session: config.inflight_per_session,
        total_ops,
        completions,
        elapsed_secs: elapsed,
        ops_per_sec: if elapsed > 0.0 { total_ops as f64 / elapsed } else { 0.0 },
        p50_await_ns: latency.percentile(50.0),
        p99_await_ns: latency.percentile(99.0),
        max_queue_depth: front.queue().depth().high_water,
        inflight_high_water: front.queue().inflight_high_water(),
        backpressure_waits: front.queue().backpressure_waits(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ops_are_deterministic_and_aligned() {
        let spec = benchmark("mcf").unwrap();
        let a = trace_ops(&spec, 7, 500);
        let b = trace_ops(&spec, 7, 500);
        assert_eq!(a, b);
        for op in &a {
            assert_eq!(op.offset % 8, 0);
            assert!(op.offset + 8 <= spec.regions[op.region].bytes.min(REGION_CAP));
        }
    }

    #[test]
    fn single_thread_run_completes_and_reports() {
        let config = ServiceRunConfig {
            threads: 1,
            shards: 1,
            ops_per_thread: 2_000,
            batch: 1,
            ..Default::default()
        };
        let report = service_run(&config);
        assert_eq!(report.total_ops, 2_000);
        assert!(report.ops_per_sec > 0.0);
        assert!(report.mtl.translation_requests > 0);
        assert_eq!(report.shard_loads.len(), 1);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"ops_per_sec\""));
    }

    #[test]
    fn multi_thread_run_with_batching_completes() {
        let config = ServiceRunConfig {
            threads: 4,
            shards: 2,
            ops_per_thread: 2_000,
            batch: 32,
            ..Default::default()
        };
        let report = service_run(&config);
        assert_eq!(report.total_ops, 8_000);
        assert!(report.mtl.pages_allocated > 0);
        assert_eq!(report.shard_loads.len(), 2);
    }

    #[test]
    fn read_path_run_is_lock_free_when_enabled() {
        let config =
            ReadPathConfig { threads: 2, shards: 2, ops_per_thread: 500, ..Default::default() };
        let fast = read_path_run(&config);
        assert_eq!(fast.total_ops, 1_000);
        assert_eq!(fast.client_locks, 0, "warm cache-hit reads must take zero client locks");
        assert_eq!(fast.cache.lockfree_hits, 1_000);
        let json = fast.to_json();
        assert!(json.contains("\"client_locks\":0"), "{json}");
    }

    #[test]
    fn read_path_run_resolves_clients_through_the_published_map() {
        let base =
            ReadPathConfig { threads: 2, shards: 2, ops_per_thread: 500, ..Default::default() };
        let fast = read_path_run(&base);
        assert_eq!(fast.map.lockfree_hits, 1_000, "every read resolves through the published map");
        assert_eq!(fast.map.locked_fallbacks, 0, "warm readers never touch the map mutex");
        let json = fast.to_json();
        assert!(json.contains("\"map_lockfree_hits\":1000"), "{json}");
    }

    #[test]
    fn alloc_churn_run_leaks_nothing_and_hits_the_cache() {
        let base = AllocChurnConfig {
            threads: 2,
            shards: 2,
            churns_per_thread: 500,
            ..Default::default()
        };
        let cached = alloc_churn_run(&base);
        assert_eq!(cached.total_churns, 1_000);
        assert_eq!(cached.total_ops, 5_000);
        assert_eq!(cached.frames_leaked, 0, "every churned frame must come back");
        assert!(
            cached.cache_hits > cached.cache_misses,
            "steady-state churn must be served from the magazines \
             (hits {}, misses {})",
            cached.cache_hits,
            cached.cache_misses
        );
        let json = cached.to_json();
        assert!(json.contains("\"frame_cache\":true"), "{json}");
        assert!(json.contains("\"frames_leaked\":0"), "{json}");

        let buddy_only = alloc_churn_run(&AllocChurnConfig { frame_cache: false, ..base });
        assert_eq!(buddy_only.frames_leaked, 0);
        assert_eq!(buddy_only.cache_hits, 0, "a disabled cache must count nothing");
        assert_eq!(buddy_only.cache_refills, 0);
    }

    #[test]
    fn migration_run_keeps_data_byte_exact_under_churn() {
        let report = migration_run(&MigrationRunConfig {
            readers: 2,
            shards: 4,
            reads_per_thread: 2_000,
            migrations: 40,
            vbs: 4,
            ..Default::default()
        });
        assert_eq!(report.total_reads, 4_000);
        assert_eq!(report.migrations, 40);
        assert_eq!(report.vbs_migrated, 40);
        // Every migration bumps the client's seqlock epoch via the CVT-slot
        // invalidation, so readers demonstrably fell back to the
        // authoritative path at least once.
        assert!(report.cache.misses > 0, "migrations must invalidate the published cache");
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"vbs_migrated\":40"), "{json}");
    }

    #[test]
    fn async_run_completes_exactly_once_and_reports() {
        // 96 tasks over 16 sessions with budget 2: tasks outnumber permits
        // per session threefold, so backpressure must engage.
        let report = async_run(&AsyncRunConfig {
            tasks: 96,
            ops_per_task: 10,
            shards: 2,
            inflight_per_session: 2,
            clients: 16,
            ..Default::default()
        });
        assert_eq!(report.total_ops, 960);
        assert_eq!(report.completions, 960);
        assert_eq!(report.clients, 16);
        assert!(report.ops_per_sec > 0.0);
        assert!(report.backpressure_waits > 0, "budget 2 under 6 tasks/session must park");
        assert!(report.inflight_high_water >= 1);
        assert!(report.p99_await_ns >= report.p50_await_ns);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"backpressure_waits\""), "{json}");
        assert!(json.contains("\"p99_await_ns\""), "{json}");
    }

    #[test]
    fn queue_run_loses_no_completions_and_reports_depth() {
        let config = ServiceRunConfig {
            threads: 2,
            shards: 2,
            ops_per_thread: 2_000,
            batch: 16,
            ..Default::default()
        };
        let report = queue_run(&config);
        assert_eq!(report.total_ops, 4_000);
        assert_eq!(report.completions, 4_000);
        assert!(report.ops_per_sec > 0.0);
        assert!(report.mtl.translation_requests > 0);
        assert!(report.max_queue_depth >= 1);
        assert_eq!(report.shard_loads.len(), 2);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"max_queue_depth\""));
    }
}
