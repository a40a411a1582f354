//! `resident_rw` and `oversub_rw`: two clients, each issuing single ops
//! through its own `ServiceSession` on a two-shard `VbiService`, in a
//! closed loop (the next op leaves only when the previous one returned).
//! One thread drives both clients, alternating between them: on a 2-vCPU
//! host, two busy client threads run far slower than one and settle into
//! run-long lock-contention modes (contended acquisitions ~0% in some runs,
//! ~28% in others, with a 4x swing in p50), which no statistic over one
//! run can steady.
//!
//! The traced run replays the recorded op stream at every public entry
//! point below the session — `VbiService::execute`,
//! `VbiService::translate`, and a standalone `Mtl` per client (the engine's
//! MTL half, then `translate`).

use std::time::{Duration, Instant};

use vbi_core::mtl::{Mtl, MtlAccess};
use vbi_core::ops::{self, VbHandle};
use vbi_core::{ClientId, Rwx, VbProperties, VbiAddress, VbiConfig};
use vbi_service::{ServiceConfig, ServiceSession, VbiService};

use crate::measure::{median, Latencies, Rung, Span};
use crate::plan::{timed, Answer, Kind, Outcome, Planned, Shadow, PAGE};
use crate::report::{RunReport, ServiceCounters};
use crate::rng::{Rng, Zipf};

const CLIENTS: usize = 2;
const SHARDS: usize = 2;
/// Ops pre-generated per client; the loop cycles through them.
const STREAM: usize = 1 << 17;
const WARMUP_OPS: usize = 4_000;
/// Fresh instances set up and measured per untraced run.
const REPS: usize = 5;
/// Ops per client each ladder rung replays.
const LADDER_OPS: usize = 20_000;

/// The shape of one sync workload.
pub struct Shape {
    pub name: &'static str,
    /// Machine total, split across the shards.
    pub phys_frames: u64,
    pub vbs_per_client: usize,
    pub vb_bytes: u64,
    /// One extra VB, owned by a set-up client and attached read-only by
    /// both clients.
    pub shared_vb: bool,
    /// Builds one client's op stream.
    pub stream: fn(&Shape, &mut Rng) -> Vec<Planned>,
}

/// Cached single ops: 161 VBs over two shards (more than the 64-entry
/// direct TLB each shard has), 1 288 resident pages (more than the
/// 512-entry page TLB), a footprint far under physical memory.
pub fn resident() -> Shape {
    Shape {
        name: "resident_rw",
        phys_frames: 16_384,
        vbs_per_client: 80,
        vb_bytes: 32 << 10,
        shared_vb: true,
        stream: resident_stream,
    }
}

/// Pressure: 2 048 touched pages on 512 frames of physical memory.
pub fn oversub() -> Shape {
    Shape {
        name: "oversub_rw",
        phys_frames: 512,
        vbs_per_client: 32,
        vb_bytes: 128 << 10,
        shared_vb: false,
        stream: oversub_stream,
    }
}

/// ~85% `load_u64` (a tenth of them on the shared VB), ~10% `store_u64`,
/// ~5% 256 B–8 KiB spans; VBs Zipf-ranked; 2% of u64s straddle a page.
fn resident_stream(shape: &Shape, rng: &mut Rng) -> Vec<Planned> {
    let vbs = shape.vbs_per_client;
    let shared = vbs as u16;
    let zipf = Zipf::new(vbs, 0.9);
    let mut rank: Vec<u16> = (0..vbs as u16).collect();
    rng.shuffle(&mut rank);
    let pages = shape.vb_bytes / PAGE;
    let u64_offset = |rng: &mut Rng| -> u32 {
        if rng.chance(0.02) {
            (rng.below(pages - 1) * PAGE + PAGE - 4) as u32
        } else {
            (rng.below(shape.vb_bytes / 8) * 8) as u32
        }
    };
    (0..STREAM)
        .map(|_| {
            let u = rng.unit();
            let private = rank[zipf.sample(rng)];
            if u < 0.85 {
                let vb = if rng.chance(0.1) { shared } else { private };
                Planned { kind: Kind::Load, vb, offset: u64_offset(rng), len: 8, value: 0 }
            } else if u < 0.95 {
                let value = rng.next_u64();
                Planned { kind: Kind::Store, vb: private, offset: u64_offset(rng), len: 8, value }
            } else {
                let len = (256.0 * 32f64.powf(rng.unit())) as u64;
                let offset = rng.below(shape.vb_bytes - len + 1) as u32;
                let value = rng.next_u64();
                if rng.chance(0.5) {
                    let vb = if rng.chance(0.1) { shared } else { private };
                    Planned { kind: Kind::LoadSpan, vb, offset, len: len as u32, value }
                } else {
                    Planned { kind: Kind::StoreSpan, vb: private, offset, len: len as u32, value }
                }
            }
        })
        .collect()
}

/// 50/50 `load_u64`/`store_u64`; 80% of ops on a hot fifth of the pages.
fn oversub_stream(shape: &Shape, rng: &mut Rng) -> Vec<Planned> {
    let per_vb = shape.vb_bytes / PAGE;
    let mut pages: Vec<u64> = (0..shape.vbs_per_client as u64 * per_vb).collect();
    rng.shuffle(&mut pages);
    let (hot, cold) = pages.split_at(pages.len() / 5);
    (0..STREAM)
        .map(|_| {
            let set = if rng.chance(0.8) { hot } else { cold };
            let page = set[rng.below(set.len() as u64) as usize];
            let offset = ((page % per_vb) * PAGE + rng.below(PAGE / 8) * 8) as u32;
            let vb = (page / per_vb) as u16;
            if rng.chance(0.5) {
                Planned { kind: Kind::Load, vb, offset, len: 8, value: 0 }
            } else {
                Planned { kind: Kind::Store, vb, offset, len: 8, value: rng.next_u64() }
            }
        })
        .collect()
}

struct Client {
    session: ServiceSession,
    /// Private VBs, then the shared one.
    handles: Vec<VbHandle>,
    shadow: Shadow,
    stream: Vec<Planned>,
}

struct Instance {
    svc: VbiService,
    /// The set-up client that owns the shared VB.
    owner: Option<(ServiceSession, VbHandle)>,
    clients: Vec<Client>,
    /// Ops issued so far; op `i` is client `i % CLIENTS`'s stream entry
    /// `i / CLIENTS`.
    pos: usize,
}

impl Instance {
    fn next(&mut self) -> (usize, Planned) {
        let (c, i) = (self.pos % CLIENTS, self.pos / CLIENTS);
        self.pos += 1;
        (c, self.clients[c].stream[i % STREAM])
    }
}

fn config(phys_frames: u64) -> VbiConfig {
    VbiConfig { phys_frames, ..VbiConfig::vbi_full() }
}

/// Builds the service, clients and VBs, writes one `u64` per page (so
/// every page is allocated), generates the op streams and warms up.
fn build(shape: &Shape, seed: u64) -> Instance {
    let svc = VbiService::new(ServiceConfig::new(SHARDS, config(shape.phys_frames)));
    let pages = shape.vb_bytes / PAGE;
    let mut owner = None;
    let mut shared_content = vec![0u8; shape.vb_bytes as usize];
    if shape.shared_vb {
        let session = svc.create_client().expect("fresh service has client ids");
        let vb = session
            .request_vb(shape.vb_bytes, VbProperties::NONE, Rwx::READ_WRITE)
            .expect("shared VB fits");
        let mut rng = Rng::derive(seed, 0x5aed);
        for page in 0..pages {
            let value = rng.next_u64();
            session.store_u64(vb.at(page * PAGE), value).expect("populating the shared VB");
            let o = (page * PAGE) as usize;
            shared_content[o..o + 8].copy_from_slice(&value.to_le_bytes());
        }
        owner = Some((session, vb));
    }
    let clients = (0..CLIENTS)
        .map(|c| {
            let mut rng = Rng::derive(seed, c as u64);
            let session = svc.create_client().expect("fresh service has client ids");
            let mut handles: Vec<VbHandle> = (0..shape.vbs_per_client)
                .map(|_| {
                    session
                        .request_vb(shape.vb_bytes, VbProperties::NONE, Rwx::READ_WRITE)
                        .expect("workload VBs fit")
                })
                .collect();
            if let Some((_, vb)) = &owner {
                let cvt_index = session.attach(vb.vbuid, Rwx::READ).expect("attach shared VB");
                handles.push(VbHandle { cvt_index, vbuid: vb.vbuid });
            }
            let mut shadow = Shadow::zeroed(&vec![shape.vb_bytes; handles.len()]);
            for (i, vb) in handles.iter().take(shape.vbs_per_client).enumerate() {
                for page in 0..pages {
                    let value = rng.next_u64();
                    session.store_u64(vb.at(page * PAGE), value).expect("populating a VB");
                    shadow.write(i, page * PAGE, &value.to_le_bytes());
                }
            }
            if shape.shared_vb {
                shadow.write(shape.vbs_per_client, 0, &shared_content);
            }
            let stream = (shape.stream)(shape, &mut rng);
            Client { session, handles, shadow, stream }
        })
        .collect();
    let mut inst = Instance { svc, owner, clients, pos: 0 };
    let warm = drive(&mut inst, Instant::now(), Stop::Ops(WARMUP_OPS));
    assert_eq!(warm.wrong, 0, "wrong value during warm-up");
    inst
}

#[derive(Clone, Copy)]
enum Stop {
    Deadline(Instant),
    Ops(usize),
}

#[derive(Default)]
struct Tally {
    failed: u64,
    wrong: u64,
    /// (end ns since the phase started, latency ns) per op.
    ops: Vec<(u64, u64)>,
}

fn front_call(session: &ServiceSession, handle: &VbHandle, op: &Planned, data: &[u8]) -> Outcome {
    let va = handle.at(u64::from(op.offset));
    match op.kind {
        Kind::Load => Outcome::from_u64(session.load_u64(va)),
        Kind::Store => Outcome::from_unit(session.store_u64(va, op.value)),
        Kind::LoadSpan => Outcome::from_bytes(session.load_bytes(va, op.len as usize)),
        Kind::StoreSpan => Outcome::from_unit(session.store_bytes(va, data)),
    }
}

/// The untraced closed loop: time each session call, check it against the
/// issuing client's shadow.
fn drive(inst: &mut Instance, start: Instant, stop: Stop) -> Tally {
    let mut tally = Tally { ops: Vec::with_capacity(1 << 21), ..Tally::default() };
    loop {
        let (c, op) = inst.next();
        let client = &mut inst.clients[c];
        let data = op.span_data();
        let t0 = Instant::now();
        let outcome = front_call(&client.session, &client.handles[op.vb as usize], &op, &data);
        let t1 = Instant::now();
        tally.ops.push(((t1 - start).as_nanos() as u64, (t1 - t0).as_nanos() as u64));
        tally.failed += u64::from(outcome.failed());
        tally.wrong += u64::from(!client.shadow.apply(&op, &outcome));
        let done = match stop {
            Stop::Deadline(deadline) => t1 >= deadline,
            Stop::Ops(n) => tally.ops.len() >= n,
        };
        if done {
            return tally;
        }
    }
}

/// Releases everything and checks that every frame and swap slot came
/// back.
fn teardown(inst: Instance, shape: &Shape, report: &mut RunReport) {
    let Instance { svc, owner, clients, .. } = inst;
    for c in clients {
        for vb in &c.handles[..shape.vbs_per_client] {
            c.session.release_vb(vb.cvt_index).expect("release a workload VB");
        }
        if let Some((_, shared)) = &owner {
            c.session.detach(shared.vbuid).expect("detach the shared VB");
        }
        c.session.destroy().expect("destroy a client");
    }
    if let Some((session, vb)) = owner {
        session.release_vb(vb.cvt_index).expect("release the shared VB");
        session.destroy().expect("destroy the owner");
    }
    report.check_teardown(svc.free_frames(), shape.phys_frames, svc.swap_occupancy());
}

/// One timed phase over an instance, folded into `report` with its
/// counter deltas.
fn timed_phase(inst: &mut Instance, seconds: f64, report: &mut RunReport) {
    let before = ServiceCounters::read(&inst.svc);
    let phase = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let tally = drive(inst, start, Stop::Deadline(start + phase));
    let after = ServiceCounters::read(&inst.svc);
    report.failed += tally.failed;
    report.wrong += tally.wrong;
    report.attempted += tally.ops.len() as u64;
    report.counts(&before, &after, tally.ops.len() as u64);
    report.phase(&tally.ops, phase.as_nanos() as u64);
}

pub fn run(shape: &Shape, seed: u64, seconds: f64, trace: bool) -> RunReport {
    let mut report = RunReport::new(shape.name, seed);
    let reps = if trace { 1 } else { REPS };
    let mut setups = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        let mut inst = build(shape, seed);
        setups.push(t.elapsed().as_secs_f64());
        if trace {
            timed_phase(&mut inst, seconds * 0.4, &mut report);
            ladder(&mut inst, shape, &mut report);
        } else {
            timed_phase(&mut inst, seconds / REPS as f64, &mut report);
        }
        teardown(inst, shape, &mut report);
    }
    report.setup(median(&setups));
    report
}

// --- the layer ladder --------------------------------------------------------

fn access_of(op: &Planned) -> MtlAccess {
    if op.is_store() {
        MtlAccess::Writeback
    } else {
        MtlAccess::Read
    }
}

/// A standalone MTL holding the same VBs (same VBUIDs) as one client, each
/// page written once, with that client's share of the machine's frames.
fn standalone(shape: &Shape, handles: &[VbHandle], seed: u64, c: usize) -> (Mtl, Shadow) {
    let mut mtl = Mtl::new(config(shape.phys_frames / CLIENTS as u64));
    let mut shadow = Shadow::zeroed(&vec![shape.vb_bytes; handles.len()]);
    let mut rng = Rng::derive(seed, 0x57a0 + c as u64);
    for (i, vb) in handles.iter().enumerate() {
        mtl.enable_vb(vb.vbuid, VbProperties::NONE).expect("VBUID free in a fresh MTL");
        mtl.add_ref(vb.vbuid).expect("enabled above");
        for page in 0..shape.vb_bytes / PAGE {
            let value = rng.next_u64();
            let op = Planned {
                kind: Kind::Store,
                vb: i as u16,
                offset: (page * PAGE) as u32,
                len: 8,
                value,
            };
            let (result, _) = ops::run_checked_pressured(
                &mut mtl,
                &op.op(ClientId(0), vb, Vec::new()),
                op.address(vb),
            );
            result.expect("populating the standalone MTL");
            shadow.write(i, page * PAGE, &value.to_le_bytes());
        }
    }
    (mtl, shadow)
}

/// Replays `ops` (op id = position) through one rung, recording each
/// answer's span and checking loads against the issuing client's shadow
/// when `shadows` is given. Returns (kind, ns, probe) per op.
fn replay(
    rung: Rung,
    ops: &[(usize, Planned)],
    mut shadows: Option<&mut [Shadow]>,
    report: &mut RunReport,
    spans: &mut Vec<Span>,
    mut call: impl FnMut(usize, usize, &Planned) -> Answer,
) -> Vec<(Kind, u64, u64)> {
    ops.iter()
        .enumerate()
        .map(|(i, &(c, op))| {
            let Answer { start_ns, end_ns, outcome, probe } = call(i, c, &op);
            spans.push(Span { op: i as u64, rung, start_ns, end_ns });
            report.attempted += 1;
            report.failed += u64::from(outcome.failed());
            if let Some(shadows) = shadows.as_deref_mut() {
                report.wrong += u64::from(!shadows[c].apply(&op, &outcome));
            }
            (op.kind, end_ns - start_ns, probe)
        })
        .collect()
}

fn ladder(inst: &mut Instance, shape: &Shape, report: &mut RunReport) {
    let epoch = Instant::now();
    let ops: Vec<(usize, Planned)> = (0..LADDER_OPS * CLIENTS).map(|_| inst.next()).collect();
    let svc = inst.svc.clone();
    let handles: Vec<Vec<VbHandle>> = inst.clients.iter().map(|c| c.handles.clone()).collect();
    let mut shadows: Vec<Shadow> = inst.clients.iter().map(|c| c.shadow.clone()).collect();
    let mut spans = Vec::new();

    // Front: the session call. On oversub_rw the probe is the faults-in
    // delta on the op's home shard, which classifies the op as a fault or
    // a resident op (the stats read sits outside the span).
    let classify = shape.name == "oversub_rw";
    let shard_faults = |h: &VbHandle| svc.shard_stats()[svc.shard_of(h.vbuid)].faults_in;
    let clients = &inst.clients;
    let front =
        replay(Rung::FrontSync, &ops, Some(&mut shadows), report, &mut spans, |_, c, op| {
            let h = &handles[c][op.vb as usize];
            let data = op.span_data();
            let before = if classify { shard_faults(h) } else { 0 };
            let answer = timed(epoch, || front_call(&clients[c].session, h, op, &data));
            let probe = if classify { shard_faults(h) - before } else { 0 };
            Answer { probe, ..answer }
        });

    // Engine: the same ops as `Op`s through `VbiService::execute`.
    let ids: Vec<ClientId> = inst.clients.iter().map(|c| c.session.id()).collect();
    let mut built: Vec<Option<ops::Op>> = ops
        .iter()
        .map(|&(c, op)| Some(op.op(ids[c], &handles[c][op.vb as usize], op.span_data())))
        .collect();
    replay(Rung::EngineExecute, &ops, Some(&mut shadows), report, &mut spans, |i, _, _| {
        let op = built[i].take().expect("each built op runs once");
        timed(epoch, || Outcome::from_result(svc.execute(op)))
    });

    // Shard: one translation of the op's first address through the
    // service, shard lock included.
    replay(Rung::ShardTranslate, &ops, None, report, &mut spans, |_, c, op| {
        let (address, access) = (op.address(&handles[c][op.vb as usize]), access_of(op));
        timed(epoch, || Outcome::from_unit(svc.translate(address, access).map(|_| ())))
    });

    // MTL: a standalone MTL per client — the engine's MTL half (data
    // access with the pressure path), whose probe counts translations per
    // op, then translation alone on the MTL the data rung left warm, as
    // the rungs above leave the service's shards.
    let seed = report.seed;
    let (mut mtls, mut mtl_shadows): (Vec<Mtl>, Vec<Shadow>) =
        handles.iter().enumerate().map(|(c, h)| standalone(shape, h, seed, c)).unzip();
    let mtl_ops: Vec<(ops::Op, VbiAddress)> = ops
        .iter()
        .map(|&(c, op)| {
            let h = &handles[c][op.vb as usize];
            (op.op(ClientId(0), h, op.span_data()), op.address(h))
        })
        .collect();
    let data =
        replay(Rung::MtlData, &ops, Some(&mut mtl_shadows), report, &mut spans, |i, c, _| {
            let mtl = &mut mtls[c];
            let before = mtl.stats().translation_requests;
            let (op, address) = (&mtl_ops[i].0, mtl_ops[i].1);
            let answer = timed(epoch, || {
                Outcome::from_result(ops::run_checked_pressured(mtl, op, address).0)
            });
            Answer { probe: mtl.stats().translation_requests - before, ..answer }
        });
    replay(Rung::MtlTranslate, &ops, None, report, &mut spans, |_, c, op| {
        let (address, access) = (op.address(&handles[c][op.vb as usize]), access_of(op));
        let mtl = &mut mtls[c];
        timed(epoch, || Outcome::from_unit(mtl.translate(address, access).map(|_| ())))
    });
    for (client, shadow) in inst.clients.iter_mut().zip(shadows) {
        client.shadow = shadow;
    }

    let per_op = |records: &[(Kind, u64, u64)], u64_only: bool| {
        let chosen: Vec<u64> = records
            .iter()
            .filter(|(k, _, _)| !u64_only || matches!(k, Kind::Load | Kind::Store))
            .map(|&(_, _, probe)| probe)
            .collect();
        chosen.iter().sum::<u64>() as f64 / chosen.len().max(1) as f64
    };
    report.ladder(&spans, per_op(&data, false));
    report.metrics.set("mtl.translations_per_u64_op", per_op(&data, true), "1/op");
    let (mut fault_lat, mut resident_lat) = (Latencies::default(), Latencies::default());
    let mut load_lat = Latencies::default();
    for &(kind, ns, probe) in &front {
        if probe > 0 { &mut fault_lat } else { &mut resident_lat }.push(ns);
        if kind == Kind::Load {
            load_lat.push(ns);
        }
    }
    let p50 = |lat: &mut Latencies| lat.percentile(0.5).map_or(0.0, |p| p.value_ns as f64);
    report.metrics.set("front.load_u64_p50_ns", p50(&mut load_lat), "ns");
    report.metrics.set("pressure.fault_op_p50_ns", p50(&mut fault_lat), "ns");
    report.metrics.set("pressure.resident_op_p50_ns", p50(&mut resident_lat), "ns");
    report.metrics.set("pressure.fault_ops", fault_lat.len() as f64, "count");
    // Traced and untraced sides run the same closed loop over the same
    // streams; both rates count ops over the loop's wall time.
    let front_spans = &spans[..front.len()];
    let wall_ns = front_spans.last().map_or(0, |s| s.end_ns) - front_spans[0].start_ns;
    let traced_rate = front.len() as f64 * 1e9 / wall_ns.max(1) as f64;
    report.metrics.set("trace.overhead_ratio", report.mean_rate() / traced_rate, "ratio");
    report.spans = spans;
}
