//! `async_churn`: one executor thread drives 1 000 `AsyncSession`s over a
//! one-shard `VbiQueue` (one worker thread). Each session is a closed-loop
//! task: 60% checked `load_u64`/`store_u64` on its own persistent VB, 40%
//! a VB lifecycle — `request_vb` (4–64 KiB), one store per page (issued
//! together, so the session's in-flight budget pushes back), one checked
//! load, `release_vb`.
//!
//! The traced run records the persistent-VB data ops of its async phase
//! and replays them, one thread, through `VbiService::execute`,
//! `VbiService::translate` and a standalone `Mtl`.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Instant;

use vbi_core::mtl::{Mtl, MtlAccess};
use vbi_core::ops::{self, Op, VbHandle};
use vbi_core::{ClientId, ClientSession, Rwx, VbProperties, VbiConfig};
use vbi_service::{AsyncFront, AsyncSession, Executor, ServiceConfig, VbiService};

use crate::measure::{median, ns_since, Rung, Span};
use crate::plan::{timed, Answer, Kind, Outcome, Planned, Shadow, PAGE};
use crate::report::{RunReport, ServiceCounters};
use crate::rng::Rng;

const SESSIONS: usize = 1_000;
/// Per-session in-flight budget; a lifecycle's up-to-16 concurrent stores
/// wait on it.
const BUDGET: usize = 4;
const PERSISTENT_BYTES: u64 = 16 << 10;
/// Several times the peak footprint (1 000 persistent VBs plus up to
/// 1 000 live lifecycle VBs and their reservations), so nothing evicts.
const PHYS_FRAMES: u64 = 1 << 17;
const REPS: usize = 3;
const WARMUP_ITERATIONS: usize = 2;
/// Share of `--seconds` the traced async phase runs for.
const LADDER_SHARE: f64 = 0.1;

/// One session's state, handed to its task and back.
struct SessionState {
    session: AsyncSession,
    persistent: VbHandle,
    shadow: Shadow,
    rng: Rng,
}

/// State shared by every task of one executor run.
struct Shared {
    epoch: Instant,
    deadline: Option<Instant>,
    iterations: Option<usize>,
    /// (end ns since `epoch`, latency ns) per completed op.
    done: RefCell<Vec<(u64, u64)>>,
    ops: Cell<u64>,
    failed: Cell<u64>,
    wrong: Cell<u64>,
    /// Traced runs: a span per op, and the persistent-VB data ops in
    /// program order as (span id, session, op).
    spans: Option<RefCell<Vec<Span>>>,
    log: RefCell<Vec<(u64, usize, Planned)>>,
}

impl Shared {
    fn new(deadline: Option<Instant>, iterations: Option<usize>, traced: bool) -> Self {
        Self {
            epoch: Instant::now(),
            deadline,
            iterations,
            done: RefCell::new(Vec::with_capacity(1 << 20)),
            ops: Cell::new(0),
            failed: Cell::new(0),
            wrong: Cell::new(0),
            spans: traced.then(|| RefCell::new(Vec::new())),
            log: RefCell::new(Vec::new()),
        }
    }

    /// Awaits `fut`, timing it from first poll to ready.
    async fn timed<T, E>(&self, fut: impl Future<Output = Result<T, E>>) -> Option<T> {
        let start = ns_since(self.epoch);
        let result = fut.await;
        let end = ns_since(self.epoch);
        self.done.borrow_mut().push((end, end - start));
        let n = self.ops.get();
        self.ops.set(n + 1);
        if let Some(spans) = &self.spans {
            spans.borrow_mut().push(Span {
                op: n,
                rung: Rung::FrontAsync,
                start_ns: start,
                end_ns: end,
            });
        }
        if result.is_err() {
            self.failed.set(self.failed.get() + 1);
        }
        result.ok()
    }

    fn wrong_value(&self) {
        self.wrong.set(self.wrong.get() + 1);
    }
}

/// Polls every future until all are ready.
struct JoinAll<F: Future> {
    futures: Vec<Option<Pin<Box<F>>>>,
    outputs: Vec<Option<F::Output>>,
}

fn join_all<F: Future>(futures: impl IntoIterator<Item = F>) -> JoinAll<F> {
    let futures: Vec<_> = futures.into_iter().map(|f| Some(Box::pin(f))).collect();
    let outputs = futures.iter().map(|_| None).collect();
    JoinAll { futures, outputs }
}

impl<F: Future> Future for JoinAll<F> {
    type Output = Vec<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // `JoinAll` is `Unpin` (its futures are boxed), so no pinning is
        // projected.
        let this = Pin::into_inner(self);
        let mut pending = false;
        for (slot, out) in this.futures.iter_mut().zip(&mut this.outputs) {
            if let Some(fut) = slot {
                match fut.as_mut().poll(cx) {
                    Poll::Ready(v) => {
                        *out = Some(v);
                        *slot = None;
                    }
                    Poll::Pending => pending = true,
                }
            }
        }
        if pending {
            Poll::Pending
        } else {
            Poll::Ready(this.outputs.iter_mut().map(|o| o.take().expect("joined")).collect())
        }
    }
}

impl<F: Future> Unpin for JoinAll<F> {}

/// One session's closed loop.
async fn task(shared: Rc<Shared>, slot: Rc<RefCell<Option<SessionState>>>, index: usize) {
    let mut st = slot.borrow_mut().take().expect("state present");
    let mut iteration = 0;
    loop {
        if shared.deadline.is_some_and(|d| Instant::now() >= d)
            || shared.iterations.is_some_and(|n| iteration >= n)
        {
            break;
        }
        iteration += 1;
        if st.rng.chance(0.6) {
            let offset = (st.rng.below(PERSISTENT_BYTES / 8) * 8) as u32;
            let op = if st.rng.chance(0.5) {
                Planned { kind: Kind::Load, vb: 0, offset, len: 8, value: 0 }
            } else {
                Planned { kind: Kind::Store, vb: 0, offset, len: 8, value: st.rng.next_u64() }
            };
            let va = st.persistent.at(u64::from(offset));
            let outcome = match op.kind {
                Kind::Load => shared
                    .timed(st.session.load_u64(va))
                    .await
                    .map_or(Outcome::Failed, Outcome::Value),
                _ => shared
                    .timed(st.session.store_u64(va, op.value))
                    .await
                    .map_or(Outcome::Failed, |()| Outcome::Done),
            };
            if !st.shadow.apply(&op, &outcome) {
                shared.wrong_value();
            }
            if shared.spans.is_some() {
                // `timed` numbered the op as it completed, with no await
                // since, so it is the latest id.
                shared.log.borrow_mut().push((shared.ops.get() - 1, index, op));
            }
        } else {
            let pages = 1u64 << st.rng.below(5);
            let request = st.session.request_vb(pages * PAGE, VbProperties::NONE, Rwx::READ_WRITE);
            let Some(vb) = shared.timed(request).await else { continue };
            let values: Vec<u64> = (0..pages).map(|_| st.rng.next_u64()).collect();
            let stored =
                join_all(values.iter().enumerate().map(|(page, &value)| {
                    let (shared, session) = (&shared, &st.session);
                    async move {
                        shared.timed(session.store_u64(vb.at(page as u64 * PAGE), value)).await
                    }
                }))
                .await;
            let page = st.rng.below(pages) as usize;
            let loaded = shared.timed(st.session.load_u64(vb.at(page as u64 * PAGE))).await;
            if let (Some(()), Some(v)) = (stored[page], loaded) {
                if v != values[page] {
                    shared.wrong_value();
                }
            }
            let release = Op::ReleaseVb { client: st.session.id(), index: vb.cvt_index };
            shared.timed(st.session.run(release)).await;
        }
    }
    *slot.borrow_mut() = Some(st);
}

struct Instance {
    front: AsyncFront,
    states: Vec<Rc<RefCell<Option<SessionState>>>>,
}

fn config() -> VbiConfig {
    VbiConfig { phys_frames: PHYS_FRAMES, ..VbiConfig::vbi_full() }
}

/// Runs every session's task on one executor until the limit; returns
/// the shared tallies.
fn drive(inst: &Instance, shared: Shared) -> Rc<Shared> {
    let shared = Rc::new(shared);
    let mut executor = Executor::new();
    for (i, slot) in inst.states.iter().enumerate() {
        executor.spawn(task(Rc::clone(&shared), Rc::clone(slot), i));
    }
    executor.run();
    shared
}

fn build(seed: u64) -> Instance {
    let front = AsyncFront::new(ServiceConfig::new(1, config()));
    let states = (0..SESSIONS)
        .map(|i| {
            let mut rng = Rng::derive(seed, 0xa5c0 + i as u64);
            let sync = front.service().create_client().expect("client ids available");
            let persistent = sync
                .request_vb(PERSISTENT_BYTES, VbProperties::NONE, Rwx::READ_WRITE)
                .expect("persistent VB fits");
            let mut shadow = Shadow::zeroed(&[PERSISTENT_BYTES]);
            for page in 0..PERSISTENT_BYTES / PAGE {
                let value = rng.next_u64();
                sync.store_u64(persistent.at(page * PAGE), value).expect("populate");
                shadow.write(0, page * PAGE, &value.to_le_bytes());
            }
            let session = front.session_for(sync.id(), BUDGET);
            Rc::new(RefCell::new(Some(SessionState { session, persistent, shadow, rng })))
        })
        .collect();
    let inst = Instance { front, states };
    let warm = drive(&inst, Shared::new(None, Some(WARMUP_ITERATIONS), false));
    assert_eq!(warm.wrong.get(), 0, "wrong value during warm-up");
    inst
}

/// Counts a finished executor run into `report`; returns its completed
/// ops.
fn fold(report: &mut RunReport, shared: Rc<Shared>) -> Vec<(u64, u64)> {
    let shared = Rc::try_unwrap(shared).ok().expect("tasks finished");
    report.attempted += shared.ops.get();
    report.failed += shared.failed.get();
    report.wrong += shared.wrong.get();
    shared.done.into_inner()
}

fn timed_phase(inst: &Instance, seconds: f64, report: &mut RunReport) {
    let svc = inst.front.service();
    let before = ServiceCounters::read(svc);
    let waits_before = inst.front.queue().backpressure_waits();
    let phase = std::time::Duration::from_secs_f64(seconds);
    let shared = drive(inst, Shared::new(Some(Instant::now() + phase), None, false));
    let done = fold(report, shared);
    let ops = done.len() as u64;
    let after = ServiceCounters::read(svc);
    report.counts(&before, &after, ops);
    report.phase(&done, phase.as_nanos() as u64);
    let waits = inst.front.queue().backpressure_waits() - waits_before;
    report.metrics.set(
        "queue.backpressure_waits_per_kop",
        1e3 * waits as f64 / ops.max(1) as f64,
        "1/kop",
    );
    report.metrics.set(
        "queue.inflight_high_water",
        inst.front.queue().inflight_high_water() as f64,
        "count",
    );
}

fn teardown(inst: Instance, report: &mut RunReport) {
    let Instance { front, states } = inst;
    let svc = front.service().clone();
    for slot in states {
        let st = slot.borrow_mut().take().expect("state present");
        let sync = ClientSession::bind(svc.clone(), st.session.id());
        sync.release_vb(st.persistent.cvt_index).expect("release persistent VB");
        sync.destroy().expect("destroy client");
    }
    report.check_teardown(svc.free_frames(), PHYS_FRAMES, svc.swap_occupancy());
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> RunReport {
    let mut report = RunReport::new("async_churn", seed);
    let reps = if trace { 1 } else { REPS };
    let mut setups = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        let inst = build(seed);
        setups.push(t.elapsed().as_secs_f64());
        if trace {
            timed_phase(&inst, seconds * 0.4, &mut report);
            ladder(&inst, seed, seconds * LADDER_SHARE, &mut report);
        } else {
            timed_phase(&inst, seconds / REPS as f64, &mut report);
        }
        teardown(inst, &mut report);
    }
    report.setup(median(&setups));
    report
}

// --- the layer ladder --------------------------------------------------------

fn ladder(inst: &Instance, seed: u64, seconds: f64, report: &mut RunReport) {
    // Front: the async phase itself, traced.
    let phase = std::time::Duration::from_secs_f64(seconds);
    let shared = drive(inst, Shared::new(Some(Instant::now() + phase), None, true));
    let epoch = shared.epoch;
    let front_spans = shared.spans.as_ref().expect("traced").take();
    let log = shared.log.take();
    let done = fold(report, shared);
    // Ops completed inside the phase per second, as the untraced windows
    // count them.
    let within = done.iter().filter(|&&(end, _)| end <= phase.as_nanos() as u64).count();
    let traced_rate = within as f64 / seconds;
    report.metrics.set("trace.overhead_ratio", report.mean_rate() / traced_rate, "ratio");

    let svc: VbiService = inst.front.service().clone();
    let sessions: Vec<(ClientId, VbHandle, Shadow)> = inst
        .states
        .iter()
        .map(|s| {
            let s = s.borrow();
            let s = s.as_ref().expect("state present");
            (s.session.id(), s.persistent, s.shadow.clone())
        })
        .collect();
    let (clients, handles): (Vec<ClientId>, Vec<VbHandle>) =
        sessions.iter().map(|(c, h, _)| (*c, *h)).unzip();
    let mut shadows: Vec<Shadow> = sessions.into_iter().map(|(_, _, s)| s).collect();

    // The rungs below the front replay the logged persistent-VB data ops,
    // each span carrying the id of the op's front span.
    let mut spans: Vec<Span> = Vec::new();
    let mut replay = |rung: Rung,
                      shadows: Option<&mut Vec<Shadow>>,
                      call: &mut dyn FnMut(&Planned, ClientId, &VbHandle) -> Answer|
     -> u64 {
        let mut probes = 0;
        let mut shadows = shadows;
        for &(id, session, op) in &log {
            let Answer { start_ns, end_ns, outcome, probe } =
                call(&op, clients[session], &handles[session]);
            probes += probe;
            spans.push(Span { op: id, rung, start_ns, end_ns });
            report.attempted += 1;
            report.failed += u64::from(outcome.failed());
            if let Some(shadows) = shadows.as_deref_mut() {
                report.wrong += u64::from(!shadows[session].apply(&op, &outcome));
            }
        }
        probes
    };
    let access = |op: &Planned| if op.is_store() { MtlAccess::Writeback } else { MtlAccess::Read };

    replay(Rung::EngineExecute, Some(&mut shadows), &mut |op, client, h| {
        let op = op.op(client, h, Vec::new());
        timed(epoch, || Outcome::from_result(svc.execute(op)))
    });
    replay(Rung::ShardTranslate, None, &mut |op, _, h| {
        let (address, access) = (op.address(h), access(op));
        timed(epoch, || Outcome::from_unit(svc.translate(address, access).map(|_| ())))
    });
    // A standalone MTL holding every session's persistent VB (same
    // VBUIDs), each page written once.
    let mut mtl = Mtl::new(config());
    let mut rng = Rng::derive(seed, 0x57a0);
    let mut mtl_shadows: Vec<Shadow> = handles
        .iter()
        .map(|h| {
            mtl.enable_vb(h.vbuid, VbProperties::NONE).expect("VBUID free in a fresh MTL");
            mtl.add_ref(h.vbuid).expect("enabled above");
            let mut shadow = Shadow::zeroed(&[PERSISTENT_BYTES]);
            for page in 0..PERSISTENT_BYTES / PAGE {
                let value = rng.next_u64();
                mtl.write_u64(h.vbuid.address(page * PAGE).expect("in VB"), value)
                    .expect("populate");
                shadow.write(0, page * PAGE, &value.to_le_bytes());
            }
            shadow
        })
        .collect();
    // Data first, so translation alone runs on a warm MTL as the shard
    // rung did.
    let translations = replay(Rung::MtlData, Some(&mut mtl_shadows), &mut |op, _, h| {
        let (mtl_op, address) = (op.op(ClientId(0), h, Vec::new()), op.address(h));
        let before = mtl.stats().translation_requests;
        let answer = timed(epoch, || {
            Outcome::from_result(ops::run_checked_pressured(&mut mtl, &mtl_op, address).0)
        });
        Answer { probe: mtl.stats().translation_requests - before, ..answer }
    });
    replay(Rung::MtlTranslate, None, &mut |op, _, h| {
        let (address, access) = (op.address(h), access(op));
        timed(epoch, || Outcome::from_unit(mtl.translate(address, access).map(|_| ())))
    });
    let per_op = translations as f64 / log.len().max(1) as f64;

    // The front figure covers the same ops as the rungs below it; the
    // lifecycle ops' front spans stay in the span file.
    let logged: HashSet<u64> = log.iter().map(|&(id, _, _)| id).collect();
    let mut measured: Vec<Span> =
        front_spans.iter().filter(|s| logged.contains(&s.op)).copied().collect();
    measured.extend(spans.iter().copied());
    report.ladder(&measured, per_op);
    // Every logged op is a u64 op.
    report.metrics.set("mtl.translations_per_u64_op", per_op, "1/op");
    report.spans = front_spans;
    report.spans.extend(spans);
}
