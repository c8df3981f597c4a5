//! The wall-clock threaded runtime: real OS threads, real sleeps, real
//! concurrency — with a sharded, wait-free transport (DESIGN.md §10).
//!
//! Where [`SimRuntime`](crate::SimRuntime) sequences everything for
//! determinism and virtual time, `ThreadedRuntime` runs every user process
//! on its own preemptively scheduled thread and delivers messages through
//! N *delivery shards* that impose the configured network latency in
//! *wall time*. The same [`SysApi`] / [`ControlHandler`] / [`Actor`]
//! contracts apply, so `hope-core`'s entire algorithm — primitives,
//! Control, replay-based rollback — runs unmodified under genuine
//! parallelism.
//!
//! # Transport layout
//!
//! Earlier revisions funneled every send through one dispatcher thread
//! fed by a shared channel, with global mutexes around the routing table,
//! statistics, the reliable sublayer, crash windows and panic collection.
//! That funnel serialized the wall-clock fabric the paper's wait-freedom
//! discipline is supposed to extend to. The current layout removes every
//! hot-path lock that can contend:
//!
//! * **Shards.** Work items (deliveries, retransmit timers, crash/restart
//!   events) are routed by *destination* process id to one of N shard
//!   threads (`pid % N`). Each shard owns a local timer heap, the crash
//!   windows of its processes (plain shard-local `BTreeMap`, no lock) and
//!   a cached snapshot of the routing table.
//! * **Lanes.** Every sending thread (each process thread and each shard)
//!   owns a `Lane`: one wait-free SPSC ring per target shard
//!   ([`spsc`](crate::spsc), created lazily), its own seeded latency and
//!   fault models, and its own `MessageStats` that are merged only at
//!   report time. A send is therefore ring-push + doorbell, never a
//!   shared lock.
//! * **Mailboxes.** Each threaded process receives through a fixed-
//!   capacity SPSC ring whose single producer is the owning shard; a
//!   mutex-protected spill queue catches overflow while preserving FIFO.
//!   The receive path drains the ring in batches into a consumer-local
//!   staging queue where channel filtering happens lock-free.
//! * **Read-mostly state.** The routing table is a
//!   [`VersionedTable`](crate::shard::VersionedTable): an optimistic
//!   version-validated snapshot in the seqlock tradition, one atomic load
//!   per delivery when stable. The reliable sublayer is striped by link
//!   so unrelated links never contend, and panics land in per-process
//!   slots so a panicking process cannot poison or delay anything global.
//!
//! Use the simulator for experiments and reproducibility; use this
//! runtime to validate that nothing depends on the simulator's
//! cooperative scheduling — and, since the sharding, to measure how the
//! protocol scales with cores.

use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hope_types::{
    full_set_wire_len, Envelope, Payload, ProcessId, TraceEventKind, VirtualDuration, VirtualTime,
};

use crate::actor::{Actor, ActorApi};
use crate::control::{ControlApi, ControlHandler};
use crate::fault::{FaultModel, FaultPlan, WireFate};
use crate::net::{LatencyModel, NetworkConfig};
use crate::reliable::{
    backoff_nanos, check_decoded_tag, CopyKind, LinkId, ReliableState, TagCheck,
};
use crate::shard::{shard_of, Doorbell, TableReader, VersionedTable};
use crate::spsc;
use crate::stats::{MessageStats, PartyKind, RunReport};
use crate::sysapi::{mailbox_position, Received, SysApi};

/// Lock stripes for the reliable sublayer. All state for one link lives
/// in one stripe, so per-link operations contend only with links that
/// hash to the same stripe; crash handling visits every stripe (cold).
const REL_STRIPES: usize = 16;

/// Slots per lane→shard ingress ring. Ring-full sends overflow to the
/// shard's mutex-protected queue, so this bounds the fast path, not the
/// runtime's capacity.
const INGRESS_RING_CAPACITY: usize = 1024;

/// Default slots per process mailbox ring (see
/// [`ThreadedRuntimeBuilder::mailbox_capacity`]).
const DEFAULT_MAILBOX_CAPACITY: usize = 1024;

/// Park-time backstop: shards and processes never sleep longer than this
/// without re-checking the world, mirroring the old dispatcher cadence.
const PARK_BACKSTOP: Duration = Duration::from_millis(5);

/// What a scheduled shard work item does when it comes due.
enum Work {
    /// Deliver one envelope; `copy` is its provenance (accounting only).
    Deliver(Envelope, CopyKind),
    /// Reliable-sublayer retransmission timer for `(link, seq)`.
    Retransmit {
        link: LinkId,
        seq: u64,
        attempt: u32,
    },
    /// Take a process down until `up_at` (fault injection).
    Crash { pid: ProcessId, up_at: Instant },
    /// Bring a crashed process back up and run its recovery hook.
    Restart(ProcessId),
}

/// A shard work item scheduled for a wall-clock instant.
struct Scheduled {
    due: Instant,
    seq: u64,
    work: Work,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by due time; the global sequence number breaks ties in
        // schedule order, shard-count-independently.
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// [`ProcShared::wait`]: the process is not blocked.
const RUNNING: u8 = 0;
/// [`ProcShared::wait`]: blocked in a receive; new mail, a spill or a
/// control poke wakes it.
const WAITING_MAIL: u8 = 1;
/// [`ProcShared::wait`]: parked without consuming mail; only a control
/// poke wakes it.
const WAITING_POKE: u8 = 2;

/// Per-threaded-process shared state.
struct ProcShared {
    /// Producer end of the mailbox ring. Only the one shard that owns
    /// this pid ever pushes, so the mutex is uncontended by construction
    /// — it exists to satisfy the borrow checker, not to serialize.
    inbox: Mutex<spsc::Producer<Received>>,
    /// FIFO overflow for a full ring. Once `spilled` is set the producer
    /// keeps appending here (so order is preserved) until the consumer
    /// drains the queue and clears the flag under the same lock.
    spill: Mutex<VecDeque<Received>>,
    spilled: AtomicBool,
    bell: Doorbell,
    /// Set by control handlers requesting a wake; consumed by waiters.
    control_poke: AtomicBool,
    /// What the process is blocked on, if anything (for quiescence):
    /// [`RUNNING`], [`WAITING_MAIL`] or [`WAITING_POKE`].
    wait: AtomicU8,
    /// True once the process body returned.
    done: AtomicBool,
    /// The process's panic message, if its body panicked. Per-process so
    /// one panic can never poison or contend a runtime-global lock.
    panic: Mutex<Option<String>>,
    name: String,
}

impl ProcShared {
    /// Fresh state for a process named `name` with a mailbox ring of
    /// `capacity`, plus the ring's consumer end for the process itself.
    fn new(name: &str, capacity: usize) -> (Self, spsc::Consumer<Received>) {
        let (inbox, rx) = spsc::ring::<Received>(capacity);
        let shared = ProcShared {
            inbox: Mutex::new(inbox),
            spill: Mutex::new(VecDeque::new()),
            spilled: AtomicBool::new(false),
            bell: Doorbell::default(),
            control_poke: AtomicBool::new(false),
            wait: AtomicU8::new(RUNNING),
            done: AtomicBool::new(false),
            panic: Mutex::new(None),
            name: name.to_string(),
        };
        (shared, rx)
    }

    /// Appends one message, ring first, spill on overflow. Called only by
    /// the owning shard (the mailbox's single producer).
    fn push_mail(&self, item: Received) {
        if self.spilled.load(Ordering::Acquire) {
            let mut spill = self.spill.lock();
            // Re-check under the lock: the consumer may have drained the
            // spill (and cleared the flag) while we acquired it.
            if self.spilled.load(Ordering::Acquire) {
                spill.push_back(item);
                return;
            }
        }
        let item = {
            let mut inbox = self.inbox.lock();
            match inbox.push(item) {
                Ok(()) => return,
                Err(item) => item,
            }
        };
        let mut spill = self.spill.lock();
        spill.push_back(item);
        self.spilled.store(true, Ordering::Release);
    }

    /// True when the process has finished, or is blocked with nothing it
    /// waits for pending. A blocked process whose wake condition already
    /// holds has work it has not yet been scheduled to do, however long
    /// the OS keeps it descheduled, so it is not idle.
    fn is_quiet(&self) -> bool {
        if self.done.load(Ordering::Acquire) {
            return true;
        }
        let poked = self.control_poke.load(Ordering::Acquire);
        match self.wait.load(Ordering::Acquire) {
            WAITING_MAIL => {
                !poked && !self.spilled.load(Ordering::Acquire) && self.inbox.lock().is_empty()
            }
            WAITING_POKE => !poked,
            _ => false,
        }
    }
}

enum Slot {
    /// A garbage-collected actor: deliveries are dropped.
    Gone,
    Actor {
        #[allow(dead_code)] // kept for diagnostics/debugging
        name: String,
        actor: Mutex<Box<dyn Actor>>,
    },
    Threaded {
        shared: Arc<ProcShared>,
        control: Mutex<Option<Box<dyn ControlHandler>>>,
        join: Mutex<Option<std::thread::JoinHandle<()>>>,
    },
    /// An egress seam to another runtime: deliveries addressed to this
    /// pid are handed to the sink (e.g. a [`crate::NetTransport`] link to
    /// a remote node) instead of a local process. The inverse direction
    /// is [`ThreadedRuntime::inject`].
    Gateway {
        #[allow(dead_code)] // kept for diagnostics/debugging
        name: String,
        sink: Box<dyn Fn(Envelope) + Send + Sync>,
    },
}

/// The cross-thread face of one delivery shard: where lanes register
/// their ingress rings and park/overflow when a ring is full.
struct ShardHandle {
    /// Consumers registered by lanes, collected by the shard thread.
    ingress: Mutex<Vec<spsc::Consumer<Scheduled>>>,
    /// Bumped on each registration so the shard knows to collect.
    epoch: AtomicU64,
    /// Cold-path queue: ring-full overflow and pre-shard scheduling.
    overflow: Mutex<VecDeque<Scheduled>>,
    overflowed: AtomicBool,
    bell: Doorbell,
    join: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ShardHandle {
    fn new() -> Self {
        ShardHandle {
            ingress: Mutex::new(Vec::new()),
            epoch: AtomicU64::new(0),
            overflow: Mutex::new(VecDeque::new()),
            overflowed: AtomicBool::new(false),
            bell: Doorbell::default(),
            join: Mutex::new(None),
        }
    }
}

/// One sending thread's private view of the transport: its ingress rings
/// (one per shard, created on first use), its own seeded latency and
/// fault models, and its own statistics sink.
struct Lane {
    rings: Vec<Option<spsc::Producer<Scheduled>>>,
    latency: Box<dyn LatencyModel>,
    fault: Option<FaultModel>,
    /// This lane's share of the runtime statistics. The `Arc` is also
    /// registered with the runtime for report-time merging; the lock is
    /// effectively uncontended (the owner writes, reports read rarely).
    stats: Arc<Mutex<MessageStats>>,
}

impl Lane {
    /// Hands one work item to shard `ix`: wait-free ring push on the fast
    /// path, mutex overflow when the ring is full, then the doorbell.
    fn push(&mut self, shards: &[Arc<ShardHandle>], ix: usize, item: Scheduled) {
        let shard = &shards[ix];
        let slot = &mut self.rings[ix];
        if slot.is_none() {
            let (tx, rx) = spsc::ring(INGRESS_RING_CAPACITY);
            shard.ingress.lock().push(rx);
            shard.epoch.fetch_add(1, Ordering::Release);
            *slot = Some(tx);
        }
        match slot.as_mut().expect("ring created above").push(item) {
            Ok(()) => {}
            Err(item) => {
                // Order across the two paths is restored by the shard's
                // (due, seq) heap; the shard drains the overflow queue
                // before the rings each cycle (see shard_main) so an
                // overflow item and its ring-bound predecessors always
                // land in the same batch.
                let mut q = shard.overflow.lock();
                q.push_back(item);
                shard.overflowed.store(true, Ordering::Release);
            }
        }
        shard.bell.notify();
    }
}

/// A shard thread's private state.
struct ShardCtx {
    lane: Lane,
    reader: TableReader<Arc<Slot>>,
    /// Crash windows for the pids this shard owns: raw pid -> restart
    /// instant. Shard-local, so the hot-path down-check costs nothing.
    down: BTreeMap<u64, Instant>,
}

struct Inner {
    procs: VersionedTable<Arc<Slot>>,
    shards: Vec<Arc<ShardHandle>>,
    in_flight: AtomicU64,
    seq: AtomicU64,
    lane_ids: AtomicU64,
    lane_stats: Mutex<Vec<Arc<Mutex<MessageStats>>>>,
    /// Template cloned into each lane's latency model.
    network: NetworkConfig,
    /// Template cloned into each lane's fault model (when faults are on).
    fault_plan: Option<FaultPlan>,
    shutdown: AtomicBool,
    start: Instant,
    seed: u64,
    /// Reliable-delivery link state, striped by link; `None` when the
    /// sublayer is off.
    rel: Option<Vec<Mutex<ReliableState>>>,
    max_retransmits: u32,
    mailbox_capacity: usize,
    /// Causal-trace collector for wire events (disabled unless enabled by
    /// the owner; recording is a single atomic load when off).
    tracer: Arc<hope_types::TraceCollector>,
}

impl Inner {
    fn now(&self) -> VirtualTime {
        VirtualTime::from_nanos(self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64)
    }

    /// The reliable-state stripe owning `link`, when the sublayer is on.
    fn rel_stripe(&self, link: LinkId) -> Option<&Mutex<ReliableState>> {
        self.rel.as_ref().map(|stripes| {
            let h = link
                .0
                .as_raw()
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(link.1.as_raw().wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
            &stripes[(h % stripes.len() as u64) as usize]
        })
    }

    /// Creates a lane for one sending thread and registers its stats sink
    /// for report-time merging.
    fn new_lane(&self) -> Lane {
        let id = self.lane_ids.fetch_add(1, Ordering::Relaxed);
        let mix = id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let stats = Arc::new(Mutex::new(MessageStats::new()));
        self.lane_stats.lock().push(stats.clone());
        let fault = self.fault_plan.clone().map(|plan| {
            // Decorrelate the per-lane fate streams even when the plan
            // pinned its own seed, keeping the configured rates.
            let base = plan.pinned_seed().unwrap_or(self.seed);
            plan.seed(base ^ mix).into_model(self.seed)
        });
        Lane {
            rings: (0..self.shards.len()).map(|_| None).collect(),
            latency: self.network.clone().into_model(self.seed ^ mix),
            fault,
            stats,
        }
    }

    fn shard_for(&self, work: &Work) -> usize {
        let n = self.shards.len();
        match work {
            Work::Deliver(env, _) => shard_of(env.dst, n),
            Work::Retransmit { link, .. } => shard_of(link.1, n),
            Work::Crash { pid, .. } => shard_of(*pid, n),
            Work::Restart(pid) => shard_of(*pid, n),
        }
    }

    /// Hands one work item to its owning shard; `in_flight` counts every
    /// queued item (deliveries *and* timers) so quiescence waits for the
    /// reliable sublayer to settle.
    fn schedule(&self, lane: &mut Lane, due: Instant, work: Work) {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ix = self.shard_for(&work);
        lane.push(&self.shards, ix, Scheduled { due, seq, work });
    }

    /// Laneless scheduling for threads that never send in volume (the
    /// builder arming crash timers): straight to the overflow queue.
    fn schedule_external(&self, due: Instant, work: Work) {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[self.shard_for(&work)];
        shard
            .overflow
            .lock()
            .push_back(Scheduled { due, seq, work });
        shard.overflowed.store(true, Ordering::Release);
        shard.bell.notify();
    }

    fn send(&self, lane: &mut Lane, src: ProcessId, dst: ProcessId, payload: Payload) {
        if self.shutdown.load(Ordering::Acquire) {
            return;
        }
        let mut envelope = Envelope {
            src,
            dst,
            sent_at: self.now(),
            seq: 0,
            payload,
        };
        // Reliable sublayer: sequence, buffer for retransmission, arm the
        // first timer. Acks stay unsequenced and unbuffered. Only this
        // link's stripe is locked, and never across the schedule calls.
        if !matches!(envelope.payload, Payload::Ack { .. }) {
            if let Some(stripe) = self.rel_stripe((src, dst)) {
                let link: LinkId = (src, dst);
                let mut rel = stripe.lock();
                envelope.seq = rel.assign_seq(link);
                rel.track(envelope.clone());
                // Dependency tags travel delta-coded against the last set
                // acked on this link (see SimRuntime::schedule_send).
                let tag_accounting = match &envelope.payload {
                    Payload::User(m) => Some((
                        full_set_wire_len(&m.tag),
                        rel.encode_tag(link, envelope.seq, &m.tag),
                    )),
                    _ => None,
                };
                // First timer on the link's adapted RTO (configured rto
                // until round-trip samples arrive).
                let rto = Duration::from_nanos(rel.rto_for(link));
                drop(rel);
                if let Some((full, coding)) = tag_accounting {
                    lane.stats.lock().link_mut().record_tag(full, &coding);
                }
                self.schedule(
                    lane,
                    Instant::now() + rto,
                    Work::Retransmit {
                        link,
                        seq: envelope.seq,
                        attempt: 0,
                    },
                );
            }
        }
        if !matches!(envelope.payload, Payload::Ack { .. }) {
            self.tracer.record(
                src,
                envelope.sent_at,
                TraceEventKind::Send {
                    dst,
                    seq: envelope.seq,
                },
            );
        }
        self.transmit(lane, envelope, CopyKind::Original);
    }

    /// Puts one envelope on the wire: the lane's fault model first, then
    /// its latency model. A fault-injected extra copy is always tagged
    /// [`CopyKind::WireDup`].
    fn transmit(&self, lane: &mut Lane, envelope: Envelope, copy: CopyKind) {
        let fate = match lane.fault.as_mut() {
            Some(model) => model.wire_fate(),
            None => WireFate::CLEAN,
        };
        if !fate.deliver {
            lane.stats.lock().link_mut().fault_dropped += 1;
            return;
        }
        if fate.duplicate {
            let extra = lane.latency.sample(envelope.src, envelope.dst, self.now());
            lane.stats.lock().link_mut().duplicated += 1;
            self.schedule(
                lane,
                Instant::now() + Duration::from(extra),
                Work::Deliver(envelope.clone(), CopyKind::WireDup),
            );
        }
        let latency = lane.latency.sample(envelope.src, envelope.dst, self.now());
        self.schedule(
            lane,
            Instant::now() + Duration::from(latency),
            Work::Deliver(envelope, copy),
        );
    }

    /// Shard-side delivery of one due envelope.
    fn deliver(self: &Arc<Self>, sctx: &mut ShardCtx, envelope: Envelope, copy: CopyKind) {
        // Crashed destination: the wire is dead until restart. The crash
        // window lives on this shard (the destination's owner), so the
        // check is a local map lookup.
        if sctx.down.contains_key(&envelope.dst.as_raw()) {
            sctx.lane.stats.lock().link_mut().crash_dropped += 1;
            return;
        }
        // Link-layer ack: retire the retransmit buffer entry; never
        // delivered to a process.
        if let Payload::Ack { seq } = envelope.payload {
            sctx.lane.stats.lock().link_mut().acks += 1;
            if let Some(stripe) = self.rel_stripe((envelope.dst, envelope.src)) {
                let out = stripe.lock().acknowledge_at(
                    (envelope.dst, envelope.src),
                    seq,
                    self.now().as_nanos(),
                );
                if out.rtt_sample_nanos.is_some() {
                    // srtt_nanos is recomputed from the reliable stripes
                    // at report time; merging per-lane means would skew.
                    sctx.lane.stats.lock().link_mut().rtt_samples += 1;
                }
            }
            return;
        }
        // Reliable data envelope: ack every arrival, deliver only the
        // first copy.
        if envelope.seq > 0 {
            if let Some(stripe) = self.rel_stripe((envelope.src, envelope.dst)) {
                let first = stripe
                    .lock()
                    .accept((envelope.src, envelope.dst), envelope.seq);
                self.send(
                    &mut sctx.lane,
                    envelope.dst,
                    envelope.src,
                    Payload::Ack { seq: envelope.seq },
                );
                if !first {
                    sctx.lane.stats.lock().link_mut().record_dedup(copy);
                    return;
                }
                // Reconstruct the delta-coded dependency tag and check it
                // against the typed tag the in-memory envelope carries.
                // On divergence the typed tag is delivered, the mismatch
                // is counted and traced, and the link codec is forced back
                // to `Full` (see SimRuntime::deliver).
                if let Payload::User(m) = &envelope.payload {
                    let verdict = {
                        let mut rel = stripe.lock();
                        let verdict = check_decoded_tag(
                            rel.decode_tag((envelope.src, envelope.dst), envelope.seq),
                            &m.tag,
                        );
                        if verdict == TagCheck::Mismatch {
                            rel.force_tag_resync((envelope.src, envelope.dst));
                        }
                        verdict
                    };
                    match verdict {
                        TagCheck::Mismatch => {
                            sctx.lane.stats.lock().link_mut().tag_decode_mismatch += 1;
                            self.tracer.record(
                                envelope.dst,
                                self.now(),
                                TraceEventKind::TagDecodeMismatch {
                                    src: envelope.src,
                                    seq: envelope.seq,
                                },
                            );
                        }
                        TagCheck::LostBase => {
                            sctx.lane.stats.lock().link_mut().tag_resyncs += 1;
                        }
                        TagCheck::Ok => {}
                    }
                }
            }
        }
        let kind: &'static str = match &envelope.payload {
            Payload::User(_) => "User",
            Payload::Hope(m) => m.kind(),
            Payload::Ack { .. } => unreachable!("acks are consumed above"),
        };
        // One version-validated read covers routing and Table 1 party
        // classification for both endpoints.
        let (from, to, slot) = {
            let procs = sctx.reader.get(&self.procs);
            let pk = |pid: ProcessId| match procs.get(pid.as_raw() as usize).map(Arc::as_ref) {
                Some(Slot::Actor { .. }) => PartyKind::Aid,
                _ => PartyKind::User,
            };
            (
                pk(envelope.src),
                pk(envelope.dst),
                procs.get(envelope.dst.as_raw() as usize).cloned(),
            )
        };
        let Some(slot) = slot else {
            let mut stats = sctx.lane.stats.lock();
            stats.link_mut().unroutable += 1;
            stats.record_dropped();
            return;
        };
        sctx.lane.stats.lock().record(kind, from, to);
        self.tracer.record(
            envelope.dst,
            self.now(),
            TraceEventKind::Deliver {
                src: envelope.src,
                seq: envelope.seq,
            },
        );
        match slot.as_ref() {
            Slot::Gone => {
                sctx.lane.stats.lock().record_dropped();
            }
            Slot::Actor { actor, .. } => {
                let pid = envelope.dst;
                let stop = {
                    let mut api = DispatchApi {
                        inner: self,
                        lane: &mut sctx.lane,
                        pid,
                        wake: false,
                        stop: false,
                    };
                    actor.lock().on_message(envelope, &mut api);
                    api.stop
                };
                if stop {
                    self.procs.update(|procs| {
                        procs[pid.as_raw() as usize] = Arc::new(Slot::Gone);
                    });
                }
            }
            Slot::Threaded {
                shared, control, ..
            } => match envelope.payload {
                Payload::User(msg) => {
                    shared.push_mail(Received {
                        src: envelope.src,
                        msg,
                    });
                    shared.bell.notify();
                }
                Payload::Hope(hope) => {
                    let wake = {
                        let mut api = DispatchApi {
                            inner: self,
                            lane: &mut sctx.lane,
                            pid: envelope.dst,
                            wake: false,
                            stop: false,
                        };
                        if let Some(handler) = control.lock().as_mut() {
                            handler.on_hope_message(envelope.src, hope, &mut api);
                        } else {
                            api.lane.stats.lock().record_dropped();
                        }
                        api.wake
                    };
                    if wake {
                        shared.control_poke.store(true, Ordering::Release);
                        shared.bell.notify();
                    }
                }
                Payload::Ack { .. } => unreachable!("acks are consumed above"),
            },
            Slot::Gateway { sink, .. } => {
                sink(envelope);
            }
        }
    }

    /// Fault injection: take `pid` down until `up_at`. Runs on the shard
    /// that owns `pid`, which also performs all its deliveries, so the
    /// down window needs no synchronization.
    fn crash(self: &Arc<Self>, sctx: &mut ShardCtx, pid: ProcessId, up_at: Instant) {
        if sctx.down.insert(pid.as_raw(), up_at).is_some() {
            return; // overlapping crash windows merge
        }
        self.tracer.record(pid, self.now(), TraceEventKind::Crash);
        // Link layer: drop only genuinely-volatile state (RTT estimates,
        // tag-codec state); dedup windows and retransmit buffers survive.
        // A crash touches links in any stripe, so visit them all (cold
        // path; stripes are locked one at a time, never nested).
        if let Some(stripes) = self.rel.as_ref() {
            for stripe in stripes {
                stripe.lock().on_crash(pid);
            }
        }
        let slot = sctx
            .reader
            .get(&self.procs)
            .get(pid.as_raw() as usize)
            .cloned();
        if let Some(slot) = slot {
            if let Slot::Threaded { control, .. } = slot.as_ref() {
                let mut api = DispatchApi {
                    inner: self,
                    lane: &mut sctx.lane,
                    pid,
                    wake: false,
                    stop: false,
                };
                if let Some(handler) = control.lock().as_mut() {
                    handler.on_crash(&mut api);
                }
            }
        }
    }

    /// Fault injection: bring `pid` back up and run its recovery hook.
    fn restart(self: &Arc<Self>, sctx: &mut ShardCtx, pid: ProcessId) {
        if sctx.down.remove(&pid.as_raw()).is_none() {
            return;
        }
        self.tracer.record(pid, self.now(), TraceEventKind::Restart);
        let slot = sctx
            .reader
            .get(&self.procs)
            .get(pid.as_raw() as usize)
            .cloned();
        let Some(slot) = slot else { return };
        if let Slot::Threaded {
            shared, control, ..
        } = slot.as_ref()
        {
            let wake = {
                let mut api = DispatchApi {
                    inner: self,
                    lane: &mut sctx.lane,
                    pid,
                    wake: false,
                    stop: false,
                };
                if let Some(handler) = control.lock().as_mut() {
                    handler.on_restart(&mut api);
                }
                api.wake
            };
            if wake {
                shared.control_poke.store(true, Ordering::Release);
                shared.bell.notify();
            }
        }
    }

    /// Retransmission timer: resend if still unacked, rearm with doubled
    /// delay, abandon past the cap.
    fn retransmit(self: &Arc<Self>, sctx: &mut ShardCtx, link: LinkId, seq: u64, attempt: u32) {
        let Some(stripe) = self.rel_stripe(link) else {
            return;
        };
        let envelope = match stripe.lock().unacked(link, seq) {
            Some(env) => env.clone(),
            None => return, // acked in the meantime
        };
        if attempt >= self.max_retransmits {
            stripe.lock().abandon(link, seq);
            sctx.lane.stats.lock().link_mut().abandoned += 1;
            return;
        }
        let rto = {
            let mut rel = stripe.lock();
            rel.mark_retransmitted(link, seq);
            rel.rto_for(link)
        };
        {
            let mut stats = sctx.lane.stats.lock();
            let link_stats = stats.link_mut();
            link_stats.retransmits += 1;
            link_stats.max_retransmit_attempt =
                link_stats.max_retransmit_attempt.max((attempt + 1) as u64);
        }
        self.tracer.record(
            link.0,
            self.now(),
            TraceEventKind::Retransmit { dst: link.1, seq },
        );
        let next = attempt + 1;
        let delay = Duration::from_nanos(backoff_nanos(rto, next));
        self.schedule(
            &mut sctx.lane,
            Instant::now() + delay,
            Work::Retransmit {
                link,
                seq,
                attempt: next,
            },
        );
        self.transmit(&mut sctx.lane, envelope, CopyKind::Retransmit);
    }

    /// Merges every lane's statistics and recomputes the reliable-layer
    /// aggregate (mean SRTT) from the stripes, which own the truth.
    fn merged_stats(&self) -> MessageStats {
        let mut total = MessageStats::new();
        for lane in self.lane_stats.lock().iter() {
            total.merge(&lane.lock());
        }
        if let Some(stripes) = self.rel.as_ref() {
            let (mut sum, mut links) = (0u64, 0u64);
            for stripe in stripes {
                let (s, n) = stripe.lock().srtt_totals();
                sum = sum.saturating_add(s);
                links += n;
            }
            if let Some(mean) = sum.checked_div(links) {
                total.link_mut().srtt_nanos = mean;
            }
        }
        total
    }
}

/// One delivery shard's main loop: collect ingress, order by due time,
/// deliver in batches, park on the doorbell.
fn shard_main(inner: Arc<Inner>, ix: usize) {
    let handle = inner.shards[ix].clone();
    let lane = inner.new_lane();
    let mut sctx = ShardCtx {
        lane,
        reader: TableReader::new(),
        down: BTreeMap::new(),
    };
    let mut rings: Vec<spsc::Consumer<Scheduled>> = Vec::new();
    let mut epoch_seen = u64::MAX;
    let mut heap: BinaryHeap<Scheduled> = BinaryHeap::new();
    let mut batch: Vec<Scheduled> = Vec::new();
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            // Drain without delivering and settle the in-flight count.
            if handle.epoch.load(Ordering::Acquire) != epoch_seen {
                rings.append(&mut handle.ingress.lock());
            }
            let mut undelivered = heap.len() as u64;
            heap.clear();
            batch.clear();
            for ring in rings.iter_mut() {
                undelivered += ring.drain_into(&mut batch) as u64;
            }
            undelivered += handle.overflow.lock().drain(..).count() as u64;
            if undelivered > 0 {
                inner.in_flight.fetch_sub(undelivered, Ordering::AcqRel);
            }
            return;
        }
        // Drain the overflow queue FIRST, then sync and drain the ingress
        // rings, all into one batch. Order matters: an overflow item X
        // exists only because its lane's ring was full of X's
        // predecessors when X was pushed, so observing X through the
        // queue's mutex guarantees the *subsequent* epoch sync and ring
        // drain see every item older than X. They land in the same batch
        // and the (due, seq) heap restores global order. (Rings-first
        // raced: the lane could refill its ring and overflow between the
        // ring drain and the queue check, letting the overflow item jump
        // a whole ring's worth of predecessors.)
        batch.clear();
        if handle.overflowed.load(Ordering::Acquire) {
            let mut q = handle.overflow.lock();
            batch.extend(q.drain(..));
            handle.overflowed.store(false, Ordering::Release);
        }
        let epoch = handle.epoch.load(Ordering::Acquire);
        if epoch != epoch_seen {
            rings.append(&mut handle.ingress.lock());
            epoch_seen = epoch;
        }
        for ring in rings.iter_mut() {
            ring.drain_into(&mut batch);
        }
        let drained = batch.len();
        for item in batch.drain(..) {
            heap.push(item);
        }
        // Process everything due.
        let mut processed = 0u64;
        while let Some(next) = heap.peek() {
            if next.due > Instant::now() {
                break;
            }
            let item = heap.pop().expect("peeked");
            match item.work {
                Work::Deliver(envelope, copy) => inner.deliver(&mut sctx, envelope, copy),
                Work::Retransmit { link, seq, attempt } => {
                    inner.retransmit(&mut sctx, link, seq, attempt);
                }
                Work::Crash { pid, up_at } => inner.crash(&mut sctx, pid, up_at),
                Work::Restart(pid) => inner.restart(&mut sctx, pid),
            }
            processed += 1;
        }
        if processed > 0 {
            inner.in_flight.fetch_sub(processed, Ordering::AcqRel);
        }
        if processed > 0 || drained > 0 {
            continue; // deliveries often chain; look again before parking
        }
        let wait = match heap.peek() {
            Some(next) => next
                .due
                .saturating_duration_since(Instant::now())
                .min(PARK_BACKSTOP),
            None => PARK_BACKSTOP,
        };
        let rings = &mut rings;
        handle.bell.park_for(wait, || {
            rings.iter_mut().any(|r| !r.is_empty())
                || handle.overflowed.load(Ordering::Acquire)
                || handle.epoch.load(Ordering::Acquire) != epoch_seen
                || inner.shutdown.load(Ordering::Acquire)
        });
    }
}

/// ActorApi/ControlApi used by the shard threads.
struct DispatchApi<'a> {
    inner: &'a Arc<Inner>,
    lane: &'a mut Lane,
    pid: ProcessId,
    wake: bool,
    stop: bool,
}

impl ActorApi for DispatchApi<'_> {
    fn pid(&self) -> ProcessId {
        self.pid
    }
    fn now(&self) -> VirtualTime {
        self.inner.now()
    }
    fn send(&mut self, dst: ProcessId, payload: Payload) {
        self.inner.send(self.lane, self.pid, dst, payload);
    }
    fn stop(&mut self) {
        self.stop = true;
    }
}

impl ControlApi for DispatchApi<'_> {
    fn pid(&self) -> ProcessId {
        self.pid
    }
    fn now(&self) -> VirtualTime {
        self.inner.now()
    }
    fn send(&mut self, dst: ProcessId, payload: Payload) {
        self.inner.send(self.lane, self.pid, dst, payload);
    }
    fn wake(&mut self) {
        self.wake = true;
    }
}

/// The [`SysApi`] handed to bodies running on the threaded runtime. Owns
/// the consumer end of the process's mailbox ring and a staging queue
/// where channel-filtered receive scans run without any lock.
struct ThreadedCtx {
    pid: ProcessId,
    inner: Arc<Inner>,
    shared: Arc<ProcShared>,
    lane: Lane,
    rx: spsc::Consumer<Received>,
    staging: VecDeque<Received>,
    scratch: Vec<Received>,
    rng: StdRng,
}

impl ThreadedCtx {
    /// Moves everything currently deliverable into the staging queue:
    /// the ring in one batched drain, then (under the spill lock, where
    /// the producer cannot be mid-overflow) the ring again and the spill.
    fn pump(&mut self) {
        self.rx.drain_into(&mut self.scratch);
        self.staging.extend(self.scratch.drain(..));
        if self.shared.spilled.load(Ordering::Acquire) {
            let mut spill = self.shared.spill.lock();
            // The producer may have refilled the ring *and* spilled
            // between the drain above and this lock. While `spilled` is
            // set the producer never touches the ring, so under the lock
            // every ring message is older than every spill message:
            // re-drain the ring first and FIFO is preserved.
            self.rx.drain_into(&mut self.scratch);
            self.staging.extend(self.scratch.drain(..));
            self.staging.extend(spill.drain(..));
            self.shared.spilled.store(false, Ordering::Release);
        }
    }

    /// Parks on the process doorbell until something notable happens or
    /// the poll backstop elapses (callers re-check their predicates on
    /// every wake).
    fn doze(&mut self) {
        let rx = &mut self.rx;
        let shared = &self.shared;
        shared.wait.store(WAITING_MAIL, Ordering::Release);
        shared.bell.park_for(PARK_BACKSTOP, || {
            !rx.is_empty()
                || shared.spilled.load(Ordering::Acquire)
                || shared.control_poke.load(Ordering::Acquire)
        });
        shared.wait.store(RUNNING, Ordering::Release);
    }
}

impl SysApi for ThreadedCtx {
    fn pid(&self) -> ProcessId {
        self.pid
    }

    fn now(&mut self) -> VirtualTime {
        self.inner.now()
    }

    fn send(&mut self, dst: ProcessId, payload: Payload) {
        self.inner.send(&mut self.lane, self.pid, dst, payload);
    }

    fn receive(
        &mut self,
        channel: Option<u32>,
        interrupt: &mut dyn FnMut() -> bool,
    ) -> Option<Received> {
        loop {
            if interrupt() {
                return None;
            }
            if self.inner.shutdown.load(Ordering::Acquire) {
                return None;
            }
            self.shared.control_poke.store(false, Ordering::Release);
            self.pump();
            if let Some(pos) = mailbox_position(&self.staging, channel) {
                return self.staging.remove(pos);
            }
            if interrupt() {
                return None;
            }
            self.doze();
        }
    }

    fn try_receive(&mut self, channel: Option<u32>) -> Option<Received> {
        self.pump();
        let pos = mailbox_position(&self.staging, channel)?;
        self.staging.remove(pos)
    }

    fn requeue_front(&mut self, items: Vec<Received>) {
        for item in items.into_iter().rev() {
            self.staging.push_front(item);
        }
    }

    fn park(&mut self, interrupt: &mut dyn FnMut() -> bool) -> bool {
        loop {
            if interrupt() {
                return true;
            }
            if self.inner.shutdown.load(Ordering::Acquire) {
                return false;
            }
            self.shared.control_poke.store(false, Ordering::Release);
            if interrupt() {
                return true;
            }
            // Park without consuming mail: only a control poke (or the
            // backstop) ends the nap early.
            let shared = &self.shared;
            shared.wait.store(WAITING_POKE, Ordering::Release);
            shared.bell.park_for(PARK_BACKSTOP, || {
                shared.control_poke.load(Ordering::Acquire)
            });
            shared.wait.store(RUNNING, Ordering::Release);
        }
    }

    fn compute(&mut self, dur: VirtualDuration) {
        std::thread::sleep(Duration::from(dur));
    }

    fn spawn_actor(&mut self, name: &str, actor: Box<dyn Actor>) -> ProcessId {
        ThreadedRuntime::register_actor(&self.inner, name, actor)
    }

    fn spawn_threaded(
        &mut self,
        name: &str,
        control: Option<Box<dyn ControlHandler>>,
        body: crate::sysapi::ProcessBody,
    ) -> ProcessId {
        ThreadedRuntime::register_threaded(&self.inner, name, control, body)
    }

    fn random_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

/// Configuration for [`ThreadedRuntime`].
#[derive(Debug)]
pub struct ThreadedRuntimeBuilder {
    seed: u64,
    network: NetworkConfig,
    faults: Option<FaultPlan>,
    reliable: bool,
    shards: Option<usize>,
    mailbox_capacity: usize,
    tracer: Option<Arc<hope_types::TraceCollector>>,
}

impl Default for ThreadedRuntimeBuilder {
    fn default() -> Self {
        ThreadedRuntimeBuilder {
            seed: 0,
            network: NetworkConfig::local(),
            faults: None,
            reliable: false,
            shards: None,
            mailbox_capacity: DEFAULT_MAILBOX_CAPACITY,
            tracer: None,
        }
    }
}

impl ThreadedRuntimeBuilder {
    /// Seed for per-process RNGs and stochastic latency models.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Network latency applied in wall time (keep it small in tests).
    pub fn network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Injects faults per `plan` and enables the reliable-delivery
    /// sublayer. Crash times are virtual times interpreted as wall-clock
    /// offsets from runtime start; the fault *decisions* are seeded and
    /// deterministic, though wall-clock scheduling means the affected
    /// messages differ run to run. Keep the plan's
    /// [`rto`](FaultPlan::rto) small here (it is waited in real time).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Forces the reliable-delivery sublayer on with a lossless wire.
    pub fn reliable(mut self, on: bool) -> Self {
        self.reliable = on;
        self
    }

    /// Number of delivery shards (DESIGN.md §10). Defaults to the
    /// machine's available parallelism. Outcomes are shard-count
    /// independent (processes are partitioned by pid and each link's
    /// traffic stays on one shard); only wall-clock throughput changes.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = Some(n.max(1));
        self
    }

    /// Slots in each process's mailbox ring (rounded up to a power of
    /// two). Overflow falls back to a spill queue — delivery is never
    /// lost, just no longer wait-free — so small values are safe and
    /// useful for backpressure tests.
    pub fn mailbox_capacity(mut self, capacity: usize) -> Self {
        self.mailbox_capacity = capacity.max(2);
        self
    }

    /// Shares a causal-trace collector with the runtime: wire events
    /// (send/deliver/retransmit/crash/restart, tag decode mismatches) are
    /// recorded into it when it is enabled.
    pub fn tracer(mut self, tracer: Arc<hope_types::TraceCollector>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Builds and starts the runtime (the shard threads run immediately;
    /// processes run as soon as they are spawned).
    /// # Panics
    ///
    /// Panics with the typed `HopeError::InvalidFaultPlan` rendering if
    /// the fault plan fails [`FaultPlan::validate`].
    pub fn build(self) -> ThreadedRuntime {
        if let Some(plan) = &self.faults {
            if let Err(err) = plan.validate() {
                panic!("{err}");
            }
        }
        let reliable = self.reliable || self.faults.is_some();
        let (rto, max_retransmits) = self
            .faults
            .as_ref()
            .map(|p| (Duration::from(p.retransmit_timeout()), p.retransmit_cap()))
            .unwrap_or_else(|| {
                let d = FaultPlan::default();
                (Duration::from(d.retransmit_timeout()), d.retransmit_cap())
            });
        let start = Instant::now();
        let crashes: Vec<_> = self
            .faults
            .as_ref()
            .map(|p| p.crashes().to_vec())
            .unwrap_or_default();
        let nshards = self
            .shards
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .max(1);
        let rto_nanos = rto.as_nanos().min(u64::MAX as u128) as u64;
        let inner = Arc::new(Inner {
            procs: VersionedTable::new(),
            shards: (0..nshards).map(|_| Arc::new(ShardHandle::new())).collect(),
            in_flight: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            lane_ids: AtomicU64::new(0),
            lane_stats: Mutex::new(Vec::new()),
            network: self.network,
            fault_plan: self.faults,
            shutdown: AtomicBool::new(false),
            start,
            seed: self.seed,
            rel: reliable.then(|| {
                (0..REL_STRIPES)
                    .map(|_| Mutex::new(ReliableState::with_rto(rto_nanos)))
                    .collect()
            }),
            max_retransmits,
            mailbox_capacity: self.mailbox_capacity,
            tracer: self.tracer.unwrap_or_default(),
        });
        for ix in 0..nshards {
            let shard_inner = inner.clone();
            let handle = std::thread::Builder::new()
                .name(format!("hope-shard-{ix}"))
                .spawn(move || shard_main(shard_inner, ix))
                .expect("failed to spawn shard");
            *inner.shards[ix].join.lock() = Some(handle);
        }
        for c in &crashes {
            let at = start + Duration::from_nanos(c.at.as_nanos());
            let up_at = at + Duration::from(c.down_for);
            inner.schedule_external(at, Work::Crash { pid: c.pid, up_at });
            inner.schedule_external(up_at, Work::Restart(c.pid));
        }
        ThreadedRuntime { inner }
    }
}

/// The wall-clock runtime: see the type-level discussion at the top of
/// this file's documentation in the crate docs.
pub struct ThreadedRuntime {
    inner: Arc<Inner>,
}

impl ThreadedRuntime {
    /// Starts configuring a runtime.
    pub fn builder() -> ThreadedRuntimeBuilder {
        ThreadedRuntimeBuilder::default()
    }

    /// Wall-clock time since the runtime started, as virtual time.
    pub fn now(&self) -> VirtualTime {
        self.inner.now()
    }

    /// The number of delivery shards this runtime runs.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    fn register_actor(inner: &Arc<Inner>, name: &str, actor: Box<dyn Actor>) -> ProcessId {
        let slot = Arc::new(Slot::Actor {
            name: name.to_string(),
            actor: Mutex::new(actor),
        });
        inner.procs.update(move |procs| {
            let pid = ProcessId::from_raw(procs.len() as u64);
            procs.push(slot);
            pid
        })
    }

    fn register_threaded(
        inner: &Arc<Inner>,
        name: &str,
        control: Option<Box<dyn ControlHandler>>,
        body: crate::sysapi::ProcessBody,
    ) -> ProcessId {
        let (shared, rx) = ProcShared::new(name, inner.mailbox_capacity);
        let shared = Arc::new(shared);
        let slot = Arc::new(Slot::Threaded {
            shared: shared.clone(),
            control: Mutex::new(control),
            join: Mutex::new(None),
        });
        let reg = slot.clone();
        let pid = inner.procs.update(move |procs| {
            let pid = ProcessId::from_raw(procs.len() as u64);
            procs.push(reg);
            pid
        });
        // The lane is created on the spawning thread so lane ids (and
        // with them the per-lane seeds) are deterministic for any
        // deterministic spawn sequence.
        let lane = inner.new_lane();
        let thread_inner = inner.clone();
        let thread_shared = shared;
        let handle = std::thread::Builder::new()
            .name(format!("hope-rt-{}-{}", pid.as_raw(), name))
            .spawn(move || {
                let mut ctx = ThreadedCtx {
                    pid,
                    inner: thread_inner.clone(),
                    shared: thread_shared.clone(),
                    lane,
                    rx,
                    staging: VecDeque::new(),
                    scratch: Vec::new(),
                    rng: StdRng::seed_from_u64(
                        thread_inner.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ pid.as_raw(),
                    ),
                };
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut ctx)));
                if let Err(payload) = result {
                    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                        (*s).to_string()
                    } else if let Some(s) = payload.downcast_ref::<String>() {
                        s.clone()
                    } else {
                        "non-string panic payload".to_string()
                    };
                    *thread_shared.panic.lock() = Some(msg);
                }
                thread_shared.done.store(true, Ordering::Release);
            })
            .expect("failed to spawn process thread");
        if let Slot::Threaded { join, .. } = slot.as_ref() {
            *join.lock() = Some(handle);
        }
        pid
    }

    /// Spawns an event-driven actor process.
    pub fn spawn_actor(&self, name: &str, actor: Box<dyn Actor>) -> ProcessId {
        Self::register_actor(&self.inner, name, actor)
    }

    /// Registers an egress gateway: a local pid whose deliveries are
    /// handed to `sink` instead of a process — the seam a network
    /// transport plugs into to represent a remote peer. Sends to the
    /// returned pid traverse the full local fabric (lanes, shards,
    /// latency/fault models, reliable sublayer) before reaching the sink.
    pub fn register_gateway(
        &self,
        name: &str,
        sink: impl Fn(Envelope) + Send + Sync + 'static,
    ) -> ProcessId {
        let slot = Arc::new(Slot::Gateway {
            name: name.to_string(),
            sink: Box::new(sink),
        });
        self.inner.procs.update(move |procs| {
            let pid = ProcessId::from_raw(procs.len() as u64);
            procs.push(slot);
            pid
        })
    }

    /// Injects an externally-originated envelope (e.g. one received from
    /// a remote node by a [`crate::NetTransport`]) into the local fabric
    /// for delivery to `envelope.dst`. The transport below already
    /// guarantees exactly-once in-order arrival, so the envelope enters
    /// with the reliable sublayer disabled (`seq` forced to 0) and is
    /// delivered like any local original.
    pub fn inject(&self, envelope: Envelope) {
        let mut envelope = envelope;
        envelope.seq = 0;
        self.inner
            .schedule_external(Instant::now(), Work::Deliver(envelope, CopyKind::Original));
    }

    /// Spawns a threaded user process; its body starts running at once.
    pub fn spawn_threaded<F>(
        &self,
        name: &str,
        control: Option<Box<dyn ControlHandler>>,
        body: F,
    ) -> ProcessId
    where
        F: FnOnce(&mut dyn SysApi) + Send + 'static,
    {
        Self::register_threaded(&self.inner, name, control, Box::new(body))
    }

    /// Waits (wall clock) until the system has been quiescent — no
    /// messages in flight and every process finished or blocked with
    /// nothing pending that would wake it — for `grace`, or until
    /// `timeout` elapses. Returns the run report.
    pub fn run_until_quiescent(&self, grace: Duration, timeout: Duration) -> RunReport {
        let deadline = Instant::now() + timeout;
        let mut quiet_since: Option<Instant> = None;
        let mut hit_timeout = true;
        while Instant::now() < deadline {
            let in_flight = self.inner.in_flight.load(Ordering::Acquire);
            let procs = self.inner.procs.snapshot();
            let all_idle = procs.iter().all(|slot| match slot.as_ref() {
                Slot::Gone | Slot::Actor { .. } | Slot::Gateway { .. } => true,
                Slot::Threaded { shared, .. } => shared.is_quiet(),
            });
            if in_flight == 0 && all_idle {
                let since = *quiet_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= grace {
                    hit_timeout = false;
                    break;
                }
            } else {
                quiet_since = None;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let procs = self.inner.procs.snapshot();
        let blocked = procs
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot.as_ref() {
                Slot::Threaded { shared, .. } if !shared.done.load(Ordering::Acquire) => {
                    Some((ProcessId::from_raw(i as u64), shared.name.clone()))
                }
                _ => None,
            })
            .collect();
        let panics = procs
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot.as_ref() {
                Slot::Threaded { shared, .. } => shared
                    .panic
                    .lock()
                    .clone()
                    .map(|msg| (ProcessId::from_raw(i as u64), msg)),
                _ => None,
            })
            .collect();
        RunReport {
            now: self.inner.now(),
            events: self.inner.seq.load(Ordering::Relaxed),
            blocked,
            panics,
            stats: self.inner.merged_stats(),
            hit_event_limit: hit_timeout,
            attribution: Default::default(),
            cancelled_intervals: 0,
        }
    }

    /// Message statistics so far (all lanes merged).
    pub fn stats(&self) -> MessageStats {
        self.inner.merged_stats()
    }

    /// The shared causal-trace collector (always present; disabled unless
    /// [`hope_types::TraceCollector::enable`]d).
    pub fn tracer(&self) -> Arc<hope_types::TraceCollector> {
        self.inner.tracer.clone()
    }
}

impl Drop for ThreadedRuntime {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // Wake every shard and every parked process so they observe the
        // shutdown.
        for shard in &self.inner.shards {
            shard.bell.notify();
        }
        {
            let procs = self.inner.procs.snapshot();
            for slot in procs.iter() {
                if let Slot::Threaded { shared, .. } = slot.as_ref() {
                    shared.control_poke.store(true, Ordering::Release);
                    shared.bell.notify();
                }
            }
        }
        for shard in &self.inner.shards {
            if let Some(handle) = shard.join.lock().take() {
                let _ = handle.join();
            }
        }
        let joins: Vec<std::thread::JoinHandle<()>> = {
            let procs = self.inner.procs.snapshot();
            procs
                .iter()
                .filter_map(|slot| match slot.as_ref() {
                    Slot::Threaded { join, .. } => join.lock().take(),
                    _ => None,
                })
                .collect()
        };
        for handle in joins {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use hope_types::UserMessage;

    /// A process that committed to waiting for mail and was then
    /// descheduled: it has no thread, so nothing ever drains its ring.
    fn descheduled_receiver(rt: &ThreadedRuntime) -> (ProcessId, spsc::Consumer<Received>) {
        let (shared, rx) = ProcShared::new("receiver", rt.inner.mailbox_capacity);
        shared.wait.store(WAITING_MAIL, Ordering::Release);
        let slot = Arc::new(Slot::Threaded {
            shared: Arc::new(shared),
            control: Mutex::new(None),
            join: Mutex::new(None),
        });
        let pid = rt.inner.procs.update(move |procs| {
            let pid = ProcessId::from_raw(procs.len() as u64);
            procs.push(slot);
            pid
        });
        (pid, rx)
    }

    #[test]
    fn mail_waiting_for_a_descheduled_receiver_is_not_quiescence() {
        let rt = ThreadedRuntime::builder().build();
        let (receiver, _rx) = descheduled_receiver(&rt);
        rt.spawn_threaded("sender", None, move |ctx| {
            ctx.send(
                receiver,
                Payload::User(UserMessage::new(0, Bytes::from_static(b"work"))),
            );
        });
        // Everything is delivered and the sender is done well inside the
        // timeout; only the receiver's undrained ring keeps the run live.
        let report = rt.run_until_quiescent(Duration::from_millis(10), Duration::from_millis(300));
        assert!(
            report.hit_event_limit,
            "a receiver with mail in its ring is not idle"
        );
        assert_eq!(report.blocked.len(), 1, "{:?}", report.blocked);
    }

    #[test]
    fn control_poke_pending_for_a_parked_process_is_not_quiescence() {
        let (shared, _rx) = ProcShared::new("parked", 4);
        shared.wait.store(WAITING_POKE, Ordering::Release);
        assert!(shared.is_quiet(), "parked with nothing pending");
        shared.push_mail(Received {
            src: ProcessId::from_raw(0),
            msg: UserMessage::new(0, Bytes::new()),
        });
        assert!(shared.is_quiet(), "mail does not wake a parked process");
        shared.control_poke.store(true, Ordering::Release);
        assert!(!shared.is_quiet(), "a pending poke does");
        shared.wait.store(RUNNING, Ordering::Release);
        shared.control_poke.store(false, Ordering::Release);
        assert!(!shared.is_quiet(), "a running process is never idle");
    }
}
