//! Measurement taken from outside the program: spans and samples recorded
//! by the benchmark's own code around each call it makes into the HOPE
//! public API, and the per-layer accounting computed from them.
//!
//! Every process body opens a [`Body`] and routes its library calls
//! through [`Body::call`]. A call made while `ctx.is_replaying()` pushes no
//! latency sample: re-execution after a rollback re-runs the body, and its
//! replayed calls would count twice. Their wall time goes to the replay
//! layer instead.
//!
//! Spans are recorded only in traced iterations. Each body keeps its spans
//! in a local buffer and hands them to the shared [`Probe`] when it ends
//! (also when it unwinds into a rollback), so recording takes no lock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hope_core::ProcessCtx;

/// One timed interval: a process body, a call into a layer, or a whole
/// `env.run()`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u64,
    /// The request (message, round or round trip) the span served.
    pub req: u64,
    /// The body (or main thread, 0) that recorded it.
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span name of a process body execution.
pub const BODY: &str = "user.body";
/// Span name of a call made while the body was replaying its log.
pub const REPLAY: &str = "replay.call";
/// Span name of one `HopeEnv::run`.
pub const SIM_RUN: &str = "sim.run";
/// Calls whose span is mostly time spent waiting: for a message, for
/// assumptions to resolve, or (on the simulator) for the scheduler to
/// advance virtual time.
pub const WAITS: [&str; 3] = ["core.receive", "core.await_definite", "core.compute"];

/// Shared by the bodies and the main thread of one iteration.
pub struct Probe {
    pub traced: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    samples: Mutex<BTreeMap<&'static str, Vec<u64>>>,
    replay_ns: AtomicU64,
}

impl Probe {
    pub fn new(traced: bool) -> Arc<Probe> {
        Arc::new(Probe {
            traced,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            samples: Mutex::new(BTreeMap::new()),
            replay_ns: AtomicU64::new(0),
        })
    }

    /// Nanoseconds since the probe was made; the clock every span, stamp
    /// and sample of one iteration shares.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Hands over spans recorded outside a [`Body`].
    pub fn push_spans(&self, mut spans: Vec<Span>) {
        self.spans.lock().expect("span lock").append(&mut spans);
    }

    /// Records a root span from the main thread (traced iterations only).
    pub fn root_span(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.traced {
            let id = self.id();
            self.spans.lock().expect("span lock").push(Span {
                name,
                id,
                parent: 0,
                req: 0,
                tid: 0,
                start_ns,
                end_ns,
            });
        }
    }

    pub fn take_samples(&self, name: &str) -> Vec<u64> {
        self.samples
            .lock()
            .expect("sample lock")
            .remove(name)
            .unwrap_or_default()
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span lock"))
    }

    pub fn replay_ns(&self) -> u64 {
        self.replay_ns.load(Ordering::Relaxed)
    }
}

/// The timer of one execution of one process body.
pub struct Body {
    probe: Arc<Probe>,
    id: u64,
    tid: u64,
    start_ns: u64,
    /// End of the previous call: body time from here to the end of a
    /// replayed call is replay time.
    mark_ns: u64,
    replay_ns: u64,
    last_call_ns: u64,
    spans: Vec<Span>,
    samples: Vec<(&'static str, u64)>,
}

impl Body {
    pub fn open(probe: &Arc<Probe>, tid: u64) -> Body {
        let now = probe.now();
        Body {
            id: probe.id(),
            probe: Arc::clone(probe),
            tid,
            start_ns: now,
            mark_ns: now,
            replay_ns: 0,
            last_call_ns: 0,
            spans: Vec::new(),
            samples: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.probe.now()
    }

    /// Times one library call. Returns its result and, when the call ran
    /// live rather than from the replay log, its wall duration. A call
    /// that unwinds into a rollback still records its span.
    pub fn call<'c, T>(
        &mut self,
        ctx: &mut ProcessCtx<'c>,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut ProcessCtx<'c>) -> T,
    ) -> (T, Option<u64>) {
        let replaying = ctx.is_replaying();
        let out = {
            let start_ns = self.probe.now();
            let _open = OpenCall {
                body: self,
                name: if replaying { REPLAY } else { name },
                req,
                start_ns,
                replaying,
            };
            f(ctx)
        };
        (out, (!replaying).then_some(self.last_call_ns))
    }

    /// Keeps a latency sample; callers pass only live measurements.
    pub fn sample(&mut self, name: &'static str, value: u64) {
        self.samples.push((name, value));
    }
}

/// A call in progress; dropping it, on return or on unwind, ends the call.
struct OpenCall<'b> {
    body: &'b mut Body,
    name: &'static str,
    req: u64,
    start_ns: u64,
    replaying: bool,
}

impl Drop for OpenCall<'_> {
    fn drop(&mut self) {
        let b = &mut *self.body;
        let end_ns = b.probe.now();
        if self.replaying {
            b.replay_ns += end_ns - b.mark_ns;
        }
        b.mark_ns = end_ns;
        b.last_call_ns = end_ns - self.start_ns;
        if b.probe.traced {
            b.spans.push(Span {
                name: self.name,
                id: b.probe.id(),
                parent: b.id,
                req: self.req,
                tid: b.tid,
                start_ns: self.start_ns,
                end_ns,
            });
        }
    }
}

impl Drop for Body {
    fn drop(&mut self) {
        let end_ns = self.probe.now();
        self.probe
            .replay_ns
            .fetch_add(self.replay_ns, Ordering::Relaxed);
        if self.probe.traced {
            self.spans.push(Span {
                name: BODY,
                id: self.id,
                parent: 0,
                req: 0,
                tid: self.tid,
                start_ns: self.start_ns,
                end_ns,
            });
            let mut spans = self.probe.spans.lock().unwrap_or_else(|e| e.into_inner());
            spans.append(&mut self.spans);
        }
        if !self.samples.is_empty() {
            let mut samples = self.probe.samples.lock().unwrap_or_else(|e| e.into_inner());
            for (name, value) in self.samples.drain(..) {
                samples.entry(name).or_default().push(value);
            }
        }
    }
}

/// Busy time and call count per span name, plus the derived self times.
#[derive(Debug, Default)]
pub struct SpanTotals {
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Body time not covered by the body's own calls.
    pub user_self_ns: u64,
    /// `env.run()` time not covered by any process's running time (body
    /// time outside its waiting calls).
    pub sim_self_ns: u64,
}

impl SpanTotals {
    pub fn of(spans: &[Span]) -> SpanTotals {
        let mut t = SpanTotals::default();
        let (mut body, mut child, mut wait, mut run) = (0u64, 0u64, 0u64, 0u64);
        for s in spans {
            let entry = t.by_name.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += s.dur();
            match s.name {
                BODY => body += s.dur(),
                SIM_RUN => run += s.dur(),
                name => {
                    child += s.dur();
                    if WAITS.contains(&name) {
                        wait += s.dur();
                    }
                }
            }
        }
        t.user_self_ns = body.saturating_sub(child);
        if run > 0 {
            t.sim_self_ns = run.saturating_sub(body.saturating_sub(wait));
        }
        t
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.0)
    }

    pub fn busy_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.1)
    }
}

/// Renders spans as Chrome trace-event JSON (complete `X` events, times
/// in microseconds), the format `hope-sim::trace_export` writes for the
/// library's own causal trace.
pub fn chrome_trace(workload: &str, spans: &[Span], dropped: usize) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let cat = s.name.split('.').next().unwrap_or(s.name);
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            cat,
            s.start_ns as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.tid,
            s.id,
            s.parent,
            s.req,
        );
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"workload\":\"{workload}\",\
         \"spans_not_written\":{dropped}}}}}\n"
    );
    out
}

/// The `p`-th percentile (nearest rank) of `values`; 0 when empty.
pub fn percentile(values: &[u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let ix = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[ix.min(sorted.len() - 1)]
}

pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}
