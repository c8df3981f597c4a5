//! E-perf: end-to-end throughput of the optimistic fast path, and the
//! second half of the committed perf baseline (`BENCH_throughput.json`).
//!
//! One producer streams user messages to one consumer over a reliable
//! LAN link while stacking speculative guesses, so every message
//! piggybacks a growing dependency tag and the per-link delta codec is
//! exercised end to end; the consumer then affirms every assumption.
//! The bin reports:
//!
//! * user-message throughput in wall and virtual time,
//! * bytes the dependency tags would cost verbatim vs. what the delta
//!   coding actually puts on the wire,
//! * `Guess` registrations (linear in depth under delta registration),
//! * p50/p99 latency of the `guess`/`affirm` primitives in both clocks —
//!   the wait-free claim is that the *virtual* cost is zero, and the
//!   wall numbers price the implementation itself.
//!
//! A second table sweeps the stream length from 1k to 16k messages by
//! doubling and fits the growth exponents of two deterministic work
//! counters and of wall time:
//!
//! * `history_records_visited` (interval-history records the HOPE library
//!   examined) must grow linearly — a per-receive scan of the history made
//!   this workload quadratic until the history was indexed — so under
//!   `HOPE_BENCH_CHECK=1` its exponent is gated at 1.2;
//! * `history_substitutions` (`Replace` substitutions computed) must stay
//!   flat — one per run of intervals sharing their dependency sets, not
//!   one per holder, whose count grows with the stream — so its exponent
//!   is gated at 0.5 (DESIGN.md S7).
//!
//! The wall exponent is printed, never gated.
//!
//! With `HOPE_TRACE=1` the workload runs a second time with the causal
//! tracer enabled and the bin checks the tracing overhead budget: the
//! deterministic outcome (virtual clock, message counts, tag bytes) must
//! be **identical** — tracing is pure observation — and the wall-clock
//! slowdown is printed (informational; gated at <5% only when
//! `HOPE_BENCH_CHECK=1`, since wall time is machine-dependent).
//!
//! Deterministic metrics (counts, bytes) are gated by CI's perf-smoke
//! job at 2x; wall-clock figures are recorded for humans, never gated.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use hope_bench::baseline;
use hope_core::{HopeEnv, HopeReport};
use hope_runtime::NetworkConfig;
use hope_sim::json::Value;
use hope_types::{AidId, ProcessId, VirtualDuration};

const MESSAGES: u64 = 2_000;
const DEPTH: u32 = 32;
const SEED: u64 = 7;
/// Stream lengths of the growth sweep (the headline run is one of them).
const SWEEP: [u64; 5] = [1_000, 2_000, 4_000, 8_000, 16_000];
/// Ceiling on the fitted growth exponent of `history_records_visited`.
const WORK_EXPONENT_CEILING: f64 = 1.2;
/// Ceiling on the fitted growth exponent of `history_substitutions`.
const SUBSTITUTION_EXPONENT_CEILING: f64 = 0.5;

fn encode_aids(aids: &[AidId]) -> Bytes {
    let mut out = Vec::with_capacity(aids.len() * 8);
    for aid in aids {
        out.extend_from_slice(&aid.process().as_raw().to_le_bytes());
    }
    Bytes::from(out)
}

fn decode_aids(data: &[u8]) -> Vec<AidId> {
    data.chunks_exact(8)
        .map(|c| {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(c);
            AidId::from_raw(ProcessId::from_raw(u64::from_le_bytes(raw)))
        })
        .collect()
}

/// (virtual nanos, wall nanos) per primitive invocation.
type Samples = Arc<Mutex<Vec<(u64, u64)>>>;

struct Outcome {
    report: HopeReport,
    wall_secs: f64,
    guess_lat: Vec<(u64, u64)>,
    affirm_lat: Vec<(u64, u64)>,
    trace_events: usize,
}

/// One full producer/consumer run of `messages` stream messages;
/// `trace_capacity` enables the causal tracer for the overhead
/// comparison.
fn run_workload(messages: u64, trace_capacity: Option<usize>) -> Outcome {
    let guess_lat: Samples = Arc::new(Mutex::new(Vec::new()));
    let affirm_lat: Samples = Arc::new(Mutex::new(Vec::new()));

    let mut env = HopeEnv::builder()
        .seed(SEED)
        .network(NetworkConfig::lan())
        .reliable(true)
        .build();
    if let Some(capacity) = trace_capacity {
        env.enable_tracing(capacity);
    }
    let tracer = env.tracer();
    let affirm_samples = Arc::clone(&affirm_lat);
    let consumer = env.spawn_user("consumer", move |ctx| {
        let aids = decode_aids(&ctx.receive(Some(1)).data);
        for _ in 0..messages {
            let _ = ctx.receive(Some(0));
        }
        // Let the producer finish its sends before resolution starts.
        ctx.compute(VirtualDuration::from_millis(10));
        for aid in aids {
            let (v0, w0) = (ctx.now(), Instant::now());
            ctx.affirm(aid);
            let dv = ctx.now().as_nanos() - v0.as_nanos();
            affirm_samples
                .lock()
                .unwrap()
                .push((dv, w0.elapsed().as_nanos() as u64));
        }
    });
    let guess_samples = Arc::clone(&guess_lat);
    env.spawn_user("producer", move |ctx| {
        let aids: Vec<AidId> = (0..DEPTH).map(|_| ctx.aid_init()).collect();
        ctx.send(consumer, 1, encode_aids(&aids));
        let stride = (messages / u64::from(DEPTH)).max(1);
        let mut next_guess = 0usize;
        for i in 0..messages {
            if i % stride == 0 && next_guess < aids.len() {
                let aid = aids[next_guess];
                next_guess += 1;
                let (v0, w0) = (ctx.now(), Instant::now());
                let _ = ctx.guess(aid);
                let dv = ctx.now().as_nanos() - v0.as_nanos();
                guess_samples
                    .lock()
                    .unwrap()
                    .push((dv, w0.elapsed().as_nanos() as u64));
            }
            ctx.send(consumer, 0, Bytes::from(i.to_le_bytes().to_vec()));
            // Pace the stream so link acks flow back between sends: an
            // unpaced burst outruns every ack and the tag codec would
            // (correctly, but uninterestingly) ship nothing but `Full`.
            ctx.compute(VirtualDuration::from_micros(200));
        }
    });

    let wall_start = Instant::now();
    let report = env.run();
    let wall = wall_start.elapsed();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    assert!(
        report.run.blocked.is_empty(),
        "every interval must finalize: {:?}",
        report.run.blocked
    );
    let guesses = std::mem::take(&mut *guess_lat.lock().unwrap());
    let affirms = std::mem::take(&mut *affirm_lat.lock().unwrap());
    Outcome {
        report,
        wall_secs: wall.as_secs_f64().max(1e-9),
        guess_lat: guesses,
        affirm_lat: affirms,
        trace_events: tracer.len(),
    }
}

/// The `HOPE_TRACE=1` overhead check: a traced run must reproduce the
/// untraced run's deterministic outcome exactly, and its wall-clock cost
/// is reported (and gated under `HOPE_BENCH_CHECK=1`).
fn check_tracing_overhead(plain: &Outcome) {
    let traced = run_workload(MESSAGES, Some(1 << 16));
    assert!(
        traced.trace_events > 0,
        "the traced run must actually collect events"
    );
    assert_eq!(
        plain.report.run.now, traced.report.run.now,
        "tracing must not move the virtual clock"
    );
    assert_eq!(
        plain.report.run.stats.link(),
        traced.report.run.stats.link(),
        "tracing must not change wire traffic"
    );
    assert_eq!(
        plain.report.hope.finalized_intervals, traced.report.hope.finalized_intervals,
        "tracing must not change interval resolution"
    );
    let overhead = traced.wall_secs / plain.wall_secs - 1.0;
    println!(
        "tracing overhead: {} events collected, wall {:.3}s -> {:.3}s ({:+.1}%)",
        traced.trace_events,
        plain.wall_secs,
        traced.wall_secs,
        overhead * 100.0,
    );
    if std::env::var("HOPE_BENCH_CHECK").as_deref() == Ok("1") {
        assert!(
            overhead < 0.05,
            "traced run must stay within the 5% overhead budget: {:+.1}%",
            overhead * 100.0
        );
    }
}

/// Fitted growth exponents of the stream-length sweep.
struct Exponents {
    work: f64,
    substitutions: f64,
    wall: f64,
}

/// Runs the stream-length sweep, prints it, and returns its JSON rows
/// with the fitted exponents, plus the headline (`MESSAGES`) run.
fn sweep() -> (Vec<Value>, Exponents, Outcome) {
    println!("stream-length sweep (depth {DEPTH}):");
    println!(
        "  {:>8} {:>16} {:>14} {:>12} {:>10}",
        "messages", "records_visited", "substitutions", "max_live", "wall_s"
    );
    let mut rows = Vec::new();
    let (mut work, mut subs, mut wall) = (Vec::new(), Vec::new(), Vec::new());
    let mut headline = None;
    for messages in SWEEP {
        let outcome = run_workload(messages, None);
        let visited = outcome.report.hope.history_records_visited;
        let substitutions = outcome.report.hope.history_substitutions;
        let max_live = outcome.report.hope.max_live_intervals;
        println!(
            "  {messages:>8} {visited:>16} {substitutions:>14} {max_live:>12} {:>10.3}",
            outcome.wall_secs
        );
        work.push((messages as f64, visited as f64));
        subs.push((messages as f64, substitutions as f64));
        wall.push((messages as f64, outcome.wall_secs));
        rows.push(baseline::obj(&[
            ("messages", messages.to_string()),
            ("history_records_visited", visited.to_string()),
            ("history_substitutions", substitutions.to_string()),
            ("max_live_intervals", max_live.to_string()),
            ("wall_s", format!("{:.3}", outcome.wall_secs)),
        ]));
        if messages == MESSAGES {
            headline = Some(outcome);
        }
    }
    let exp = Exponents {
        work: baseline::fit_exponent(&work),
        substitutions: baseline::fit_exponent(&subs),
        wall: baseline::fit_exponent(&wall),
    };
    println!(
        "fitted growth exponent: history_records_visited {:.3} (ceiling \
         {WORK_EXPONENT_CEILING}), history_substitutions {:.3} (ceiling \
         {SUBSTITUTION_EXPONENT_CEILING}), wall {:.3} (not gated)",
        exp.work, exp.substitutions, exp.wall
    );
    if std::env::var("HOPE_BENCH_CHECK").as_deref() == Ok("1") {
        assert!(
            exp.work <= WORK_EXPONENT_CEILING,
            "interval-history work has gone super-linear: fitted exponent \
             {:.3} > {WORK_EXPONENT_CEILING} across stream lengths {SWEEP:?}",
            exp.work
        );
        assert!(
            exp.substitutions <= SUBSTITUTION_EXPONENT_CEILING,
            "Replace substitutions grow with the stream (per holder, not per \
             run): fitted exponent {:.3} > {SUBSTITUTION_EXPONENT_CEILING} \
             across stream lengths {SWEEP:?}",
            exp.substitutions
        );
    }
    let headline = headline.expect("the sweep includes the headline length");
    (rows, exp, headline)
}

fn main() {
    let (sweep_rows, exp, outcome) = sweep();
    let report = &outcome.report;
    let wall_secs = outcome.wall_secs;

    let link = report.run.stats.link();
    let registrations = report.run.stats.count_kind("Guess");
    let virtual_secs = report.run.now.as_nanos() as f64 / 1e9;
    let (gv, gw): (Vec<u64>, Vec<u64>) = outcome.guess_lat.iter().copied().unzip();
    let (av, aw): (Vec<u64>, Vec<u64>) = outcome.affirm_lat.iter().copied().unzip();

    println!(
        "throughput: {MESSAGES} msgs in {wall_secs:.3}s wall ({:.0} msgs/s), \
         {virtual_secs:.4}s virtual ({:.0} msgs/virtual-s)",
        MESSAGES as f64 / wall_secs,
        MESSAGES as f64 / virtual_secs,
    );
    println!(
        "dependency tags: {} bytes verbatim -> {} bytes on the wire \
         ({} full, {} delta codings)",
        link.tag_bytes_full, link.tag_bytes_wire, link.tags_full, link.tags_delta,
    );

    if std::env::var("HOPE_TRACE").as_deref() == Ok("1") {
        check_tracing_overhead(&outcome);
    }

    let fresh = Value::Object(vec![
        (
            "bench".into(),
            Value::String("throughput (E-perf: reliable-link streaming under speculation)".into()),
        ),
        ("seed".into(), Value::String(SEED.to_string())),
        ("messages".into(), Value::String(MESSAGES.to_string())),
        ("depth".into(), Value::String(DEPTH.to_string())),
        (
            "registrations".into(),
            Value::String(registrations.to_string()),
        ),
        (
            "total_hope_messages".into(),
            Value::String(report.run.stats.total_hope().to_string()),
        ),
        (
            "tag_bytes_full".into(),
            Value::String(link.tag_bytes_full.to_string()),
        ),
        (
            "tag_bytes_wire".into(),
            Value::String(link.tag_bytes_wire.to_string()),
        ),
        (
            "tags_full".into(),
            Value::String(link.tags_full.to_string()),
        ),
        (
            "tags_delta".into(),
            Value::String(link.tags_delta.to_string()),
        ),
        (
            "history_records_visited".into(),
            Value::String(report.hope.history_records_visited.to_string()),
        ),
        (
            "history_substitutions".into(),
            Value::String(report.hope.history_substitutions.to_string()),
        ),
        (
            "max_live_intervals".into(),
            Value::String(report.hope.max_live_intervals.to_string()),
        ),
        (
            "virtual_micros_total".into(),
            Value::String((report.run.now.as_nanos() / 1_000).to_string()),
        ),
        (
            "guess_p50_virtual_ns".into(),
            Value::String(baseline::percentile(&gv, 50.0).to_string()),
        ),
        (
            "guess_p99_virtual_ns".into(),
            Value::String(baseline::percentile(&gv, 99.0).to_string()),
        ),
        (
            "affirm_p50_virtual_ns".into(),
            Value::String(baseline::percentile(&av, 50.0).to_string()),
        ),
        (
            "affirm_p99_virtual_ns".into(),
            Value::String(baseline::percentile(&av, 99.0).to_string()),
        ),
        // Wall-clock figures below are machine-dependent: informational.
        (
            "ops_per_sec_wall".into(),
            Value::String(format!("{:.0}", MESSAGES as f64 / wall_secs)),
        ),
        (
            "guess_p50_wall_ns".into(),
            Value::String(baseline::percentile(&gw, 50.0).to_string()),
        ),
        (
            "guess_p99_wall_ns".into(),
            Value::String(baseline::percentile(&gw, 99.0).to_string()),
        ),
        (
            "affirm_p50_wall_ns".into(),
            Value::String(baseline::percentile(&aw, 50.0).to_string()),
        ),
        (
            "affirm_p99_wall_ns".into(),
            Value::String(baseline::percentile(&aw, 99.0).to_string()),
        ),
        (
            "sweep_work_exponent".into(),
            Value::String(format!("{:.3}", exp.work)),
        ),
        (
            "sweep_work_exponent_ceiling".into(),
            Value::String(format!("{WORK_EXPONENT_CEILING}")),
        ),
        (
            "sweep_substitution_exponent".into(),
            Value::String(format!("{:.3}", exp.substitutions)),
        ),
        (
            "sweep_substitution_exponent_ceiling".into(),
            Value::String(format!("{SUBSTITUTION_EXPONENT_CEILING}")),
        ),
        (
            "sweep_wall_exponent".into(),
            Value::String(format!("{:.3}", exp.wall)),
        ),
        ("sweep".into(), Value::Array(sweep_rows)),
    ]);
    baseline::finish(
        "BENCH_throughput.json",
        &fresh,
        &[
            "registrations",
            "total_hope_messages",
            "tag_bytes_wire",
            "guess_p99_virtual_ns",
            "history_records_visited",
            "history_substitutions",
        ],
        2.0,
    );
}
