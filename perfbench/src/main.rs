//! The HOPE runtime's benchmark: four workloads, each checked for correct
//! output, measured end to end with tracing off, and split by layer in a
//! separate traced run. See `README.md` for the workloads, the metrics
//! and what each layer metric is expected to move.
//!
//! ```text
//! hope-perfbench --workload <stream|rollback|commit|wire> --seed <n> --seconds <s> --trace <0|1>
//! hope-perfbench --selftest
//! ```
//!
//! A run repeats fixed-size iterations until `--seconds` have passed (at
//! least `MIN_ITERATIONS`), after one warm-up iteration whose output is
//! checked but not timed. Iteration `i` takes its inputs from a seed
//! derived from `--seed` and `i`, so a run averages over several input
//! draws and the same `--seed` always gives the same inputs. The last
//! line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod commit;
mod counters;
mod probe;
mod rollback;
mod stream;
mod wire;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use probe::{median_f64, percentile, Probe, SpanTotals};

/// What one iteration of a workload did and how long it took.
pub struct Outcome {
    /// Building the environment and starting its processes (for `wire`,
    /// binding both transports and bringing the link up).
    pub setup_ns: u64,
    /// Wall time of the measured phase.
    pub wall_ns: u64,
    /// Operations completed and checked correct.
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures, in words.
    pub problems: Vec<String>,
    /// Wall latency of each completed operation.
    pub lat_ns: Vec<u64>,
    /// Virtual completion time; 0 on the wall-clock workloads.
    pub virtual_ns: u64,
    /// Checksum of the generated inputs, so a test can see a seed change
    /// them.
    pub inputs: u64,
    /// Per-layer counters read from the library's reports.
    pub counters: counters::Counters,
    /// True when `counters` and `virtual_ns` must repeat exactly per seed.
    pub deterministic: bool,
    pub probe: Arc<Probe>,
}

/// SplitMix64: the benchmark's input generator.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// FNV-1a, the payload checksum.
pub fn fnv(data: &[u8]) -> u64 {
    fnv_step(0xcbf2_9ce4_8422_2325, data)
}

/// FNV-1a over a sequence of words, the inputs checksum.
pub fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(fnv(&[]), |h, w| fnv_step(h, &w.to_le_bytes()))
}

fn fnv_step(h: u64, data: &[u8]) -> u64 {
    data.iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Cores available: the lane and shard count of `commit`.
pub fn lanes() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

type Workload = fn(u64, bool) -> Outcome;

const WORKLOADS: [(&str, Workload); 4] = [
    ("stream", stream::run),
    ("rollback", rollback::run),
    ("commit", commit::run),
    ("wire", wire::run),
];

const MIN_ITERATIONS: usize = 3;
/// Hard stop well inside the 180 s a run may take.
const WATCHDOG: Duration = Duration::from_secs(170);
/// Spans beyond this many are aggregated but not written to the trace file.
const TRACE_FILE_SPANS: usize = 200_000;

/// End-to-end metrics, printed by every untraced run: (name, unit).
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: (name, unit). Values
/// are per iteration; a layer a workload leaves idle reads 0.
const PER_LAYER: [(&str, &str); 61] = [
    ("user.self_ns", "ns"),
    ("core.guess.calls", "count"),
    ("core.guess.busy_ns", "ns"),
    ("core.affirm.calls", "count"),
    ("core.affirm.busy_ns", "ns"),
    ("core.deny.calls", "count"),
    ("core.deny.busy_ns", "ns"),
    ("core.aid_init.calls", "count"),
    ("core.aid_init.busy_ns", "ns"),
    ("core.send.calls", "count"),
    ("core.send.busy_ns", "ns"),
    ("core.receive.wait_ns", "ns"),
    ("core.await_definite.wait_ns", "ns"),
    ("core.implicit_guesses", "count"),
    ("core.finalized_intervals", "count"),
    ("core.msgs.guess", "count"),
    ("core.msgs.affirm", "count"),
    ("core.msgs.deny", "count"),
    ("core.msgs.replace", "count"),
    ("core.msgs.rollback", "count"),
    ("core.hope_msgs_per_op", "ratio"),
    ("core.guess.p50_ns", "ns"),
    ("core.guess.p99_ns", "ns"),
    ("core.affirm.p50_ns", "ns"),
    ("core.affirm.p99_ns", "ns"),
    ("replay.rollbacks", "count"),
    ("replay.reexecutions", "count"),
    ("replay.replayed_ops", "count"),
    ("replay.wasted_ops", "count"),
    ("replay.busy_ns", "ns"),
    ("replay.useful_ratio", "ratio"),
    ("store.events", "count"),
    ("store.syncs", "count"),
    ("store.checkpoints", "count"),
    ("store.rotations", "count"),
    ("store.max_live_segments", "count"),
    ("reliable.acks", "count"),
    ("reliable.retransmits", "count"),
    ("reliable.dedup_dropped", "count"),
    ("reliable.tag_bytes_full", "B"),
    ("reliable.tag_bytes_wire", "B"),
    ("reliable.tags_full", "count"),
    ("reliable.tags_delta", "count"),
    ("reliable.tag_resyncs", "count"),
    ("sim.events", "count"),
    ("sim.run_ns", "ns"),
    ("sim.self_ns", "ns"),
    ("sim.virtual_s", "s"),
    ("fabric.deliver_p50_ns", "ns"),
    ("fabric.deliver_p99_ns", "ns"),
    ("fabric.msgs", "count"),
    ("net.send.calls", "count"),
    ("net.send.busy_ns", "ns"),
    ("net.retransmits", "count"),
    ("net.parked", "count"),
    ("net.reconnects", "count"),
    ("net.srtt_ns", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("iterations", "count"),
    ("ops_per_iteration", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selftest" {
            args.selftest = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? == 1,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// The input seed of iteration `i` of a run with seed `seed`.
fn iteration_seed(seed: u64, i: usize) -> u64 {
    SplitMix(seed ^ (i as u64).wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Output-check totals over every iteration of a run, warm-up included.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn add(&mut self, o: &Outcome) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.problems.extend(o.problems.iter().cloned());
    }
}

/// Latency sample kinds: operation latency, then the primitives' wall
/// cost and the fabric's one-way delivery time.
const KINDS: [&str; 4] = ["lat", "guess", "affirm", "deliver"];

/// What a run keeps of one untraced iteration. Samples are reduced to
/// their percentiles at once, so the benchmark's own memory stays flat
/// however many iterations fit in the run.
struct Summary {
    setup_ns: u64,
    wall_ns: u64,
    ops: u64,
    virtual_ns: u64,
    /// (p50, p99, sample count) per kind in `KINDS`.
    pcts: [(u64, u64, usize); 4],
}

impl Summary {
    fn of(o: &Outcome) -> Summary {
        let pcts = KINDS.map(|kind| {
            let s = if kind == "lat" {
                o.lat_ns.clone()
            } else {
                o.probe.take_samples(kind)
            };
            (percentile(&s, 50.0), percentile(&s, 99.0), s.len())
        });
        Summary {
            setup_ns: o.setup_ns,
            wall_ns: o.wall_ns,
            ops: o.ops,
            virtual_ns: o.virtual_ns,
            pcts,
        }
    }
}

/// Median over iterations of one per-iteration percentile of `kind`
/// (`p99` picks the 99th, else the 50th), over iterations that have
/// samples of that kind; and the median sample count per iteration.
fn median_pct(plain: &[Summary], kind: &str, p99: bool) -> (f64, usize) {
    let k = KINDS.iter().position(|&x| x == kind).expect("known kind");
    let with: Vec<&Summary> = plain.iter().filter(|s| s.pcts[k].2 > 0).collect();
    let values: Vec<f64> = with
        .iter()
        .map(|s| (if p99 { s.pcts[k].1 } else { s.pcts[k].0 }) as f64)
        .collect();
    let mut counts: Vec<usize> = with.iter().map(|s| s.pcts[k].2).collect();
    counts.sort_unstable();
    (
        median_f64(&values),
        counts.get(counts.len() / 2).copied().unwrap_or(0),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hope-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.selftest {
        std::process::exit(if selftest() { 0 } else { 1 });
    }
    let Some(&(name, run)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        eprintln!("hope-perfbench: --workload must be one of stream, rollback, commit, wire");
        std::process::exit(2);
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("hope-perfbench: run exceeded {WATCHDOG:?}; stopping without a result");
        std::process::exit(3);
    });
    let correct = measure(name, run, &args);
    std::process::exit(if correct { 0 } else { 1 });
}

/// Runs one workload for `args.seconds` and prints its metrics; returns
/// whether every output check passed.
fn measure(name: &str, run: Workload, args: &Args) -> bool {
    let mut tally = Tally::default();
    tally.add(&run(iteration_seed(args.seed, 0), false));

    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut plain = Vec::new();
    let mut layers = Layers::default();
    let mut i = 1;
    while plain.len() < MIN_ITERATIONS || start.elapsed() < budget {
        let seed = iteration_seed(args.seed, i);
        let a = run(seed, false);
        tally.add(&a);
        if args.trace {
            let b = run(seed, true);
            tally.add(&b);
            if a.deterministic && (a.counters != b.counters || a.virtual_ns != b.virtual_ns) {
                tally.problems.push(format!(
                    "iteration {i}: the traced run changed the counters"
                ));
            }
            layers.add(&b, a.wall_ns);
        }
        plain.push(Summary::of(&a));
        i += 1;
    }

    println!(
        "workload {name}: seed {}, {} iterations after 1 warm-up, trace {}, cpus {}",
        args.seed,
        plain.len(),
        u8::from(args.trace),
        lanes()
    );
    println!(
        "  {:<30} {}",
        "failed_share",
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    let metrics = if args.trace {
        layers.metrics(name, args.seed, &plain)
    } else {
        end_to_end(name, &plain)
    };
    for p in &tally.problems {
        println!("check failed: {p}");
    }
    let correct = tally.problems.is_empty() && tally.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            println!("  {name:<30} {value:>16.6} {unit}");
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    correct
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

fn end_to_end(name: &str, plain: &[Summary]) -> Metrics {
    let setup: Vec<f64> = plain.iter().map(|s| s.setup_ns as f64 / 1e9).collect();
    let rate: Vec<f64> = plain
        .iter()
        .map(|s| s.ops as f64 * 1e9 / s.wall_ns.max(1) as f64)
        .collect();
    let (lat_p50, lat_n) = median_pct(plain, "lat", false);
    let values = [
        median_f64(&setup),
        median_f64(&rate),
        lat_p50 / 1e3,
        peak_rss_mb(),
    ];

    // Workload-specific end-to-end figures, printed for people; the JSON
    // carries the metrics every workload has.
    let mut extra: Vec<(String, String)> = vec![
        (
            "lat_p99_us".into(),
            format!("{}", median_pct(plain, "lat", true).0 / 1e3),
        ),
        ("latency samples/iteration".into(), lat_n.to_string()),
    ];
    if matches!(name, "stream" | "rollback") {
        let virt: Vec<f64> = plain.iter().map(|s| s.virtual_ns as f64 / 1e9).collect();
        extra.push(("virtual_s".into(), format!("{}", median_f64(&virt))));
    }
    if matches!(name, "stream" | "commit") {
        for kind in ["guess", "affirm"] {
            let (p50, n) = median_pct(plain, kind, false);
            extra.push((format!("{kind}_p50_ns"), p50.to_string()));
            extra.push((
                format!("{kind}_p99_ns"),
                median_pct(plain, kind, true).0.to_string(),
            ));
            extra.push((format!("{kind} samples/iteration"), n.to_string()));
        }
    }
    let alias = match name {
        "commit" => Some("commit"),
        "wire" => Some("rtt"),
        _ => None,
    };
    if let Some(a) = alias {
        extra.push((format!("{a}_p50_us"), format!("{}", values[2])));
        extra.push((format!("{a}_p99_us"), extra[0].1.clone()));
    }
    for (k, v) in extra {
        println!("  {k:<30} {v}");
    }
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, u, v))
        .collect()
}

/// Per-layer sums over the traced iterations of a run.
#[derive(Default)]
struct Layers {
    sums: BTreeMap<String, f64>,
    iterations: usize,
    traced_wall_ns: u64,
    plain_wall_ns: u64,
    /// Span count and the first `TRACE_FILE_SPANS` spans of the first
    /// traced iteration, for the trace file.
    first: Option<(usize, Vec<probe::Span>)>,
}

impl Layers {
    /// Folds in traced iteration `o`, whose untraced twin took
    /// `plain_wall_ns`.
    fn add(&mut self, o: &Outcome, plain_wall_ns: u64) {
        let spans = o.probe.take_spans();
        let t = SpanTotals::of(&spans);
        let mut add = |k: &str, v: f64| *self.sums.entry(k.to_string()).or_default() += v;
        add("user.self_ns", t.user_self_ns as f64);
        for call in ["guess", "affirm", "deny", "aid_init", "send"] {
            let key = format!("core.{call}");
            add(&format!("{key}.calls"), t.calls(&key) as f64);
            add(&format!("{key}.busy_ns"), t.busy_ns(&key) as f64);
        }
        add("core.receive.wait_ns", t.busy_ns("core.receive") as f64);
        add(
            "core.await_definite.wait_ns",
            t.busy_ns("core.await_definite") as f64,
        );
        add("replay.busy_ns", o.probe.replay_ns() as f64);
        add("sim.run_ns", t.busy_ns(probe::SIM_RUN) as f64);
        add("sim.self_ns", t.sim_self_ns as f64);
        add("sim.virtual_s", o.virtual_ns as f64 / 1e9);
        add("net.send.calls", t.calls("net.send") as f64);
        add("net.send.busy_ns", t.busy_ns("net.send") as f64);
        add("ops_per_iteration", o.ops as f64);
        add("trace.spans", spans.len() as f64);
        for (k, v) in &o.counters {
            add(k, *v);
        }
        self.iterations += 1;
        self.traced_wall_ns += o.wall_ns;
        self.plain_wall_ns += plain_wall_ns;
        if self.first.is_none() {
            let total = spans.len();
            self.first = Some((total, spans.into_iter().take(TRACE_FILE_SPANS).collect()));
        }
    }

    /// Per-iteration means of the sums; latency percentiles come from the
    /// untraced twins in `plain`.
    fn metrics(self, name: &str, seed: u64, plain: &[Summary]) -> Metrics {
        let n = self.iterations.max(1) as f64;
        let mut values: BTreeMap<String, f64> =
            self.sums.into_iter().map(|(k, v)| (k, v / n)).collect();
        for (kind, p50, p99) in [
            ("guess", "core.guess.p50_ns", "core.guess.p99_ns"),
            ("affirm", "core.affirm.p50_ns", "core.affirm.p99_ns"),
            ("deliver", "fabric.deliver_p50_ns", "fabric.deliver_p99_ns"),
        ] {
            values.insert(p50.into(), median_pct(plain, kind, false).0);
            values.insert(p99.into(), median_pct(plain, kind, true).0);
        }
        let overhead = self.traced_wall_ns as f64 / self.plain_wall_ns.max(1) as f64 - 1.0;
        values.insert("trace.overhead_pct".into(), overhead * 100.0);
        values.insert("iterations".into(), self.iterations as f64);
        if let Some((total, spans)) = self.first {
            write_trace(name, seed, &spans, total);
        }
        PER_LAYER
            .iter()
            .map(|&(k, u)| (k, u, values.get(k).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// Writes the first traced iteration's spans (up to `TRACE_FILE_SPANS`
/// of its `total`) as Chrome trace-event JSON under `perfbench/out/`.
fn write_trace(name: &str, seed: u64, kept: &[probe::Span], total: usize) {
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("{name}-seed{seed}.trace.json"));
    let json = probe::chrome_trace(name, kept, total - kept.len());
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!(
            "  trace written to {} ({} spans)",
            path.display(),
            kept.len()
        ),
        Err(e) => println!("  trace not written to {}: {e}", path.display()),
    }
}

/// Determinism self-test of the simulator workloads: each iteration's
/// counters and virtual completion time must repeat exactly across two
/// run sets and between traced and untraced runs, and a second seed must
/// change the inputs and still pass every output check.
fn selftest() -> bool {
    let mut ok = true;
    for (name, run) in WORKLOADS.iter().take(2) {
        let mut inputs = Vec::new();
        for seed in [1u64, 2] {
            let s = iteration_seed(seed, 1);
            let runs = [run(s, false), run(s, false), run(s, true)];
            let same = runs
                .iter()
                .all(|o| o.counters == runs[0].counters && o.virtual_ns == runs[0].virtual_ns);
            let clean = runs.iter().all(|o| o.problems.is_empty() && o.failed == 0);
            println!(
                "selftest {name} seed {seed}: counters repeat {same}, checks pass {clean}, \
                 virtual {} ns, {} counters, inputs {:016x}",
                runs[0].virtual_ns,
                runs[0].counters.len(),
                runs[0].inputs
            );
            for p in runs.iter().flat_map(|o| &o.problems) {
                println!("  check failed: {p}");
            }
            ok &= same && clean;
            inputs.push(runs[0].inputs);
        }
        if inputs[0] == inputs[1] {
            println!("selftest {name}: a second seed left the inputs unchanged");
            ok = false;
        }
    }
    println!("selftest: {}", if ok { "ok" } else { "FAILED" });
    ok
}
