//! `rollback`: the `hope-sim::contention` shape on the simulator, with the
//! durable op-log store on.
//!
//! Four lanes, each a worker and its own resolver. Every round a worker
//! makes an AID, asks its resolver for a verdict, guesses it, and on the
//! optimistic branch does 40 chunks of work, streaming a tagged progress
//! message after each; on the pessimistic branch it does one light chunk.
//! The resolver settles its own speculation first (`await_definite`),
//! then denies the round when `hope_sim::contention::denied` says so
//! (10% of rounds) and affirms it otherwise. Each deny rolls the worker
//! back to the guess and the resolver back past the doomed progress
//! messages, so deny, rollback, op-log replay and the store do most of
//! the work while histories stay short and tags small.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use hope_core::{DurableConfig, HopeEnv, SpecPolicy};
use hope_runtime::NetworkConfig;
use hope_sim::contention::denied;
use hope_types::{AidId, ProcessId, VirtualDuration};

use crate::counters;
use crate::probe::{Body, Probe, SIM_RUN};
use crate::{fnv_words, Outcome};

const LANES: u32 = 4;
/// Rounds per lane in one iteration. At 100, about one draw in four sets
/// off a rollback cascade (up to 235k rollbacks and 11 s for a single
/// iteration, against about 1k and 1 s otherwise) whose cost grows with
/// the length of the logs re-execution replays, and a run cannot average
/// it out; at 25 cascades still happen (up to 5k rollbacks) but stay
/// cheap. See README.md.
const ROUNDS: u32 = 25;
const DENY_PERMILLE: u32 = 100;
const CHUNKS: u32 = 40;
const CHUNK: VirtualDuration = VirtualDuration::from_micros(500);
const LIGHT: VirtualDuration = VirtualDuration::from_micros(500);
const LATENCY: VirtualDuration = VirtualDuration::from_millis(1);

const CH_REQUEST: u32 = 0;
const CH_PROGRESS: u32 = 1;
const CH_DONE: u32 = 2;

/// Worker branch taken by the last execution of a round's `guess`.
const OPTIMISTIC: u8 = 1;
const PESSIMISTIC: u8 = 2;

fn encode_request(worker: u32, round: u32, aid: AidId) -> Bytes {
    let mut buf = Vec::with_capacity(16);
    buf.extend_from_slice(&worker.to_le_bytes());
    buf.extend_from_slice(&round.to_le_bytes());
    buf.extend_from_slice(&aid.process().as_raw().to_le_bytes());
    Bytes::from(buf)
}

fn decode_request(data: &[u8]) -> (u32, u32, AidId) {
    let word = |r: std::ops::Range<usize>| data[r].try_into().expect("request field");
    let worker = u32::from_le_bytes(word(0..4));
    let round = u32::from_le_bytes(word(4..8));
    let raw = u64::from_le_bytes(data[8..16].try_into().expect("request aid"));
    (worker, round, AidId::from_raw(ProcessId::from_raw(raw)))
}

/// Per-round bookkeeping written by the bodies (live calls only), indexed
/// by `worker * ROUNDS + round`.
struct Rounds {
    /// Probe time + 1 of the round's first live `aid_init`.
    started: Vec<AtomicU64>,
    /// Verdicts issued: must end at exactly one per round.
    verdicts: Vec<AtomicU32>,
    denied: Vec<AtomicU8>,
    branch: Vec<AtomicU8>,
}

impl Rounds {
    fn new() -> Rounds {
        let n = (LANES * ROUNDS) as usize;
        Rounds {
            started: (0..n).map(|_| AtomicU64::new(0)).collect(),
            verdicts: (0..n).map(|_| AtomicU32::new(0)).collect(),
            denied: (0..n).map(|_| AtomicU8::new(0)).collect(),
            branch: (0..n).map(|_| AtomicU8::new(0)).collect(),
        }
    }
}

fn index(worker: u32, round: u32) -> usize {
    (worker * ROUNDS + round) as usize
}

pub fn run(seed: u64, traced: bool) -> Outcome {
    let probe = Probe::new(traced);
    let rounds = Arc::new(Rounds::new());

    let setup_start = probe.now();
    let mut env = HopeEnv::builder()
        .seed(seed)
        .network(NetworkConfig::constant(LATENCY))
        .spec_policy(SpecPolicy::AlwaysOptimistic)
        .durable(DurableConfig::default())
        .build();
    for w in 0..LANES {
        let (p, r) = (probe.clone(), rounds.clone());
        let resolver = env.spawn_user(&format!("resolver-{w}"), move |ctx| {
            let mut body = Body::open(&p, u64::from(2 * w + 1));
            loop {
                let (m, _) = body.call(ctx, "core.receive", 0, |c| c.receive(None));
                match m.channel {
                    CH_REQUEST => {
                        let (worker, round, aid) = decode_request(&m.data);
                        let req = index(worker, round) as u64;
                        // A verdict is a commitment: settle the resolver's own
                        // speculation first, or a retracted affirm would
                        // re-execute the affirmed rounds for nothing.
                        body.call(ctx, "core.await_definite", req, |c| c.await_definite());
                        let deny = denied(seed, worker, round, DENY_PERMILLE);
                        let (_, live) = if deny {
                            body.call(ctx, "core.deny", req, |c| c.deny(aid))
                        } else {
                            body.call(ctx, "core.affirm", req, |c| c.affirm(aid))
                        };
                        if let Some(ns) = live {
                            let i = req as usize;
                            if !deny {
                                body.sample("affirm", ns);
                            }
                            let started = r.started[i].load(Ordering::Relaxed);
                            body.sample(
                                "lat",
                                body.now().saturating_sub(started.saturating_sub(1)),
                            );
                            r.verdicts[i].fetch_add(1, Ordering::Relaxed);
                            r.denied[i].store(u8::from(deny), Ordering::Relaxed);
                        }
                    }
                    CH_PROGRESS => {}
                    _ => break,
                }
            }
        });
        let (p, r) = (probe.clone(), rounds.clone());
        env.spawn_user(&format!("worker-{w}"), move |ctx| {
            let mut body = Body::open(&p, u64::from(2 * w + 2));
            for round in 0..ROUNDS {
                let i = index(w, round);
                let req = i as u64;
                let (aid, live) = body.call(ctx, "core.aid_init", req, |c| c.aid_init());
                if live.is_some() {
                    let now = body.now() + 1;
                    let _ =
                        r.started[i].compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed);
                }
                body.call(ctx, "core.send", req, |c| {
                    c.send(resolver, CH_REQUEST, encode_request(w, round, aid))
                });
                let (optimistic, live) = body.call(ctx, "core.guess", req, |c| c.guess(aid));
                if let Some(ns) = live {
                    body.sample("guess", ns);
                }
                // A denied guess re-executes from the log with its outcome
                // flipped to false, so the branch is recorded on replay too:
                // the last execution's branch is the committed one.
                let branch = if optimistic { OPTIMISTIC } else { PESSIMISTIC };
                r.branch[i].store(branch, Ordering::Relaxed);
                if optimistic {
                    for _ in 0..CHUNKS {
                        body.call(ctx, "core.compute", req, |c| c.compute(CHUNK));
                        body.call(ctx, "core.send", req, |c| {
                            c.send(resolver, CH_PROGRESS, Bytes::from_static(b"p"))
                        });
                    }
                } else {
                    body.call(ctx, "core.compute", req, |c| c.compute(LIGHT));
                }
            }
            body.call(ctx, "core.await_definite", 0, |c| c.await_definite());
            body.call(ctx, "core.send", 0, |c| {
                c.send(resolver, CH_DONE, Bytes::new())
            });
        });
    }
    let setup_ns = probe.now() - setup_start;

    let run_start = probe.now();
    let report = env.run();
    let run_end = probe.now();
    probe.root_span(SIM_RUN, run_start, run_end);

    // Output checks: one verdict per round, the deny set recomputed
    // independently from the seeded hash, and each worker's final branch
    // matching its round's verdict.
    let mut committed = 0u64;
    let mut denied_rounds = 0u64;
    let mut expected_denied = 0u64;
    for w in 0..LANES {
        for round in 0..ROUNDS {
            let i = index(w, round);
            let deny = denied(seed, w, round, DENY_PERMILLE);
            expected_denied += u64::from(deny);
            let verdicts = rounds.verdicts[i].load(Ordering::Relaxed);
            let got_deny = rounds.denied[i].load(Ordering::Relaxed) == 1;
            let branch = rounds.branch[i].load(Ordering::Relaxed);
            let want_branch = if deny { PESSIMISTIC } else { OPTIMISTIC };
            if verdicts == 1 && got_deny == deny && branch == want_branch {
                committed += 1;
                denied_rounds += u64::from(got_deny);
            }
        }
    }
    let attempted = u64::from(LANES * ROUNDS);
    let mut problems = counters::run_problems(&report.run);
    if committed != attempted || denied_rounds != expected_denied {
        problems.push(format!(
            "rollback: {committed} of {attempted} rounds committed with the expected verdict \
             ({denied_rounds} denied, {expected_denied} expected)"
        ));
    }
    let speculative = env.speculative_processes();
    if !speculative.is_empty() {
        problems.push(format!(
            "rollback: intervals left speculative in {speculative:?}"
        ));
    }

    let mut c = counters::Counters::new();
    counters::hope(&mut c, &report.hope, &report.run, committed);
    if let Some(store) = env.store_stats() {
        counters::store(&mut c, &store);
    }
    Outcome {
        setup_ns,
        wall_ns: run_end - run_start,
        ops: committed,
        attempted,
        failed: attempted - committed,
        problems,
        lat_ns: probe.take_samples("lat"),
        virtual_ns: report.run.now.as_nanos(),
        inputs: fnv_words(
            (0..LANES * ROUNDS)
                .map(|i| u64::from(denied(seed, i / ROUNDS, i % ROUNDS, DENY_PERMILLE))),
        ),
        counters: c,
        deterministic: true,
        probe,
    }
}
