//! `stream`: one producer streams tagged user messages to one consumer on
//! the simulator over a reliable LAN link, stacking guesses as it goes.
//!
//! An iteration is split into epochs. At the start of an epoch the
//! producer makes the epoch's AIDs and sends them (untagged) to the
//! consumer; it then streams the epoch's messages, guessing a new AID
//! every `MESSAGES / GUESSES` messages, so each message carries a growing
//! dependency tag. The consumer receives every message, then affirms the
//! epoch's AIDs; the producer waits until it is definite before the next
//! epoch. Nothing is denied, so replay and the store stay idle.
//!
//! Each tagged receive opens an interval, so the consumer holds about
//! `MESSAGES` live intervals by the end of an epoch and the interval
//! history's `held_before` scan is on the path of every receive.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use hope_core::HopeEnv;
use hope_runtime::NetworkConfig;
use hope_types::{AidId, ProcessId, VirtualDuration};

use crate::probe::{Body, Probe, SIM_RUN};
use crate::{counters, fnv, fnv_words, Outcome, SplitMix};

const EPOCHS: usize = 2;
const MESSAGES: usize = 2048;
const GUESSES: usize = 64;
/// Virtual compute between sends, so link acks flow back mid-stream and
/// the tag codec ships deltas rather than only full tags.
const PACE: VirtualDuration = VirtualDuration::from_micros(200);

const CH_DATA: u32 = 0;
const CH_AIDS: u32 = 1;

fn encode_aids(aids: &[AidId]) -> Bytes {
    aids.iter()
        .flat_map(|aid| aid.process().as_raw().to_le_bytes())
        .collect::<Vec<u8>>()
        .into()
}

fn decode_aids(data: &[u8]) -> Vec<AidId> {
    data.chunks_exact(8)
        .map(|c| {
            let raw = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            AidId::from_raw(ProcessId::from_raw(raw))
        })
        .collect()
}

/// The seeded inputs: every message of every epoch, each an 8-byte
/// sequence number followed by 8 to 64 seeded bytes.
fn inputs(seed: u64) -> Vec<Bytes> {
    let mut rng = SplitMix(seed);
    (0..EPOCHS * MESSAGES)
        .map(|seq| {
            let len = 8 + (rng.next_u64() % 57) as usize;
            let mut data = (seq as u64).to_le_bytes().to_vec();
            data.extend((0..len).map(|_| rng.next_u64() as u8));
            Bytes::from(data)
        })
        .collect()
}

pub fn run(seed: u64, traced: bool) -> Outcome {
    let messages = Arc::new(inputs(seed));
    let probe = Probe::new(traced);
    let sent_at: Arc<Vec<AtomicU64>> =
        Arc::new((0..messages.len()).map(|_| AtomicU64::new(0)).collect());
    // (sequence number, payload checksum) in the order the consumer saw them.
    let arrivals: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));

    let setup_start = probe.now();
    let mut env = HopeEnv::builder()
        .seed(seed)
        .network(NetworkConfig::lan())
        .reliable(true)
        .build();
    let consumer = {
        let (probe, sent_at, arrivals) = (probe.clone(), sent_at.clone(), arrivals.clone());
        env.spawn_user("consumer", move |ctx| {
            let mut body = Body::open(&probe, 1);
            let mut seen = Vec::new();
            for epoch in 0..EPOCHS {
                let (m, _) = body.call(ctx, "core.receive", 0, |c| c.receive(Some(CH_AIDS)));
                for i in 0..MESSAGES {
                    let req = (epoch * MESSAGES + i) as u64;
                    let (d, live) =
                        body.call(ctx, "core.receive", req, |c| c.receive(Some(CH_DATA)));
                    let seq = u64::from_le_bytes(d.data[..8].try_into().expect("seq prefix"));
                    if live.is_some() {
                        let sent = sent_at
                            .get(seq as usize)
                            .map_or(0, |s| s.load(Ordering::Relaxed));
                        body.sample("lat", body.now().saturating_sub(sent));
                    }
                    // Replayed receives return the logged message, so the
                    // execution that completes has seen every message.
                    seen.push((seq, fnv(&d.data)));
                }
                for aid in decode_aids(&m.data) {
                    if let (_, Some(ns)) = body.call(ctx, "core.affirm", 0, |c| c.affirm(aid)) {
                        body.sample("affirm", ns);
                    }
                }
            }
            arrivals.lock().expect("arrivals lock").extend(seen);
        })
    };
    {
        let (probe, sent_at, messages) = (probe.clone(), sent_at.clone(), messages.clone());
        env.spawn_user("producer", move |ctx| {
            let mut body = Body::open(&probe, 2);
            let stride = MESSAGES / GUESSES;
            for epoch in 0..EPOCHS {
                let aids: Vec<AidId> = (0..GUESSES)
                    .map(|_| body.call(ctx, "core.aid_init", 0, |c| c.aid_init()).0)
                    .collect();
                body.call(ctx, "core.send", 0, |c| {
                    c.send(consumer, CH_AIDS, encode_aids(&aids))
                });
                for i in 0..MESSAGES {
                    let seq = epoch * MESSAGES + i;
                    if i % stride == 0 {
                        let aid = aids[i / stride];
                        if let (_, Some(ns)) =
                            body.call(ctx, "core.guess", seq as u64, |c| c.guess(aid))
                        {
                            body.sample("guess", ns);
                        }
                    }
                    let data = messages[seq].clone();
                    let stamp = body.now();
                    if let (_, Some(_)) = body.call(ctx, "core.send", seq as u64, |c| {
                        c.send(consumer, CH_DATA, data)
                    }) {
                        sent_at[seq].store(stamp, Ordering::Relaxed);
                    }
                    body.call(ctx, "core.compute", seq as u64, |c| c.compute(PACE));
                }
                body.call(ctx, "core.await_definite", 0, |c| c.await_definite());
            }
        });
    }
    let setup_ns = probe.now() - setup_start;

    let run_start = probe.now();
    let report = env.run();
    let run_end = probe.now();
    probe.root_span(SIM_RUN, run_start, run_end);

    let expected: Vec<(u64, u64)> = messages
        .iter()
        .enumerate()
        .map(|(seq, m)| (seq as u64, fnv(m)))
        .collect();
    let arrivals = std::mem::take(&mut *arrivals.lock().expect("arrivals lock"));
    let delivered = arrivals
        .iter()
        .zip(&expected)
        .take_while(|(got, want)| got == want)
        .count() as u64;
    let mut problems = Vec::new();
    if arrivals.len() != expected.len() || delivered != expected.len() as u64 {
        problems.push(format!(
            "stream: {delivered} of {} messages arrived in order with matching checksums ({} arrivals)",
            expected.len(),
            arrivals.len()
        ));
    }
    problems.extend(counters::run_problems(&report.run));
    let speculative = env.speculative_processes();
    if !speculative.is_empty() {
        problems.push(format!(
            "stream: intervals left speculative in {speculative:?}"
        ));
    }
    let attempted = expected.len() as u64;
    let ops = if problems.is_empty() {
        attempted
    } else {
        delivered
    };

    let mut c = counters::Counters::new();
    counters::hope(&mut c, &report.hope, &report.run, ops);
    Outcome {
        setup_ns,
        wall_ns: run_end - run_start,
        ops,
        attempted,
        failed: attempted - ops,
        problems,
        lat_ns: probe.take_samples("lat"),
        virtual_ns: report.run.now.as_nanos(),
        inputs: fnv_words(expected.iter().map(|&(_, sum)| sum)),
        counters: c,
        deterministic: true,
        probe,
    }
}
