//! `commit`: closed-loop commit rounds on the threaded runtime, one lane
//! per core, with as many delivery shards as cores.
//!
//! Each lane is a worker, a resolver and a sink. A round is: `aid_init`;
//! an untagged request to the resolver; `guess`; `K` tagged messages to
//! the sink, each stamped with its send time; `await_definite`. The
//! resolver affirms every request. Every round crosses the shard
//! mailboxes several times and waits on the AID round trip, so the
//! sharded fabric and the threaded HOPE library do the work; the
//! simulator, replay and the store stay idle.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use hope_core::ThreadedHopeEnv;
use hope_runtime::NetworkConfig;
use hope_types::{AidId, ProcessId};

use crate::probe::{Body, Probe};
use crate::{counters, fnv_words, lanes, Outcome, SplitMix};

const ROUNDS: u64 = 1000;
const K: u64 = 4;
const GRACE: Duration = Duration::from_millis(20);
const TIMEOUT: Duration = Duration::from_secs(60);

const CH_REQUEST: u32 = 0;
const CH_DATA: u32 = 1;
const CH_DONE: u32 = 2;

pub fn run(seed: u64, traced: bool) -> Outcome {
    let lanes = lanes();
    let probe = Probe::new(traced);
    // Each lane's seeded message bodies (the inputs), and the checksum of
    // everything each sink received in order.
    let mut rng = SplitMix(seed);
    let bodies: Arc<Vec<Vec<u64>>> = Arc::new(
        (0..lanes)
            .map(|_| (0..ROUNDS * K).map(|_| rng.next_u64()).collect())
            .collect(),
    );
    let received: Arc<Mutex<Vec<Vec<u64>>>> = Arc::new(Mutex::new(vec![Vec::new(); lanes]));
    let rounds_done: Arc<Vec<AtomicU64>> =
        Arc::new((0..lanes).map(|_| AtomicU64::new(0)).collect());
    let first_start = Arc::new(AtomicU64::new(u64::MAX));
    let last_end = Arc::new(AtomicU64::new(0));
    let finished = Arc::new(AtomicUsize::new(0));

    let setup_start = probe.now();
    let env = ThreadedHopeEnv::builder()
        .seed(seed)
        .network(NetworkConfig::local())
        .shards(lanes)
        .build();
    for lane in 0..lanes {
        let tid = 3 * lane as u64;
        let (p, rec, fin) = (probe.clone(), received.clone(), finished.clone());
        let sink = env.spawn_user(&format!("sink-{lane}"), move |ctx| {
            let mut body = Body::open(&p, tid + 1);
            let mut got = Vec::new();
            loop {
                let (m, live) = body.call(ctx, "core.receive", 0, |c| c.receive(None));
                if m.channel != CH_DATA {
                    break;
                }
                if live.is_some() {
                    let stamp = u64::from_le_bytes(m.data[..8].try_into().expect("stamp"));
                    body.sample("deliver", body.now().saturating_sub(stamp));
                }
                got.push(u64::from_le_bytes(m.data[8..16].try_into().expect("body")));
            }
            rec.lock().expect("received lock")[lane] = got;
            fin.fetch_add(1, Ordering::Release);
        });
        let (p, fin) = (probe.clone(), finished.clone());
        let resolver = env.spawn_user(&format!("resolver-{lane}"), move |ctx| {
            let mut body = Body::open(&p, tid + 2);
            loop {
                let (m, _) = body.call(ctx, "core.receive", 0, |c| c.receive(None));
                if m.channel != CH_REQUEST {
                    break;
                }
                let raw = u64::from_le_bytes(m.data[..8].try_into().expect("aid"));
                let aid = AidId::from_raw(ProcessId::from_raw(raw));
                let req = u64::from_le_bytes(m.data[8..16].try_into().expect("round"));
                if let (_, Some(ns)) = body.call(ctx, "core.affirm", req, |c| c.affirm(aid)) {
                    body.sample("affirm", ns);
                }
            }
            fin.fetch_add(1, Ordering::Release);
        });
        let (p, bodies, done) = (probe.clone(), bodies.clone(), rounds_done.clone());
        let (first_start, last_end, fin) =
            (first_start.clone(), last_end.clone(), finished.clone());
        env.spawn_user(&format!("worker-{lane}"), move |ctx| {
            let mut body = Body::open(&p, tid + 3);
            first_start.fetch_min(body.now(), Ordering::Relaxed);
            for round in 0..ROUNDS {
                let req = (lane as u64) << 32 | round;
                let (aid, _) = body.call(ctx, "core.aid_init", req, |c| c.aid_init());
                let mut request = aid.process().as_raw().to_le_bytes().to_vec();
                request.extend_from_slice(&req.to_le_bytes());
                body.call(ctx, "core.send", req, |c| {
                    c.send(resolver, CH_REQUEST, request.into())
                });
                let t0 = body.now();
                let (_, guess_ns) = body.call(ctx, "core.guess", req, |c| c.guess(aid));
                for k in 0..K {
                    let mut data = body.now().to_le_bytes().to_vec();
                    data.extend_from_slice(&bodies[lane][(round * K + k) as usize].to_le_bytes());
                    body.call(ctx, "core.send", req, |c| {
                        c.send(sink, CH_DATA, data.into())
                    });
                }
                let (_, live) = body.call(ctx, "core.await_definite", req, |c| c.await_definite());
                if let (Some(g), Some(_)) = (guess_ns, live) {
                    body.sample("guess", g);
                    body.sample("lat", body.now() - t0);
                    done[lane].fetch_add(1, Ordering::Relaxed);
                }
            }
            last_end.fetch_max(body.now(), Ordering::Relaxed);
            body.call(ctx, "core.send", 0, |c| {
                c.send(resolver, CH_DONE, Bytes::new())
            });
            body.call(ctx, "core.send", 0, |c| c.send(sink, CH_DONE, Bytes::new()));
            fin.fetch_add(1, Ordering::Release);
        });
    }
    let setup_ns = probe.now() - setup_start;

    // Wait for every body to finish before asking for quiescence. The
    // quiescence detector counts a process as idle from the moment it
    // parks until its thread runs again, even with mail already in its
    // mailbox, so a thread the host deschedules for longer than the grace
    // period ends the run early: seen on a shared 2-vCPU host with a 20 ms
    // grace, leaving every process blocked mid-run.
    let deadline = Instant::now() + TIMEOUT;
    while finished.load(Ordering::Acquire) < 3 * lanes && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let report = env.run_until_quiescent(GRACE, TIMEOUT);
    let metrics = env.metrics();
    drop(env);

    let received = std::mem::take(&mut *received.lock().expect("received lock"));
    let mut committed = 0;
    let mut problems = counters::run_problems(&report);
    for lane in 0..lanes {
        let rounds = rounds_done[lane].load(Ordering::Relaxed);
        let in_order = received[lane] == bodies[lane];
        if rounds != ROUNDS || !in_order {
            problems.push(format!(
                "commit: lane {lane} made {rounds} of {ROUNDS} rounds definite; sink got {} of {} \
                 messages, in order: {in_order}",
                received[lane].len(),
                ROUNDS * K
            ));
        }
        if in_order {
            committed += rounds;
        }
    }
    let attempted = ROUNDS * lanes as u64;
    let mut c = counters::Counters::new();
    counters::hope(&mut c, &metrics, &report, committed);
    c.remove("sim.events");
    let start = first_start.load(Ordering::Relaxed);
    let end = last_end.load(Ordering::Relaxed);
    Outcome {
        setup_ns,
        wall_ns: end.saturating_sub(start).max(1),
        ops: committed,
        attempted,
        failed: attempted - committed,
        problems,
        lat_ns: probe.take_samples("lat"),
        virtual_ns: 0,
        inputs: fnv_words(bodies.iter().flatten().copied()),
        counters: c,
        deterministic: false,
        probe,
    }
}
