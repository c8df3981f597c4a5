//! `wire`: a closed-loop echo between two `NetTransport`s in one process
//! over loopback TCP, on one connection pair.
//!
//! The client (this thread) sends a seeded payload from node 0 to node 1
//! and waits for it to come back; an echo thread on node 1 sends every
//! payload straight back. No HOPE primitive crosses the socket, so this
//! measures the transport alone: framing, the reliable sublayer's
//! sequencing and acks, the supervisor threads and socket I/O.

use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc;
use std::time::Duration;

use bytes::Bytes;
use hope_runtime::{NetConfig, NetTransport, NodeDirectory};
use hope_types::net::NodeId;

use crate::counters::{self, Counters};
use crate::probe::{Probe, Span};
use crate::{fnv, fnv_words, Outcome, SplitMix};

const ROUND_TRIPS: u64 = 2_000;
const ECHO_TIMEOUT: Duration = Duration::from_secs(5);
const LINK_TIMEOUT: Duration = Duration::from_secs(10);

const CLIENT: NodeId = NodeId::from_raw(0);
const SERVER: NodeId = NodeId::from_raw(1);

fn transport(
    node: NodeId,
    dir: &NodeDirectory,
    listener: TcpListener,
) -> (NetTransport, mpsc::Receiver<Bytes>) {
    let (tx, rx) = mpsc::channel();
    let sink = move |_from: NodeId, data: Bytes| {
        let _ = tx.send(data);
    };
    let t = NetTransport::bind_on(NetConfig::new(node, dir.clone()), listener, sink)
        .expect("start transport on a bound loopback listener");
    (t, rx)
}

fn loopback() -> (TcpListener, SocketAddr) {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = l.local_addr().expect("bound address");
    (l, addr)
}

/// Sends `data`, recording a `net.send` span under `parent` when traced.
fn timed_send(
    probe: &Probe,
    spans: &mut Vec<Span>,
    (tid, parent, req): (u64, u64, u64),
    t: &NetTransport,
    to: NodeId,
    data: Bytes,
) -> bool {
    let start_ns = probe.now();
    let ok = t.send(to, data).is_ok();
    if probe.traced {
        let id = probe.id();
        let end_ns = probe.now();
        spans.push(Span {
            name: "net.send",
            id,
            parent,
            req,
            tid,
            start_ns,
            end_ns,
        });
    }
    ok
}

pub fn run(seed: u64, traced: bool) -> Outcome {
    let probe = Probe::new(traced);
    let mut rng = SplitMix(seed);
    let payloads: Vec<Bytes> = (0..ROUND_TRIPS)
        .map(|seq| {
            let len = 16 + (rng.next_u64() % 241) as usize;
            let mut data = seq.to_le_bytes().to_vec();
            data.extend((0..len).map(|_| rng.next_u64() as u8));
            Bytes::from(data)
        })
        .collect();

    let setup_start = probe.now();
    let (la, addr_a) = loopback();
    let (lb, addr_b) = loopback();
    let dir = NodeDirectory::new()
        .with_node(CLIENT, addr_a)
        .with_node(SERVER, addr_b);
    let (client, replies) = transport(CLIENT, &dir, la);
    let (server, requests) = transport(SERVER, &dir, lb);
    let mut linked = false;
    while probe.now() - setup_start < LINK_TIMEOUT.as_nanos() as u64 {
        if client.link_up(SERVER) && server.link_up(CLIENT) {
            linked = true;
            break;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    let setup_ns = probe.now() - setup_start;

    let mut problems = Vec::new();
    let mut lat = Vec::with_capacity(ROUND_TRIPS as usize);
    let mut client_spans = Vec::new();
    let (echo_spans, server_stats, client_stats, wall_ns) = std::thread::scope(|s| {
        let (probe, server) = (&probe, &server);
        let echo = s.spawn(move || {
            let mut spans = Vec::new();
            // An empty payload (or silence) ends the echo loop.
            while let Ok(data) = requests.recv_timeout(ECHO_TIMEOUT) {
                if data.is_empty() {
                    break;
                }
                timed_send(probe, &mut spans, (2, 0, 0), server, CLIENT, data);
            }
            spans
        });
        let start = probe.now();
        if !linked {
            problems.push("wire: link did not come up".to_string());
        }
        for (seq, payload) in payloads.iter().enumerate().take_while(|_| linked) {
            let (req, id, t0) = (seq as u64, probe.id(), probe.now());
            if !timed_send(
                probe,
                &mut client_spans,
                (1, id, req),
                &client,
                SERVER,
                payload.clone(),
            ) {
                problems.push(format!("wire: send {seq} refused"));
                break;
            }
            match replies.recv_timeout(ECHO_TIMEOUT) {
                Ok(echo) if echo == *payload => {
                    let end_ns = probe.now();
                    lat.push(end_ns - t0);
                    if probe.traced {
                        let rt = Span {
                            name: "net.round_trip",
                            id,
                            parent: 0,
                            req,
                            tid: 1,
                            start_ns: t0,
                            end_ns,
                        };
                        client_spans.push(rt);
                    }
                }
                Ok(_) => {
                    problems.push(format!("wire: echo {seq} differs from what was sent"));
                    break;
                }
                Err(_) => {
                    problems.push(format!("wire: no echo for {seq} within {ECHO_TIMEOUT:?}"));
                    break;
                }
            }
        }
        let wall_ns = probe.now() - start;
        let _ = client.send(SERVER, Bytes::new());
        let spans = echo.join().expect("echo thread");
        (spans, server.stats(), client.stats(), wall_ns)
    });
    drop((client, server));

    probe.push_spans(client_spans);
    probe.push_spans(echo_spans);
    let ops = lat.len() as u64;
    let mut c = Counters::new();
    counters::link(&mut c, &client_stats);
    counters::link(&mut c, &server_stats);
    let (a, b) = (&client_stats, &server_stats);
    c.insert("net.retransmits", (a.retransmits + b.retransmits) as f64);
    c.insert("net.parked", (a.parked + b.parked) as f64);
    c.insert("net.reconnects", (a.reconnects + b.reconnects) as f64);
    c.insert("net.srtt_ns", a.srtt_nanos as f64);
    Outcome {
        setup_ns,
        wall_ns,
        ops,
        attempted: ROUND_TRIPS,
        failed: ROUND_TRIPS - ops,
        problems,
        lat_ns: lat,
        virtual_ns: 0,
        inputs: fnv_words(payloads.iter().map(|p| fnv(p))),
        counters: c,
        deterministic: false,
        probe,
    }
}
