//! Per-layer counters read from the library's public reports:
//! `MetricsSnapshot`, `MessageStats`/`LinkStats`, `RunReport` and
//! `DurableSnapshot`.

use std::collections::BTreeMap;

use hope_core::{DurableSnapshot, MetricsSnapshot};
use hope_runtime::{LinkStats, RunReport};

/// Counter name to value, in a fixed order so two runs compare exactly.
pub type Counters = BTreeMap<&'static str, f64>;

/// HOPE library, replay and delivery counters of one run; `ops` is the
/// number of completed operations, the base of `core.hope_msgs_per_op`.
pub fn hope(c: &mut Counters, hope: &MetricsSnapshot, run: &RunReport, ops: u64) {
    let stats = &run.stats;
    let wasted = hope.attribution.total();
    c.insert("core.implicit_guesses", hope.implicit_guesses as f64);
    c.insert("core.finalized_intervals", hope.finalized_intervals as f64);
    for (name, kind) in [
        ("core.msgs.guess", "Guess"),
        ("core.msgs.affirm", "Affirm"),
        ("core.msgs.deny", "Deny"),
        ("core.msgs.replace", "Replace"),
        ("core.msgs.rollback", "Rollback"),
    ] {
        c.insert(name, stats.count_kind(kind) as f64);
    }
    c.insert(
        "core.hope_msgs_per_op",
        stats.total_hope() as f64 / ops.max(1) as f64,
    );
    c.insert("replay.rollbacks", hope.rollbacks as f64);
    c.insert("replay.reexecutions", hope.reexecutions as f64);
    c.insert("replay.replayed_ops", hope.replayed_ops as f64);
    c.insert("replay.wasted_ops", wasted.ops_discarded as f64);
    let settled = hope.finalized_intervals + wasted.intervals_discarded;
    if settled > 0 {
        c.insert(
            "replay.useful_ratio",
            hope.finalized_intervals as f64 / settled as f64,
        );
    }
    c.insert("sim.events", run.events as f64);
    c.insert("fabric.msgs", stats.total() as f64);
    link(c, stats.link());
}

/// Reliable-sublayer and tag-codec counters.
pub fn link(c: &mut Counters, l: &LinkStats) {
    for (name, v) in [
        ("reliable.acks", l.acks),
        ("reliable.retransmits", l.retransmits),
        ("reliable.dedup_dropped", l.dedup_dropped),
        ("reliable.tag_bytes_full", l.tag_bytes_full),
        ("reliable.tag_bytes_wire", l.tag_bytes_wire),
        ("reliable.tags_full", l.tags_full),
        ("reliable.tags_delta", l.tags_delta),
        ("reliable.tag_resyncs", l.tag_resyncs),
    ] {
        *c.entry(name).or_default() += v as f64;
    }
}

/// Durable op-log store counters.
pub fn store(c: &mut Counters, s: &DurableSnapshot) {
    c.insert("store.events", s.store.events as f64);
    c.insert("store.syncs", s.store.syncs as f64);
    c.insert("store.checkpoints", s.store.checkpoints as f64);
    c.insert("store.rotations", s.store.rotations as f64);
    c.insert("store.max_live_segments", s.store.max_live_segments as f64);
}

/// What a run report says went wrong: panics, an event-limit or timeout
/// stop, and processes left blocked.
pub fn run_problems(run: &RunReport) -> Vec<String> {
    let mut problems = Vec::new();
    if !run.panics.is_empty() {
        problems.push(format!("process panics: {:?}", run.panics));
    }
    if run.hit_event_limit {
        problems.push("run stopped at its event limit or timeout".into());
    }
    if !run.blocked.is_empty() {
        problems.push(format!("processes left blocked: {:?}", run.blocked));
    }
    problems
}
