//! The traced run: every cell rebuilt and stepped one event at a time,
//! with each `Engine::step` timed and credited to the layer that owns the
//! dispatched event's tag.

use crate::cells::{Cell, CellOut, Dispatch};
use mts_sim::{Dur, UNTAGGED_EVENT};
use std::cell::Cell as Flag;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Every dispatch tag the stack schedules, with the layer (named after its
/// module) that owns it. Untagged events are the boxed closures of the TCP
/// host (`mts-core::tcphost`) and the workload harness's warm-up reset.
pub const TAGS: [(&str, &str); 12] = [
    ("nic.rx", "nic"),
    ("vswitch.rx", "vswitch"),
    ("vswitch.exec", "vswitch"),
    ("dma", "host"),
    ("vhost.deliver", "host"),
    ("tenant.rx", "tenant"),
    ("tenant.exec", "tenant"),
    ("tenant.drain", "tenant"),
    ("gen.tick", "gen"),
    ("wire.tx", "wire"),
    ("wire.rx", "wire"),
    (UNTAGGED_EVENT, "tcp"),
];

/// The layer that owns a dispatch tag, if the tag is known.
pub fn layer_of(tag: &str) -> Option<&'static str> {
    TAGS.iter().find(|(t, _)| *t == tag).map(|(_, l)| *l)
}

/// Step time and event count per dispatch tag, summed over cells.
#[derive(Debug, Default)]
pub struct Trace {
    /// `tag -> (events, summed step time)`.
    pub by_tag: BTreeMap<&'static str, (u64, Duration)>,
    /// Wall time of the stepping loops, tag lookup included.
    pub loop_wall: Duration,
    /// Most events pending at once in any cell.
    pub peak_pending: usize,
    /// Deterministic work counters (see [`Cell::counters`]).
    pub counters: BTreeMap<String, u64>,
    /// Frames that left the device under test, delivered or dropped.
    pub frames_out: u64,
    /// Of those, delivered.
    pub frames_delivered: u64,
}

impl Trace {
    /// Events and step time credited to `layer`.
    pub fn layer(&self, layer: &str) -> (u64, Duration) {
        self.by_tag
            .iter()
            .filter(|(t, _)| layer_of(t) == Some(layer))
            .fold((0, Duration::ZERO), |acc, (_, v)| {
                (acc.0 + v.0, acc.1 + v.1)
            })
    }

    pub fn tag(&self, tag: &str) -> (u64, Duration) {
        self.by_tag.get(tag).copied().unwrap_or_default()
    }
}

/// The tag whose dispatch count grew by one since `prev`; updates `prev`.
fn fired_tag(prev: &mut Dispatch, now: &[(&'static str, u64)]) -> &'static str {
    let tag = now
        .iter()
        .find(|(t, n)| prev.iter().find(|(p, _)| p == t).map_or(0, |p| p.1) != *n)
        .map(|(t, _)| *t)
        .expect("a step fires exactly one event");
    prev.clear();
    prev.extend_from_slice(now);
    tag
}

/// Runs `cell` to its deadline one timed `step` at a time and harvests it.
///
/// A sentinel closure scheduled one nanosecond past the deadline ends the
/// loop: every event `run_until` would fire runs first, and none after it.
/// Only the `step` call is timed; the tag lookup runs outside the interval.
pub fn trace_cell(cell: &Cell, trace: &mut Trace) -> Result<CellOut, String> {
    let mut b = cell
        .build(&mut Default::default())
        .map_err(|e| e.to_string())?;
    let done = Rc::new(Flag::new(false));
    let flag = done.clone();
    b.e.schedule_at(b.deadline + Dur::nanos(1), move |_, _| flag.set(true));

    let mut prev: Dispatch = b.e.dispatch_counts().collect();
    let mut now = Vec::with_capacity(16);
    let loop_start = Instant::now();
    loop {
        let t0 = Instant::now();
        let fired = b.e.step(&mut b.w);
        let dt = t0.elapsed();
        if !fired || done.get() {
            break;
        }
        now.clear();
        now.extend(b.e.dispatch_counts());
        let tag = fired_tag(&mut prev, &now);
        if layer_of(tag).is_none() {
            return Err(format!("dispatch tag {tag:?} maps to no layer"));
        }
        let slot = trace.by_tag.entry(tag).or_default();
        slot.0 += 1;
        slot.1 += dt;
        trace.peak_pending = trace.peak_pending.max(b.e.pending());
    }
    trace.loop_wall += loop_start.elapsed();
    if !done.get() {
        return Err("the event queue ran dry before the deadline".to_string());
    }

    // `prev` holds the counts before the sentinel fired.
    let dispatch = prev;
    let mut out = cell.harvest(&b, &dispatch);
    Cell::counters(&b, &dispatch, &mut trace.counters);

    // A `Testbed` cell stops with frames possibly in flight: drain the
    // queue (untimed) and check that every generated frame was delivered
    // to the sink or dropped. Each generator tick emits one frame, except
    // the last, which finds generation over.
    if let Cell::Testbed { .. } = cell {
        while b.e.step(&mut b.w) {}
        let counts: BTreeMap<_, _> = b.e.dispatch_counts().collect();
        let offered = counts
            .get("gen.tick")
            .copied()
            .unwrap_or(1)
            .saturating_sub(1);
        let delivered = counts.get("wire.rx").copied().unwrap_or(0);
        let dropped: u64 = b.w.drops.values().sum();
        out.conservation = Some((offered, delivered, dropped));
        trace.frames_out += delivered + dropped;
        trace.frames_delivered += delivered;
    } else {
        let delivered = dispatch
            .iter()
            .find(|(t, _)| *t == "wire.rx")
            .map_or(0, |d| d.1);
        let dropped: u64 = b.w.drops.values().sum();
        trace.frames_out += delivered + dropped;
        trace.frames_delivered += delivered;
    }
    Ok(out)
}
