//! The untraced run (end-to-end metrics) and the traced run (per-layer
//! metrics) of one workload.

use crate::cells::{Cell, SetupTimes};
use crate::trace::{trace_cell, Trace, TAGS};
use crate::workloads::{check_cell, Workload};
use mts_telemetry::DropCause;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-up passes are interleaved with the ops so that `setup_s` samples
/// the same stretch of machine time as `wall_s`: after each op, passes
/// run for this share of the op's wall time (at least one pass).
const SETUP_SHARE: f64 = 0.05;
/// Set-up passes the traced run times for its per-step breakdown.
const TRACED_SETUP_PASSES: usize = 20;

/// Alternating telemetry on/off op pairs in the traced run.
const TELEMETRY_AB_PAIRS: usize = 3;

/// One metric of the result line.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable notes: failures and per-op timings.
    pub notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The single-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`).
pub fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// User plus system CPU seconds of this process (`/proc/self/stat`,
/// clock ticks at the Linux user-space rate of 100 Hz).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse().ok())
        .collect();
    f.iter().sum::<u64>() as f64 / 100.0
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panic: {msg}"))
    })
}

/// Fills the library's pre-check memo, as the first `repro` pass does.
fn fill_precheck(wl: Workload, seed: u64) -> Result<(), String> {
    guarded(|| {
        wl.precheck(seed);
        Ok(())
    })
}

/// Repeats set-up passes for `budget` (at least one); appends each pass's
/// timings to `passes`.
fn setup_passes(
    wl: Workload,
    seed: u64,
    budget: Duration,
    passes: &mut Vec<SetupTimes>,
) -> Result<(), String> {
    let start = Instant::now();
    loop {
        passes.push(guarded(|| wl.setup_pass(seed))?);
        if start.elapsed() >= budget {
            return Ok(());
        }
    }
}

/// Untraced run: ops back to back for `seconds`, each followed by set-up
/// passes. The first op warms caches and the heap and is checked but not
/// timed. Reports `wall_s`, `setup_s` and `peak_rss_mb`.
pub fn run_untraced(wl: Workload, seed: u64, seconds: f64) -> Report {
    let mut r = Report::default();
    if let Err(e) = fill_precheck(wl, seed) {
        // Every op runs the pre-check again and fails on it.
        r.notes.push(format!("pre-check failed: {e}"));
    }
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut setup = Vec::new();
    let mut peak_rss_kb = 0;
    loop {
        r.attempted += 1;
        let t0 = Instant::now();
        let result = guarded(|| wl.op(seed));
        let wall = t0.elapsed().as_secs_f64();
        if r.attempted > 1 {
            walls.push(wall);
        } else {
            // The heap grows slowly over repeated ops; the peak of the
            // first op does not depend on how many ops fit in the run.
            peak_rss_kb = proc_status_kb("VmHWM");
        }
        let mut failures = match result {
            Ok(out) => wl.check(seed, &out),
            Err(e) => vec![e],
        };
        let budget = Duration::from_secs_f64(wall * SETUP_SHARE);
        if let Err(e) = setup_passes(wl, seed, budget, &mut setup) {
            failures.push(format!("set-up failed: {e}"));
        }
        let warmup = if r.attempted == 1 { " (warm-up)" } else { "" };
        r.notes
            .push(format!("op {} wall {wall:.4} s{warmup}", r.attempted));
        if !failures.is_empty() {
            r.failed += 1;
            r.notes.extend(failures);
        }
        // Start another op only if it should end within the measuring
        // time, but time at least one.
        if !walls.is_empty() && start.elapsed().as_secs_f64() + wall >= seconds {
            break;
        }
    }
    let setup_s: Vec<f64> = setup.iter().map(|t| t.total().as_secs_f64()).collect();
    r.metric("wall_s", median(&walls), "s");
    r.metric("setup_s", median(&setup_s), "s");
    r.metric("peak_rss_mb", peak_rss_kb as f64 / 1024.0, "MiB");
    r.notes.push(format!("{} set-up passes", setup.len()));
    r
}

/// Traced run: one untraced op, then every cell rebuilt and traced, then
/// (telemetry workload) the telemetry on/off A/B. Reports the per-layer
/// metrics.
pub fn run_traced(wl: Workload, seed: u64) -> Report {
    let mut r = Report::default();
    let setup = fill_precheck(wl, seed).and_then(|()| {
        (0..TRACED_SETUP_PASSES)
            .map(|_| guarded(|| wl.setup_pass(seed)))
            .collect::<Result<Vec<_>, _>>()
    });
    let setup = setup.unwrap_or_else(|e| {
        r.attempted += 1;
        r.failed += 1;
        r.notes.push(format!("set-up failed: {e}"));
        Vec::new()
    });
    let part = |f: fn(&SetupTimes) -> Duration| {
        median(&setup.iter().map(|t| f(t).as_secs_f64()).collect::<Vec<_>>())
    };

    // Telemetry memory, measured before any other op has grown the heap.
    let mut bytes_per_frame = 0.0;
    if wl == Workload::TelemetryV2vL2_2 {
        match guarded(|| telemetry_bytes_per_frame(wl, seed)) {
            Ok(b) => bytes_per_frame = b,
            Err(e) => r.notes.push(format!("telemetry memory probe failed: {e}")),
        }
    }

    // The untraced op: the reference the rebuilt cells must reproduce.
    r.attempted += 1;
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let untraced = guarded(|| wl.op(seed));
    let untraced_wall = t0.elapsed().as_secs_f64();
    let op_cpu = process_cpu_s() - cpu0;
    let untraced = match untraced {
        Ok(out) => {
            let failures = wl.check(seed, &out);
            if !failures.is_empty() {
                r.failed += 1;
                r.notes.extend(failures);
            }
            out
        }
        Err(e) => {
            r.failed += 1;
            r.notes.push(e);
            Vec::new()
        }
    };

    let cells = wl.cells(seed);
    if cells.len() != untraced.len() {
        r.failed += 1;
        r.notes.push(format!(
            "{} cells rebuilt, the untraced op reported {}",
            cells.len(),
            untraced.len()
        ));
    }
    let mut tr = Trace::default();
    for (i, cell) in cells.iter().enumerate() {
        r.attempted += 1;
        let failures = match guarded(|| trace_cell(cell, &mut tr)) {
            Ok(out) => {
                let mut f = check_cell(&out);
                match untraced.get(i) {
                    Some(u) if u.line == out.line => {}
                    Some(u) => f.push(format!(
                        "traced output differs from the untraced op:\n  traced   {}\n  untraced {}",
                        out.line, u.line
                    )),
                    None => f.push("no untraced output to compare with".to_string()),
                }
                f
            }
            Err(e) => vec![e],
        };
        if !failures.is_empty() {
            r.failed += 1;
            r.notes.extend(
                failures
                    .into_iter()
                    .map(|f| format!("traced cell {i}: {f}")),
            );
        }
    }

    let (mut overhead_s, mut audit_s, mut journeys) = (0.0, 0.0, 0.0);
    if wl == Workload::TelemetryV2vL2_2 {
        match guarded(|| telemetry_ab(wl, seed)) {
            Ok(ab) => (overhead_s, audit_s, journeys) = ab,
            Err(e) => {
                r.failed += 1;
                r.notes.push(format!("telemetry A/B failed: {e}"));
            }
        }
    }

    layer_metrics(&mut r, &tr);
    r.metric("telemetry.overhead_s", overhead_s, "s");
    r.metric("telemetry.audit_s", audit_s, "s");
    r.metric("telemetry.bytes_per_frame", bytes_per_frame, "B/frame");
    r.metric("telemetry.journeys", journeys, "count");
    r.metric("isocheck.verify_s", part(|t| t.verify), "s");
    r.metric("controller.deploy_s", part(|t| t.deploy), "s");
    r.metric("core.world_new_s", part(|t| t.world_new), "s");
    r.metric("core.attach_s", part(|t| t.attach), "s");
    r.metric("process.cpu_s", op_cpu, "s");
    let self_total: Duration = tr.by_tag.values().map(|v| v.1).sum();
    let loop_wall = tr.loop_wall.as_secs_f64();
    r.metric("trace.overhead_ratio", loop_wall / untraced_wall, "ratio");
    r.metric(
        "trace.coverage",
        self_total.as_secs_f64() / loop_wall,
        "ratio",
    );
    r.metric("fail_ratio", r.failed as f64 / r.attempted as f64, "ratio");
    r.notes.push(format!(
        "untraced op {untraced_wall:.4} s, traced loops {loop_wall:.4} s"
    ));
    r
}

/// The per-layer time and counter metrics of a trace.
fn layer_metrics(r: &mut Report, tr: &Trace) {
    let c = |k: &str| tr.counters.get(k).copied().unwrap_or(0) as f64;
    let ns_per = |d: Duration, n: u64| {
        if n == 0 {
            0.0
        } else {
            d.as_nanos() as f64 / n as f64
        }
    };
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };

    let events = c("sim.events");
    let self_total: Duration = tr.by_tag.values().map(|v| v.1).sum();
    r.metric("sim.events", events, "count");
    r.metric(
        "sim.events_per_frame",
        ratio(events, tr.frames_out as f64),
        "events/frame",
    );
    r.metric("sim.peak_pending", tr.peak_pending as f64, "count");
    r.metric("sim.ns_per_event", ns_per(self_total, events as u64), "ns");
    r.metric(
        "sim.untagged_share",
        ratio(c(&format!("dispatch.{}", mts_sim::UNTAGGED_EVENT)), events),
        "ratio",
    );

    for layer in ["nic", "vswitch", "host", "tenant", "gen", "wire", "tcp"] {
        let (n, d) = tr.layer(layer);
        r.metric(format!("{layer}.events"), n as f64, "count");
        r.metric(format!("{layer}.self_s"), d.as_secs_f64(), "s");
    }
    let (n, d) = tr.layer("nic");
    r.metric("nic.ns_per_event", ns_per(d, n), "ns");
    let (n, d) = tr.tag("vswitch.exec");
    r.metric("vswitch.exec_ns_per_event", ns_per(d, n), "ns");
    let (hits, misses) = (c("vswitch.cache_hits"), c("vswitch.cache_misses"));
    r.metric(
        "vswitch.cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    r.metric("vswitch.cache_hits", hits, "count");
    r.metric("vswitch.cache_misses", misses, "count");
    r.metric("vswitch.cache_flushes", c("vswitch.cache_flushes"), "count");
    let (n, d) = tr.layer("tcp");
    r.metric("tcp.ns_per_event", ns_per(d, n), "ns");
    r.metric("tcp.app_ops", c("tcp.app_ops"), "count");

    r.metric(
        "dut.delivered_ratio",
        ratio(tr.frames_delivered as f64, tr.frames_out as f64),
        "ratio",
    );
    for cause in DropCause::ALL {
        let k = format!("drops.{}", cause.as_str());
        r.metric(k.clone(), c(&k), "count");
    }
    for (tag, _) in TAGS {
        let k = format!("dispatch.{tag}");
        r.metric(k.clone(), c(&k), "count");
    }
}

/// Resident memory the telemetry recorder holds per offered frame: RSS
/// after the run, with the world still alive, minus RSS before it.
fn telemetry_bytes_per_frame(wl: Workload, seed: u64) -> Result<f64, String> {
    let mut frames = 0;
    let mut worlds = Vec::new();
    let before = proc_status_kb("VmRSS");
    for cell in wl.cells(seed) {
        let (b, _) = cell.run_to_deadline().map_err(|e| e.to_string())?;
        frames += b.w.sink.sent;
        worlds.push(b);
    }
    let after = proc_status_kb("VmRSS");
    drop(worlds);
    Ok(after.saturating_sub(before) as f64 * 1024.0 / frames.max(1) as f64)
}

/// Telemetry on versus off on the same cells, alternating. Returns the
/// median wall-time difference, the median audit time and the journeys
/// recorded per op.
fn telemetry_ab(wl: Workload, seed: u64) -> Result<(f64, f64, f64), String> {
    let on: Vec<Cell> = wl.cells(seed);
    let off: Vec<Cell> = on
        .iter()
        .map(|c| match c {
            Cell::Udp(u) => Cell::Udp(crate::cells::UdpCell {
                telemetry: false,
                ..u.clone()
            }),
            other => other.clone(),
        })
        .collect();
    let (mut on_walls, mut off_walls, mut audits) = (Vec::new(), Vec::new(), Vec::new());
    let mut journeys = 0;
    for pair in 0..TELEMETRY_AB_PAIRS {
        // Alternate which side runs first.
        let order = if pair % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        for telemetry_on in order {
            let cells = if telemetry_on { &on } else { &off };
            let t0 = Instant::now();
            let outs = cells
                .iter()
                .map(|c| c.run().map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()?;
            let wall = t0.elapsed().as_secs_f64();
            if telemetry_on {
                on_walls.push(wall);
                audits.push(outs.iter().map(|o| o.audit.as_secs_f64()).sum());
                journeys = outs.iter().map(|o| o.journeys).sum::<u64>();
            } else {
                off_walls.push(wall);
            }
        }
    }
    Ok((
        median(&on_walls) - median(&off_walls),
        median(&audits),
        journeys as f64,
    ))
}
