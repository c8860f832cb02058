//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] [--out DIR] \
//!   [--trace-out FILE] [--metrics-out FILE] [--bench-out FILE] \
//!   [all|verify|fuzz|fig5|fig6|pktsize|table1|vfcount|isolation|overlay|trace|faults|slo]...
//! ```
//!
//! Prints aligned tables to stdout and writes CSV files under `--out`
//! (default `results/`). `--quick` scales measurement windows down ~8x for
//! a fast smoke pass.
//!
//! The `verify` target runs the static isolation/complete-mediation
//! verifier (`mts-isocheck`, see `VERIFICATION.md`) over every shipped
//! compartmentalized configuration, then seeds three canonical
//! misconfigurations and demands each is detected with a concrete
//! counterexample witness. It then exercises the *incremental* verifier:
//! crash-shaped configuration churn across the shipped matrix must stay
//! byte-identical to the from-scratch analysis after every delta, the
//! three misconfigurations re-seeded through the delta path must be
//! detected incrementally, and `diff_levels()` must show every hardened
//! configuration free of reachability regressions against its Baseline.
//! Exits nonzero on any failure. The same analysis also runs
//! automatically as a pre-flight check before every simulated scenario.
//!
//! The `fuzz` target runs the deterministic structured fuzzing campaign
//! (`mts-fuzz`, see `ROBUSTNESS.md`): fixed-seed generators and mutators
//! over the wire codec, the fault-plan grammar, hostile `ConfigDelta`
//! streams through the incremental verifier (full `verify()` as the
//! differential oracle), and reconciliation damage — plus the two live
//! modes (per-level NIC zero-leak injection and in-world byte injection
//! under traffic). It then replays the committed crasher corpus
//! (`tests/corpus/`) and exits nonzero on any invariant violation,
//! replay failure, or an empty corpus. `--quick` runs the 10k-case
//! budget; the default budget is ~5x larger.
//!
//! The `trace` target (implied when `--trace-out`/`--metrics-out` is given
//! without an explicit target) runs a Level-2 v2v scenario with telemetry
//! enabled, audits complete mediation over every frame journey, and writes
//! a Chrome trace-event file (open in <https://ui.perfetto.dev>), a JSONL
//! event log (`FILE.jsonl` sibling), and a Prometheus-style metrics
//! snapshot. See `OBSERVABILITY.md`.
//!
//! The `faults` target runs the blast-radius and recovery panel
//! (`mts-faults`, see `ROBUSTNESS.md`): every security level under every
//! fault scenario, with the supervisor recovering the deployment. It
//! self-checks the headline containment claims (Level-2 compartment kill
//! loses zero frames of other compartments; Baseline loses everyone's),
//! the `offered = delivered + Σ typed drops` accounting identity, and the
//! post-recovery isolation verification — exiting nonzero on any failure.
//! With `--trace-out`/`--metrics-out`, it additionally runs a traced
//! Level-2 crash-and-recover cell and exports its trace and metrics.
//!
//! The `slo` target runs the `mts-slo` panel (see `OBSERVABILITY.md`): the
//! noisy-neighbor SLO matrix (p50/p99/p999, loss, and meter-attributed
//! cycles per victim tenant, per security level), the billing-accuracy
//! experiment (billed vs ground-truth cycles), and the cycle-conservation
//! audit (`billed + unattributed == measured`, exact, at every level). It
//! self-checks every headline claim and exits nonzero on violation. It
//! also runs the simulator self-profiler plus the verification-throughput
//! workload (`verify-churn-l2-4`: fault-recovery delta streams replayed
//! through the incremental checker vs full re-verification per delta —
//! byte-identical, and non-quick runs fail below a 10x speedup), and
//! writes the perf-trajectory snapshot (`--bench-out`, default
//! `OUT/BENCH_MTS.json`; schema `mts-bench-v1`, validated by `cargo xtask
//! bench-check`). Wall-clock timing appears only in that snapshot — every
//! table and CSV is simulated-time-only and byte-deterministic for a
//! given seed.

use mts_bench::figures::{
    fig5_panel, fig6_csv, fig6_panel, isolation_matrix, pktsize_sweep, render_fig6, vf_count_table,
    Fig5Panel, Fig6Panel, ReproOpts,
};
use mts_core::controller::Deployment;
use mts_core::delta::ConfigDelta;
use mts_core::perfiso;
use mts_core::runtime::{start_udp_generator, RuntimeCfg, Sim, World};
use mts_core::spec::{DeploymentSpec, Scenario, SecurityLevel};
use mts_core::survey;
use mts_core::workloads::Workload;
use mts_core::{overlay, Controller};
use mts_host::ResourceMode;
use mts_nic::{FilterAction, FilterRule, NicPort, PfId, PortClass, VfConfig};
use mts_sim::Time;
use mts_telemetry::{MediationAuditor, Recorder, Telemetry};
use mts_vswitch::DatapathKind;
use std::fs;
use std::path::{Path, PathBuf};

/// Every target `repro` accepts.
const TARGETS: &[&str] = &[
    "all",
    "verify",
    "fuzz",
    "fig5",
    "fig6",
    "pktsize",
    "table1",
    "vfcount",
    "isolation",
    "overlay",
    "trace",
    "faults",
    "slo",
];

struct Args {
    quick: bool,
    out: PathBuf,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    bench_out: Option<PathBuf>,
    what: Vec<String>,
}

fn parse_args() -> Args {
    let mut quick = false;
    let mut out = PathBuf::from("results");
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut bench_out = None;
    let mut what = Vec::new();
    let mut args = std::env::args().skip(1);
    fn value(flag: &str, args: &mut impl Iterator<Item = String>) -> PathBuf {
        args.next().map(PathBuf::from).unwrap_or_else(|| {
            eprintln!("repro: {flag} requires a path argument");
            std::process::exit(2);
        })
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = value("--out", &mut args),
            "--trace-out" => trace_out = Some(value("--trace-out", &mut args)),
            "--metrics-out" => metrics_out = Some(value("--metrics-out", &mut args)),
            "--bench-out" => bench_out = Some(value("--bench-out", &mut args)),
            other => what.push(other.to_string()),
        }
    }
    if what.is_empty() {
        // Exporter flags without an explicit target imply the run that
        // produces them.
        if bench_out.is_some() {
            what.push("slo".to_string());
        } else if trace_out.is_some() || metrics_out.is_some() {
            what.push("trace".to_string());
        } else {
            what.push("all".to_string());
        }
    }
    Args {
        quick,
        out,
        trace_out,
        metrics_out,
        bench_out,
        what,
    }
}

fn save(out_dir: &PathBuf, name: &str, content: &str) {
    if fs::create_dir_all(out_dir).is_ok() {
        let path = out_dir.join(name);
        if fs::write(&path, content).is_ok() {
            eprintln!("  wrote {}", path.display());
        }
    }
}

fn run_fig5(opts: ReproOpts, out: &PathBuf) {
    for panel in Fig5Panel::ALL {
        let (tput, lat, res) = fig5_panel(panel, opts);
        println!("{}", tput.render_throughput());
        println!("{}", lat.render_latency());
        println!("{}", res.render_resources());
        let tag = panel.label().split(' ').next().unwrap_or("row");
        save(out, &format!("fig5_{tag}_throughput.csv"), &tput.to_csv());
        save(out, &format!("fig5_{tag}_latency.csv"), &lat.to_csv());
    }
}

fn run_fig6(opts: ReproOpts, out: &PathBuf) {
    for row in Fig5Panel::ALL {
        for workload in Workload::ALL {
            let panel = Fig6Panel { row, workload };
            let rows = fig6_panel(panel, opts);
            println!("{}", render_fig6(panel.name(), workload, &rows));
            save(out, &format!("{}.csv", panel.tag()), &fig6_csv(&rows));
        }
    }
}

/// The observability showcase: a Level-2 v2v run with full telemetry,
/// mediation audit, and the trace/metrics exporters.
fn run_trace(quick: bool, trace_out: Option<&Path>, metrics_out: Option<&Path>) {
    let spec = DeploymentSpec::mts(
        SecurityLevel::Level2 { compartments: 2 },
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        Scenario::V2v,
    );
    let d = Controller::deploy(spec).expect("deployable");
    let mut w = World::new(d, RuntimeCfg::for_spec(&spec), 1);
    w.sink.window = (Time::ZERO, Time::MAX);
    w.telemetry = Telemetry::enabled();
    let mut e = Sim::new();
    let flows = w.probe_flows();
    let horizon = if quick { 2_000_000 } else { 10_000_000 };
    start_udp_generator(&mut e, flows, 50_000.0, 64, Time::from_nanos(horizon));
    e.run_until(&mut w, Time::from_nanos(horizon * 3));

    let rec = w.telemetry.recorder().expect("telemetry enabled");
    let report = MediationAuditor::sriov().audit(&rec.journeys);
    println!("== frame-journey trace (Level-2 v2v, kernel, isolated) ==");
    println!(
        "frames: sent {}  received {}  journeys {}  trace events {}",
        w.sink.sent,
        w.sink.received,
        rec.journeys.len(),
        rec.trace.len()
    );
    println!(
        "mediation audit: {} tenant segments checked, {} skipped, {} violations",
        report.checked,
        report.skipped,
        report.violations.len()
    );
    for v in report.violations.iter().take(5) {
        println!("  VIOLATION frame {}: {}", v.frame, v.reason);
    }
    if !report.ok() {
        eprintln!("repro: complete-mediation audit FAILED");
        std::process::exit(1);
    }
    write_exports(rec, trace_out, metrics_out);
}

/// Writes a recorder's trace (Chrome JSON + JSONL sibling) and metrics
/// (Prometheus text + JSONL sibling) to the requested paths; exits 1 if a
/// file cannot be written.
fn write_exports(rec: &Recorder, trace_out: Option<&Path>, metrics_out: Option<&Path>) {
    if let Some(p) = trace_out {
        write_or_die(p, rec.trace.to_chrome_trace(), " (open in ui.perfetto.dev)");
        write_or_die(&p.with_extension("jsonl"), rec.trace.to_jsonl(), "");
    }
    if let Some(p) = metrics_out {
        write_or_die(p, rec.metrics.render_prometheus(), "");
        write_or_die(&p.with_extension("jsonl"), rec.metrics.render_jsonl(), "");
    }
}

fn write_or_die(p: &Path, content: String, note: &str) {
    if let Err(e) = fs::write(p, content) {
        eprintln!("repro: cannot write {}: {e}", p.display());
        std::process::exit(1);
    }
    eprintln!("  wrote {}{note}", p.display());
}

/// The blast-radius and recovery panel (`ROBUSTNESS.md`), with the
/// acceptance claims checked inline. With exporter flags, also runs a
/// traced Level-2 crash-and-recover cell and writes its trace/metrics.
fn run_faults(quick: bool, out: &PathBuf, trace_out: Option<&Path>, metrics_out: Option<&Path>) {
    use mts_faults::{blast_radius_panel, experiment, FaultOpts};
    use mts_sim::Dur;

    let opts = if quick {
        FaultOpts {
            rate_pps: 100_000.0,
            run_for: Dur::millis(15),
            fault_at: Time::from_nanos(5_000_000),
            drain: Dur::millis(12),
            ..FaultOpts::default()
        }
    } else {
        FaultOpts::default()
    };
    let cells = match blast_radius_panel(opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("repro: faults: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", experiment::render(&cells));
    save(out, "faults_blast_radius.csv", &experiment::to_csv(&cells));

    // --- Self-checks: the PR's acceptance claims, on the real panel. ---
    let mut failed = false;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("repro: faults: FAILED: {what}");
            failed = true;
        }
    };
    for c in &cells {
        check(
            c.drop_sum_ok,
            &format!("accounting identity broken: {} / {}", c.config, c.fault),
        );
        if let Some(v) = c.isocheck_violations {
            check(
                v == 0,
                &format!(
                    "post-recovery isocheck violations: {} / {}",
                    c.config, c.fault
                ),
            );
        }
    }
    let crash: Vec<_> = cells.iter().filter(|c| c.fault == "crash").collect();
    for c in &crash {
        if c.config.contains("L2") {
            check(
                c.affected == vec![0, 2],
                "L2 compartment kill must affect exactly compartment 0's tenants",
            );
            check(
                c.offered[1] == c.delivered[1] && c.offered[3] == c.delivered[3],
                "L2 compartment kill must lose zero frames of the other compartment",
            );
            check(c.recover.is_some(), "L2 crash must be recovered");
        } else {
            check(
                c.affected == vec![0, 1, 2, 3],
                &format!(
                    "{}: shared-vswitch crash must affect every tenant",
                    c.config
                ),
            );
        }
    }
    if failed {
        eprintln!("repro: fault panel FAILED");
        std::process::exit(1);
    }
    println!(
        "faults: {} cells clean; L2 compartment kill contained to one compartment, \
         accounting identity held everywhere",
        cells.len()
    );

    // Exporters: replay the Level-2 crash-and-recover cell with telemetry
    // enabled and write its trace and metrics (same flags as `trace`).
    if trace_out.is_some() || metrics_out.is_some() {
        let spec = DeploymentSpec::mts(
            SecurityLevel::Level2 { compartments: 2 },
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            Scenario::P2v,
        );
        let w = match mts_faults::run_traced(spec, mts_faults::FaultCase::Crash, opts) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("repro: faults: traced run: {e}");
                std::process::exit(1);
            }
        };
        let rec = w.telemetry.recorder().expect("telemetry enabled");
        write_exports(rec, trace_out, metrics_out);
    }
}

/// The `mts-slo` panel plus the simulator self-profiler and the
/// perf-trajectory snapshot. Exits nonzero if any headline claim fails.
fn run_slo(quick: bool, out: &PathBuf, bench_out: Option<&Path>) {
    use mts_bench::slo;

    let panel = match slo::run_slo_panel(quick) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("repro: slo: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", perfiso::render_matrix(&panel.cells));
    println!("{}", slo::render_accuracy(&panel.accuracy));
    println!("{}", slo::render_conservation(&panel.conservation));
    save(out, "slo_matrix.csv", &slo::matrix_csv(&panel.cells));
    save(
        out,
        "slo_billing_accuracy.csv",
        &slo::accuracy_csv(&panel.accuracy),
    );
    save(
        out,
        "slo_conservation.csv",
        &slo::conservation_csv(&panel.conservation),
    );
    let violations = panel.self_check();
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("repro: slo: FAILED: {v}");
        }
        eprintln!("repro: SLO panel FAILED");
        std::process::exit(1);
    }
    println!(
        "slo: {} matrix cells, {} configs; conservation exact everywhere, \
         all self-checks passed",
        panel.cells.len(),
        panel.conservation.len()
    );

    // Self-profiler: wall clock lives only here, in the binary; the
    // library reports simulated-side stats (see xtask lint).
    let mut workloads = Vec::new();
    for case in slo::ProfileCase::ALL {
        let t0 = std::time::Instant::now();
        let stats = match slo::run_profile_case(case, quick) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("repro: slo: profiler {}: {e}", case.name());
                std::process::exit(1);
            }
        };
        let wall = t0.elapsed().as_secs_f64();
        let w = slo::bench_workload(&stats, wall);
        println!(
            "profile {:<18} events {:>9}  frames {:>8}  {:>12.0} events/s  \
             {:>7.3} sim-Mpps/wall-s",
            w.name,
            w.events,
            w.frames,
            w.events_per_sec(),
            w.sim_mpps_per_wall_sec()
        );
        workloads.push(w);
    }
    match verify_churn_workload(quick) {
        Ok(w) => {
            println!(
                "profile {:<18} events {:>9}  frames {:>8}  {:>12.0} events/s  \
                 {:>6.1}x vs full re-verify",
                w.name,
                w.events,
                w.frames,
                w.events_per_sec(),
                w.speedup_vs_full.unwrap_or(0.0)
            );
            if !quick && w.speedup_vs_full.unwrap_or(0.0) < 10.0 {
                eprintln!(
                    "repro: slo: incremental verification speedup {:.1}x is below \
                     the 10x floor",
                    w.speedup_vs_full.unwrap_or(0.0)
                );
                std::process::exit(1);
            }
            workloads.push(w);
        }
        Err(e) => {
            eprintln!("repro: slo: verify-churn workload: {e}");
            std::process::exit(1);
        }
    }
    let json = slo::render_bench_json(&workloads);
    let default_path = out.join("BENCH_MTS.json");
    let path = bench_out.unwrap_or(&default_path);
    if let Some(dir) = path.parent() {
        let _ = fs::create_dir_all(dir);
    }
    if let Err(e) = fs::write(path, &json) {
        eprintln!("repro: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("  wrote {}", path.display());
}

/// The verification-throughput workload (`verify-churn-l2-4`): replays a
/// fault-driven configuration-delta stream both through the incremental
/// checker (cone recomputation per delta) and through per-delta full
/// re-verification, times both loops, and cross-checks that the two final
/// verdicts render byte-identically. The speedup is recorded in
/// `BENCH_MTS.json` and gated at 10x on full (non-`--quick`) runs.
fn verify_churn_workload(quick: bool) -> Result<mts_bench::slo::BenchWorkload, String> {
    use mts_bench::slo;
    let prep = slo::prepare_verify_churn(quick).map_err(|e| e.to_string())?;
    if prep.deltas.is_empty() {
        return Err("fault runs produced no configuration deltas".to_string());
    }
    let mut inc =
        mts_isocheck::IncrementalChecker::of_world(&prep.world).map_err(|e| e.to_string())?;
    let t0 = std::time::Instant::now();
    for d in &prep.deltas {
        inc.apply(d);
    }
    let inc_report = format!("{}", inc.report().map_err(|e| e.to_string())?);
    let inc_wall = t0.elapsed().as_secs_f64();

    let mut full =
        mts_isocheck::IncrementalChecker::of_world(&prep.world).map_err(|e| e.to_string())?;
    let t1 = std::time::Instant::now();
    for d in &prep.deltas {
        full.apply_full(d).map_err(|e| e.to_string())?;
    }
    let full_report = format!("{}", full.report().map_err(|e| e.to_string())?);
    let full_wall = t1.elapsed().as_secs_f64();
    if inc_report != full_report {
        return Err("incremental verdict diverged from per-delta full re-verification".to_string());
    }
    let stats = inc.stats();
    println!(
        "verify-churn: {} deltas; {} sources recomputed, {} skipped, {} atom \
         rebuilds; incremental {:.4}s vs full {:.4}s",
        stats.deltas_applied,
        stats.sources_recomputed,
        stats.sources_skipped,
        stats.full_rebuilds,
        inc_wall,
        full_wall
    );
    let n = prep.deltas.len() as u64;
    Ok(slo::BenchWorkload {
        name: "verify-churn-l2-4".to_string(),
        events: n,
        frames: 0,
        sim_seconds: prep.sim_seconds,
        wall_seconds: inc_wall,
        dispatch: vec![("delta.apply".to_string(), n)],
        speedup_vs_full: Some(if inc_wall > 0.0 {
            full_wall / inc_wall
        } else {
            0.0
        }),
    })
}

/// The static verification suite: every shipped compartmentalized
/// configuration must verify clean, and every seeded misconfiguration must
/// be detected with a counterexample witness.
fn run_verify() {
    println!("== static verification (mts-isocheck) ==");
    let reports = match mts_isocheck::verify_shipped() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro: verify: {e}");
            std::process::exit(1);
        }
    };
    let mut failed = false;
    for r in &reports {
        println!("{r}");
        if !r.informational && !r.is_clean() {
            failed = true;
        }
    }
    println!("== negative controls: seeded misconfigurations ==");
    let spec = DeploymentSpec::mts(
        SecurityLevel::Level1,
        DatapathKind::Kernel,
        ResourceMode::Shared,
        Scenario::P2v,
    );
    let mut detected = 0usize;
    for mc in mts_isocheck::Misconfig::ALL {
        let seeded = Controller::deploy(spec)
            .map_err(|e| e.to_string())
            .and_then(|mut d| {
                let what = mc.seed(&mut d).map_err(|e| e.to_string())?;
                let r = mts_isocheck::verify(&d).map_err(|e| e.to_string())?;
                Ok((what, r))
            });
        match seeded {
            Ok((what, r)) => {
                println!("-- seeded {}: {what}", mc.label());
                println!("{r}");
                if mc.detected_in(&r) {
                    detected += 1;
                } else {
                    eprintln!(
                        "repro: verify: seeded misconfiguration '{}' NOT detected",
                        mc.label()
                    );
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("repro: verify: cannot seed '{}': {e}", mc.label());
                failed = true;
            }
        }
    }
    println!("== delta equivalence: incremental vs from-scratch verifier ==");
    let mut churn_deltas = 0usize;
    for churn_spec in mts_isocheck::shipped_matrix() {
        match churn_one(churn_spec) {
            Ok(n) => {
                println!(
                    "  {}: {n} deltas, byte-identical throughout",
                    churn_spec.label()
                );
                churn_deltas += n;
            }
            Err(e) => {
                eprintln!(
                    "repro: verify: delta equivalence on {}: {e}",
                    churn_spec.label()
                );
                failed = true;
            }
        }
    }
    for mc in mts_isocheck::Misconfig::ALL {
        match misconfig_delta_control(mc, spec) {
            Ok(()) => println!(
                "  {} via delta: detected incrementally, byte-identical",
                mc.label()
            ),
            Err(e) => {
                eprintln!("repro: verify: delta control '{}': {e}", mc.label());
                failed = true;
            }
        }
    }
    println!("== cross-level differential reachability (Baseline vs hardened) ==");
    let diffed = match run_level_diffs() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("repro: verify: level diff: {e}");
            failed = true;
            0
        }
    };
    if failed {
        eprintln!("repro: static verification FAILED");
        std::process::exit(1);
    }
    println!(
        "verify: {} shipped configurations clean; {detected}/{} seeded \
         misconfigurations detected with witnesses; {churn_deltas} churn \
         deltas byte-identical incrementally; {diffed} level diffs free of \
         regressions",
        reports.len(),
        mts_isocheck::Misconfig::ALL.len()
    );
}

/// The fuzzing gate: a fixed-seed deterministic campaign over the wire,
/// fault-plan, delta-stream, and reconciliation surfaces plus both live
/// injection modes, then a full replay of the committed crasher corpus.
/// Self-checking: exits non-zero on any invariant violation, corpus
/// replay failure, or an empty corpus.
fn run_fuzz(quick: bool, out: &PathBuf) {
    println!("== deterministic fuzz campaign (mts-fuzz) ==");
    let cfg = mts_fuzz::FuzzConfig {
        seed: 0xF022,
        budget: if quick {
            mts_fuzz::Budget::quick()
        } else {
            mts_fuzz::Budget::full()
        },
    };
    let report = mts_fuzz::run_campaign(&cfg);
    println!("{report}");
    save(out, "fuzz_campaign.csv", &report.to_csv());
    let mut failed = false;
    if !report.clean() {
        eprintln!("repro: fuzz: campaign found invariant violations");
        failed = true;
    }

    println!("== pinned crasher corpus replay ==");
    match mts_fuzz::corpus::load_all() {
        Ok(cases) if cases.is_empty() => {
            eprintln!("repro: fuzz: committed corpus is empty");
            failed = true;
        }
        Ok(cases) => {
            for case in &cases {
                match mts_fuzz::corpus::replay(case) {
                    Ok(()) => println!("  {case}: green"),
                    Err(e) => {
                        eprintln!("repro: fuzz: corpus replay: {e}");
                        failed = true;
                    }
                }
            }
            println!("fuzz: {} corpus cases replayed", cases.len());
        }
        Err(e) => {
            eprintln!("repro: fuzz: corpus load: {e}");
            failed = true;
        }
    }
    if failed {
        eprintln!("repro: fuzzing FAILED");
        std::process::exit(1);
    }
}

/// Byte-identity oracle: the incremental checker's rendered report must be
/// exactly what the from-scratch verifier produces on the deployment's
/// current state.
fn check_equiv(
    checker: &mut mts_isocheck::IncrementalChecker,
    d: &Deployment,
    what: &str,
) -> Result<(), String> {
    let full = mts_isocheck::verify(d).map_err(|e| e.to_string())?;
    let inc = checker.report().map_err(|e| e.to_string())?;
    if format!("{inc}") != format!("{full}") {
        return Err(format!("incremental verdict diverged after {what}"));
    }
    Ok(())
}

/// Applies one delta to the checker and demands byte-identity against the
/// already-mutated deployment.
fn apply_and_check(
    checker: &mut mts_isocheck::IncrementalChecker,
    d: &Deployment,
    delta: &ConfigDelta,
) -> Result<(), String> {
    checker.apply(delta);
    check_equiv(checker, d, &format!("{delta}"))
}

/// Drives a scripted configuration churn against one shipped deployment —
/// pipeline wipe, rule-by-rule reinstall, static-MAC removal and
/// reinstall, VEB flush, filter-list replacement, liveness flaps — applying
/// each mutation both to the live state and (as its [`ConfigDelta`]) to an
/// incremental checker, with a byte-identity check after every delta.
/// Returns the number of deltas applied.
fn churn_one(spec: DeploymentSpec) -> Result<usize, String> {
    let mut d = Controller::deploy(spec).map_err(|e| e.to_string())?;
    let mut checker =
        mts_isocheck::IncrementalChecker::of_deployment(&d).map_err(|e| e.to_string())?;
    check_equiv(&mut checker, &d, "construction")?;
    let mut applied = 0usize;

    // Crash-shaped churn: wipe vswitch 0's pipeline, then reinstall the
    // dumped rules one by one, as supervisor recovery + reconciliation do.
    let dump = d.vswitches[0].sw.dump_rules();
    d.vswitches[0].sw.clear();
    apply_and_check(&mut checker, &d, &ConfigDelta::RulesWiped { vswitch: 0 })?;
    applied += 1;
    for (table, rule) in dump {
        d.vswitches[0]
            .sw
            .install(table, rule.clone())
            .map_err(|e| format!("{e:?}"))?;
        apply_and_check(
            &mut checker,
            &d,
            &ConfigDelta::RuleInstalled {
                vswitch: 0,
                table,
                rule,
            },
        )?;
        applied += 1;
    }

    // Static-MAC churn on PF 0.
    let statics = d.nic.pf(PfId(0)).map_err(|e| e.to_string())?.static_macs();
    if let Some((vlan, mac, port)) = statics.first().cloned() {
        d.nic
            .pf_mut(PfId(0))
            .map_err(|e| e.to_string())?
            .remove_static_mac(vlan, mac);
        apply_and_check(
            &mut checker,
            &d,
            &ConfigDelta::StaticRemoved { pf: 0, vlan, mac },
        )?;
        applied += 1;
        d.nic
            .pf_mut(PfId(0))
            .map_err(|e| e.to_string())?
            .install_static_mac(vlan, mac, port);
        apply_and_check(
            &mut checker,
            &d,
            &ConfigDelta::StaticInstalled {
                pf: 0,
                vlan,
                mac,
                port,
            },
        )?;
        applied += 1;
    }

    // VEB flush: learned state dropped, statics rebuilt from VF configs.
    d.nic
        .pf_mut(PfId(0))
        .map_err(|e| e.to_string())?
        .flush_table();
    apply_and_check(&mut checker, &d, &ConfigDelta::VebFlushed { pf: 0 })?;
    applied += 1;

    // Filter-list replacement (same list — exercises the wholesale-set
    // path and the dead-filter warning bookkeeping).
    let filters = d
        .nic
        .pf(PfId(0))
        .map_err(|e| e.to_string())?
        .filters()
        .to_vec();
    d.nic
        .pf_mut(PfId(0))
        .map_err(|e| e.to_string())?
        .set_filters(filters.clone());
    apply_and_check(
        &mut checker,
        &d,
        &ConfigDelta::FiltersSet { pf: 0, filters },
    )?;
    applied += 1;

    // Liveness flaps carry no configuration and must not move the verdict.
    apply_and_check(&mut checker, &d, &ConfigDelta::VswitchDown { vswitch: 0 })?;
    apply_and_check(&mut checker, &d, &ConfigDelta::VswitchUp { vswitch: 0 })?;
    applied += 2;
    Ok(applied)
}

/// Seeds one canonical misconfiguration through the *delta* path: the same
/// NIC mutation [`mts_isocheck::Misconfig::seed`] performs is expressed as
/// the [`ConfigDelta`] it would emit, applied to an incremental checker,
/// and the incremental verdict must both match the full verifier
/// byte-for-byte and contain the misconfiguration's characteristic
/// detection.
fn misconfig_delta_control(
    mc: mts_isocheck::Misconfig,
    spec: DeploymentSpec,
) -> Result<(), String> {
    let mut d = Controller::deploy(spec).map_err(|e| e.to_string())?;
    let mut checker =
        mts_isocheck::IncrementalChecker::of_deployment(&d).map_err(|e| e.to_string())?;
    let vf_cfg = |d: &Deployment, r: mts_core::vfplan::VfRef| -> Result<VfConfig, String> {
        d.nic
            .pf(r.pf)
            .map_err(|e| e.to_string())?
            .vf(r.vf)
            .cloned()
            .ok_or_else(|| format!("no VF {}/{}", r.pf.0, r.vf.0))
    };
    let delta = match mc {
        mts_isocheck::Misconfig::VlanReuse => {
            let t0_vlan = d.plan.tenants[0].vlan;
            let r = d.plan.tenants[1].vf[0].0;
            let cfg = vf_cfg(&d, r)?;
            ConfigDelta::VfConfigured {
                pf: r.pf.0,
                vf: r.vf.0,
                cfg: VfConfig {
                    vlan: Some(t0_vlan),
                    ..cfg
                },
            }
        }
        mts_isocheck::Misconfig::SpoofCheckOff => {
            let r = d.plan.tenants[0].vf[0].0;
            let cfg = vf_cfg(&d, r)?;
            ConfigDelta::VfConfigured {
                pf: r.pf.0,
                vf: r.vf.0,
                cfg: VfConfig {
                    spoof_check: false,
                    ..cfg
                },
            }
        }
        mts_isocheck::Misconfig::BroadVebAllow => {
            let r = d.plan.tenants[0].vf[0].0;
            let mut filters = d
                .nic
                .pf(r.pf)
                .map_err(|e| e.to_string())?
                .filters()
                .to_vec();
            filters.push(FilterRule {
                priority: 60,
                from: PortClass::Vf(r.vf),
                src_mac: None,
                dst_mac: None,
                vlan: None,
                ethertype: None,
                action: FilterAction::Allow,
            });
            ConfigDelta::FiltersSet {
                pf: r.pf.0,
                filters,
            }
        }
        mts_isocheck::Misconfig::StaticHijack => {
            // Mirror the seed: the victim's gateway (vswitch in-out) MAC
            // entry on its VLAN is re-pointed at the attacker's VF.
            let victim = d.plan.tenants[0].vf[0].0;
            let vmac = d.plan.tenants[0].vf[0].1;
            let attacker = d.plan.tenants[1].vf[0].0;
            let pf = d.nic.pf(victim.pf).map_err(|e| e.to_string())?;
            let vlan = pf.vf(victim.vf).and_then(|c| c.vlan).unwrap_or(0);
            let gw = pf
                .static_macs()
                .into_iter()
                .find(|(v, m, p)| *v == vlan && *m != vmac && matches!(p, NicPort::Vf(_)))
                .map(|(_, m, _)| m)
                .ok_or("no gateway static entry on the victim VLAN")?;
            ConfigDelta::StaticInstalled {
                pf: victim.pf.0,
                vlan,
                mac: gw,
                port: NicPort::Vf(attacker.vf),
            }
        }
    };
    mc.seed(&mut d).map_err(|e| e.to_string())?;
    apply_and_check(&mut checker, &d, &delta)?;
    let inc_report = checker.report().map_err(|e| e.to_string())?;
    if !mc.detected_in(&inc_report) {
        return Err(format!(
            "incremental verdict missed seeded '{}'",
            mc.label()
        ));
    }
    Ok(())
}

/// Cross-level differential reachability: every shipped hardened
/// configuration against the Baseline of the same datapath, resource mode
/// and scenario. Hardening must only remove, mediate, or structurally
/// relocate paths — any `REGRESSION-LOST` / `REGRESSION-GAINED` verdict
/// fails the run. Returns the number of level pairs diffed.
fn run_level_diffs() -> Result<usize, String> {
    let mut pairs = 0usize;
    for spec in mts_isocheck::shipped_matrix() {
        let base_spec = DeploymentSpec::mts(
            SecurityLevel::Baseline,
            spec.datapath,
            spec.resource_mode,
            spec.scenario,
        );
        let base = Controller::deploy(base_spec).map_err(|e| e.to_string())?;
        let hard = Controller::deploy(spec).map_err(|e| e.to_string())?;
        let diff = mts_isocheck::diff_levels(&base, &hard).map_err(|e| e.to_string())?;
        println!("{diff}");
        if !diff.is_clean() {
            return Err(format!(
                "regression diffing {} against {}",
                base_spec.label(),
                spec.label()
            ));
        }
        pairs += 1;
    }
    Ok(pairs)
}

fn main() {
    let args = parse_args();
    if let Some(bad) = args.what.iter().find(|w| !TARGETS.contains(&w.as_str())) {
        eprintln!(
            "repro: unknown target `{bad}`; valid targets: {}",
            TARGETS.join(" ")
        );
        std::process::exit(2);
    }
    let opts = if args.quick {
        ReproOpts::quick()
    } else {
        ReproOpts::default()
    };
    eprintln!(
        "repro: scale={} reps={} -> {}",
        opts.scale,
        opts.reps,
        args.out.display()
    );
    for what in &args.what {
        match what.as_str() {
            "verify" => run_verify(),
            "fuzz" => run_fuzz(args.quick, &args.out),
            "faults" => run_faults(
                args.quick,
                &args.out,
                args.trace_out.as_deref(),
                args.metrics_out.as_deref(),
            ),
            "slo" => run_slo(args.quick, &args.out, args.bench_out.as_deref()),
            "fig5" => run_fig5(opts, &args.out),
            "fig6" => run_fig6(opts, &args.out),
            "pktsize" => {
                let rep = pktsize_sweep(opts);
                println!("{}", rep.render_latency());
                save(&args.out, "pktsize_latency.csv", &rep.to_csv());
            }
            "table1" => {
                println!("== Table 1: design characteristics of virtual switches ==");
                println!("{}", survey::render_table());
                println!(
                    "monolithic: {:.0}%  co-located: {:.0}%  split kernel/user: {:.0}%\n",
                    survey::monolithic_fraction() * 100.0,
                    survey::colocated_fraction() * 100.0,
                    survey::split_processing_fraction() * 100.0
                );
            }
            "vfcount" => println!("{}", vf_count_table()),
            "isolation" => println!("{}", isolation_matrix()),
            "trace" => run_trace(
                args.quick,
                args.trace_out.as_deref(),
                args.metrics_out.as_deref(),
            ),
            "overlay" => {
                // VXLAN overlay round trip (Sec. 3.2) on Level-2.
                let spec = DeploymentSpec::mts(
                    SecurityLevel::Level2 { compartments: 2 },
                    DatapathKind::Kernel,
                    ResourceMode::Isolated,
                    Scenario::P2v,
                );
                let mut d = Controller::build(spec, 2).expect("deployable");
                let cfg = overlay::OverlayConfig::default();
                overlay::install_overlay_rules(&mut d, cfg).expect("overlay rules");
                let mut w = World::new(d, RuntimeCfg::for_spec(&spec), 1);
                w.sink.window = (Time::ZERO, Time::MAX);
                let mut e = Sim::new();
                let flows: Vec<_> = w
                    .plan
                    .tenants
                    .iter()
                    .map(|t| (w.route_mac(t.index), t.ip, cfg.vni(t.index)))
                    .collect();
                overlay::start_overlay_generator(
                    &mut e,
                    flows,
                    cfg,
                    100_000.0,
                    256,
                    Time::from_nanos(20_000_000),
                );
                e.run_until(&mut w, Time::from_nanos(60_000_000));
                println!("== VXLAN overlay (Sec 3.2) ==");
                println!(
                    "sent {}  received {}  p50 {:.1} us  per-tenant {:?}",
                    w.sink.sent,
                    w.sink.received,
                    w.sink.latency.percentile(50.0) as f64 / 1e3,
                    w.sink.per_flow
                );
            }
            "all" => {
                run_verify();
                run_fuzz(args.quick, &args.out);
                run_faults(args.quick, &args.out, None, None);
                run_slo(args.quick, &args.out, args.bench_out.as_deref());
                println!("== Table 1 ==\n{}", survey::render_table());
                println!("{}", vf_count_table());
                println!("{}", isolation_matrix());
                run_fig5(opts, &args.out);
                let rep = pktsize_sweep(opts);
                println!("{}", rep.render_latency());
                save(&args.out, "pktsize_latency.csv", &rep.to_csv());
                run_fig6(opts, &args.out);
            }
            _ => unreachable!("targets are validated before any runs"),
        }
    }
}
