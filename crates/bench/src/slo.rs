//! The `repro slo` panel: per-tenant SLOs, billing accuracy and the
//! cycle-conservation identity, per security level — plus the simulator
//! self-profiler feeding the committed `BENCH_MTS.json` perf trajectory.
//!
//! Three sub-panels, all driven by the `mts-slo` cycle meters:
//!
//! 1. **Noisy-neighbor SLO matrix** — tenant 0 floods; every other
//!    tenant's p50/p99/p999 latency, loss, and meter-attributed vswitch
//!    cycles, per security level ([`mts_core::perfiso::noisy_matrix`]).
//! 2. **Billing accuracy** — what a biller can charge from observables
//!    vs. the simulator's omniscient ground truth: does Level-2 make
//!    bills more exact? ([`mts_core::billing::billing_accuracy`]).
//! 3. **Cycle conservation** — `billed + unattributed == measured` (core
//!    ledger), the meters' vswitch layer equals the same total, and the
//!    NIC VEB meter equals the NIC's own busy ledger — all exact, at
//!    every level.
//!
//! [`SloPanel::self_check`] re-verifies the headline claims and returns
//! the violations, so `repro slo` is self-checking. Everything here runs
//! on simulated time only; wall-clock timing (the perf-trajectory
//! `wall_seconds`) is measured by the `repro` binary and passed in, which
//! keeps this library deterministic and the `xtask lint` wall-clock ban
//! intact. The JSON snapshot follows the committed-perf-trajectory
//! methodology of Zhang et al., "How are performance issues introduced
//! and addressed?" (see `OBSERVABILITY.md` §perf-trajectory for the
//! schema).

use mts_core::billing::{bill, billing_accuracy, BillingAccuracy};
use mts_core::controller::{Controller, DeployError};
use mts_core::meters::Layer;
use mts_core::perfiso::{noisy_matrix, NoisyOpts, SloCell};
use mts_core::runtime::{start_udp_churn_generator, start_udp_generator, RuntimeCfg, Sim, World};
use mts_core::spec::{DeploymentSpec, Scenario, SecurityLevel};
use mts_host::ResourceMode;
use mts_sim::{Dur, Time};
use mts_vswitch::DatapathKind;

/// One deployment on the panel's configuration axis.
#[derive(Clone, Copy, Debug)]
pub struct PanelSpec {
    /// Stable panel name (includes the resource mode, which
    /// `DeploymentSpec::label` omits).
    pub name: &'static str,
    /// The deployment.
    pub spec: DeploymentSpec,
}

/// The panel's configuration axis: every security level, plus the
/// shared-vs-isolated Level-2 pair the paper's Fig. 5 contrasts.
pub fn panel_specs() -> [PanelSpec; 5] {
    [
        PanelSpec {
            name: "baseline-shared",
            spec: DeploymentSpec::baseline(
                DatapathKind::Kernel,
                ResourceMode::Shared,
                1,
                Scenario::P2v,
            ),
        },
        PanelSpec {
            name: "l1-isolated",
            spec: DeploymentSpec::mts(
                SecurityLevel::Level1,
                DatapathKind::Kernel,
                ResourceMode::Isolated,
                Scenario::P2v,
            ),
        },
        PanelSpec {
            name: "l2-2-shared",
            spec: DeploymentSpec::mts(
                SecurityLevel::Level2 { compartments: 2 },
                DatapathKind::Kernel,
                ResourceMode::Shared,
                Scenario::P2v,
            ),
        },
        PanelSpec {
            name: "l2-2-isolated",
            spec: DeploymentSpec::mts(
                SecurityLevel::Level2 { compartments: 2 },
                DatapathKind::Kernel,
                ResourceMode::Isolated,
                Scenario::P2v,
            ),
        },
        PanelSpec {
            name: "l2-4-isolated",
            spec: DeploymentSpec::mts(
                SecurityLevel::Level2 { compartments: 4 },
                DatapathKind::Kernel,
                ResourceMode::Isolated,
                Scenario::P2v,
            ),
        },
    ]
}

/// The noisy-neighbor options the panel uses.
pub fn panel_noisy_opts(quick: bool) -> NoisyOpts {
    if quick {
        NoisyOpts {
            victim_pps: 10_000.0,
            attacker_pps: 1_500_000.0,
            warmup: Dur::millis(6),
            measure: Dur::millis(4),
            seed: 7,
        }
    } else {
        NoisyOpts {
            victim_pps: 10_000.0,
            attacker_pps: 4_000_000.0,
            warmup: Dur::millis(12),
            measure: Dur::millis(10),
            seed: 7,
        }
    }
}

/// One configuration's cycle-conservation audit.
#[derive(Clone, Debug)]
pub struct ConservationRow {
    /// Panel configuration name.
    pub config: String,
    /// CPU the bill attributed to tenants.
    pub billed: Dur,
    /// CPU the bill could not attribute.
    pub unattributed: Dur,
    /// What the core ledger measured for all vswitch users.
    pub measured: Dur,
    /// The meters' vswitch-layer total (charged grant by grant).
    pub meters_vswitch: Dur,
    /// The meters' NIC-VEB-layer total.
    pub nic_meter: Dur,
    /// The NIC's own VEB busy ledger (accumulated independently).
    pub nic_ledger: Dur,
    /// `Σ truth + unresolved == total` inside the meters, every layer.
    pub internally_consistent: bool,
}

impl ConservationRow {
    /// Whether every conservation identity held exactly.
    pub fn holds(&self) -> bool {
        self.billed + self.unattributed == self.measured
            && self.meters_vswitch == self.measured
            && self.nic_meter == self.nic_ledger
            && self.internally_consistent
    }
}

/// The assembled `repro slo` panel.
#[derive(Clone, Debug, Default)]
pub struct SloPanel {
    /// SLO matrix rows (every config × every victim tenant).
    pub cells: Vec<SloCell>,
    /// Billing accuracy per config, in [`panel_specs`] order.
    pub accuracy: Vec<BillingAccuracy>,
    /// Conservation audit per config, in [`panel_specs`] order.
    pub conservation: Vec<ConservationRow>,
}

/// Runs a plain per-tenant UDP measurement (the billing workload) and
/// returns the settled world.
fn billing_run(spec: DeploymentSpec, quick: bool) -> Result<World, DeployError> {
    let d = Controller::deploy(spec)?;
    let cfg = RuntimeCfg::for_spec(&spec);
    let mut w = World::new(d, cfg, 9);
    let mut e = Sim::new();
    let flows = w.probe_flows();
    w.sink.window = (Time::ZERO, Time::MAX);
    let (gen_until, run_until) = if quick {
        (Time::from_nanos(2_000_000), Time::from_nanos(6_000_000))
    } else {
        (Time::from_nanos(4_000_000), Time::from_nanos(10_000_000))
    };
    start_udp_generator(&mut e, flows, 100_000.0, 64, gen_until);
    e.run_until(&mut w, run_until);
    Ok(w)
}

/// Audits the conservation identities on a settled world.
fn conservation_row(name: &str, w: &World) -> ConservationRow {
    let report = bill(w);
    ConservationRow {
        config: name.to_string(),
        billed: report.total_cpu(),
        unattributed: report.unattributed_cpu,
        measured: w.measured_vswitch_cpu(),
        meters_vswitch: w.meters.layer_total(Layer::Vswitch),
        nic_meter: w.meters.layer_total(Layer::NicVeb),
        nic_ledger: w.nic.veb_busy_total(),
        internally_consistent: w.meters.internally_consistent(),
    }
}

/// Runs the whole panel: matrix, accuracy, conservation, for every
/// configuration on the axis.
pub fn run_slo_panel(quick: bool) -> Result<SloPanel, DeployError> {
    let opts = panel_noisy_opts(quick);
    let mut panel = SloPanel::default();
    for ps in panel_specs() {
        let mut cells = noisy_matrix(ps.spec, opts)?;
        // The panel name distinguishes shared vs isolated; the spec label
        // alone does not.
        for c in &mut cells {
            c.config = ps.name.to_string();
        }
        panel.cells.extend(cells);

        let w = billing_run(ps.spec, quick)?;
        let mut acc = billing_accuracy(&w);
        acc.config = ps.name.to_string();
        panel.accuracy.push(acc);
        panel.conservation.push(conservation_row(ps.name, &w));
    }
    Ok(panel)
}

impl SloPanel {
    /// Re-verifies the panel's headline claims. Returns the violations;
    /// empty means the panel is clean.
    pub fn self_check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for row in &self.conservation {
            if !row.holds() {
                bad.push(format!(
                    "{}: conservation broken (billed {} + unattributed {} vs measured {}, \
                     meters {} / nic {} vs {})",
                    row.config,
                    row.billed,
                    row.unattributed,
                    row.measured,
                    row.meters_vswitch,
                    row.nic_meter,
                    row.nic_ledger
                ));
            }
        }
        for acc in &self.accuracy {
            let compartmentalized = !acc.config.starts_with("baseline");
            if compartmentalized {
                if (acc.attributed_fraction - 1.0).abs() > 1e-12 {
                    bad.push(format!(
                        "{}: compartmentalized level must attribute all cycles, got {}",
                        acc.config, acc.attributed_fraction
                    ));
                }
            } else if acc.attributed_fraction != 0.0 {
                bad.push(format!(
                    "{}: baseline must attribute nothing, got {}",
                    acc.config, acc.attributed_fraction
                ));
            }
            if acc.config == "l2-4-isolated" && !acc.tenants.iter().all(|t| t.exact) {
                bad.push("l2-4-isolated: singleton compartments must bill exactly".to_string());
            }
        }
        for c in &self.cells {
            if c.quiet.count == 0 {
                bad.push(format!(
                    "{} tenant {}: victim was never probed in the quiet phase",
                    c.config, c.tenant
                ));
            }
            // A Baseline victim may lose *every* probe under the flood —
            // that is the finding, not a broken panel — but the isolated
            // levels must keep delivering.
            if c.noisy.count == 0 && !c.config.starts_with("baseline") {
                bad.push(format!(
                    "{} tenant {}: no victim probe survived the flood",
                    c.config, c.tenant
                ));
            }
            if c.config == "l2-4-isolated" && c.attribution != "exact" {
                bad.push(format!(
                    "{} tenant {}: expected exact attribution, got {}",
                    c.config, c.tenant, c.attribution
                ));
            }
            if c.config.starts_with("baseline") && c.attribution != "unattributed" {
                bad.push(format!(
                    "{} tenant {}: baseline cycles must be unattributed, got {}",
                    c.config, c.tenant, c.attribution
                ));
            }
        }
        // The isolation claim itself: the isolated Level-2 victims keep
        // their loss low while the Baseline's victims bleed.
        let worst_iso = self
            .cells
            .iter()
            .filter(|c| c.config == "l2-4-isolated")
            .map(|c| c.loss)
            .fold(0.0, f64::max);
        let worst_base = self
            .cells
            .iter()
            .filter(|c| c.config.starts_with("baseline"))
            .map(|c| c.loss)
            .fold(0.0, f64::max);
        if worst_iso > 0.05 {
            bad.push(format!(
                "l2-4-isolated: victim loss should be negligible, worst {worst_iso:.4}"
            ));
        }
        if worst_base < 0.05 {
            bad.push(format!(
                "baseline: expected visible victim loss under flood, worst {worst_base:.4}"
            ));
        }
        bad
    }
}

/// The SLO matrix as CSV (byte-deterministic for a given panel).
pub fn matrix_csv(cells: &[SloCell]) -> String {
    let mut out = String::from(
        "config,tenant,quiet_p50_ns,quiet_p99_ns,quiet_p999_ns,noisy_p50_ns,noisy_p99_ns,\
         noisy_p999_ns,loss,amp_p50,amp_p99,amp_p999,attacker_pps,attributed_cycles_ns,\
         attribution\n",
    );
    for c in cells {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{:.6},{:.4},{:.4},{:.4},{:.1},{},{}\n",
            c.config,
            c.tenant,
            c.quiet.p50,
            c.quiet.p99,
            c.quiet.p999,
            c.noisy.p50,
            c.noisy.p99,
            c.noisy.p999,
            c.loss,
            c.amplification(),
            c.p99_amplification(),
            c.p999_amplification(),
            c.attacker_pps,
            c.attributed_cycles.as_nanos(),
            c.attribution
        ));
    }
    out
}

/// The billing-accuracy panel as CSV.
pub fn accuracy_csv(rows: &[BillingAccuracy]) -> String {
    let mut out = String::from(
        "config,tenant,billed_ns,truth_ns,abs_err_ns,rel_err,exact,attributed_fraction\n",
    );
    for acc in rows {
        for t in &acc.tenants {
            out.push_str(&format!(
                "{},{},{},{},{},{:.6},{},{:.6}\n",
                acc.config,
                t.tenant,
                t.billed.as_nanos(),
                t.truth.as_nanos(),
                t.abs_error().as_nanos(),
                t.rel_error(),
                t.exact,
                acc.attributed_fraction
            ));
        }
    }
    out
}

/// The conservation audit as CSV.
pub fn conservation_csv(rows: &[ConservationRow]) -> String {
    let mut out = String::from(
        "config,billed_ns,unattributed_ns,measured_ns,meters_vswitch_ns,nic_meter_ns,\
         nic_ledger_ns,internally_consistent,holds\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            r.config,
            r.billed.as_nanos(),
            r.unattributed.as_nanos(),
            r.measured.as_nanos(),
            r.meters_vswitch.as_nanos(),
            r.nic_meter.as_nanos(),
            r.nic_ledger.as_nanos(),
            r.internally_consistent,
            r.holds()
        ));
    }
    out
}

/// Renders the accuracy sub-panel as an aligned table.
pub fn render_accuracy(rows: &[BillingAccuracy]) -> String {
    let mut out = String::from("== billing accuracy: billed vs ground-truth cycles ==\n");
    out.push_str(&format!(
        "{:<16} {:>6} {:>14} {:>14} {:>10} {:>6} {:>10}\n",
        "config", "tenant", "billed", "truth", "rel err", "exact", "attr frac"
    ));
    for acc in rows {
        for t in &acc.tenants {
            out.push_str(&format!(
                "{:<16} {:>6} {:>14} {:>14} {:>10.4} {:>6} {:>10.3}\n",
                acc.config,
                t.tenant,
                format!("{}", t.billed),
                format!("{}", t.truth),
                t.rel_error(),
                if t.exact { "yes" } else { "no" },
                acc.attributed_fraction
            ));
        }
    }
    out
}

/// Renders the conservation sub-panel as an aligned table.
pub fn render_conservation(rows: &[ConservationRow]) -> String {
    let mut out =
        String::from("== cycle conservation: Σ attributed + unattributed == measured ==\n");
    out.push_str(&format!(
        "{:<16} {:>14} {:>14} {:>14} {:>14} {:>6}\n",
        "config", "billed", "unattributed", "measured", "nic veb", "holds"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>14} {:>14} {:>14} {:>14} {:>6}\n",
            r.config,
            format!("{}", r.billed),
            format!("{}", r.unattributed),
            format!("{}", r.measured),
            format!("{}", r.nic_ledger),
            if r.holds() { "yes" } else { "NO" }
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Simulator self-profiler (the BENCH_MTS.json perf trajectory).
// ---------------------------------------------------------------------------

/// The profiled workload cases.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProfileCase {
    /// Per-tenant UDP at the Baseline: one shared datapath.
    UdpBaseline,
    /// Per-tenant UDP at Level-2 with four singleton compartments.
    UdpLevel2,
    /// The noisy-neighbor flood at Level-2 (attack-heavy event mix).
    NoisyLevel2,
    /// Destination-port churn at Level-2: every frame presents a fresh
    /// microflow key, so the flow cache lives in perpetual capacity
    /// flushes and the slow path dominates (megaflow-miss-heavy).
    MegaflowChurn,
    /// Sixteen tenants across eight compartments: stresses fan-out state
    /// (per-tenant VFs, gateways, flow programs) rather than per-flow rate.
    TenantFanout,
}

impl ProfileCase {
    /// Every case, in snapshot order.
    pub const ALL: [ProfileCase; 5] = [
        ProfileCase::UdpBaseline,
        ProfileCase::UdpLevel2,
        ProfileCase::NoisyLevel2,
        ProfileCase::MegaflowChurn,
        ProfileCase::TenantFanout,
    ];

    /// Stable workload name used in `BENCH_MTS.json`.
    pub fn name(self) -> &'static str {
        match self {
            ProfileCase::UdpBaseline => "udp-p2v-baseline",
            ProfileCase::UdpLevel2 => "udp-p2v-l2-4",
            ProfileCase::NoisyLevel2 => "noisy-flood-l2-2",
            ProfileCase::MegaflowChurn => "megaflow-churn-l2-2",
            ProfileCase::TenantFanout => "tenant-fanout-l2-8",
        }
    }
}

/// What one profiled run did, in simulated terms. Wall-clock time is the
/// caller's to measure (the `repro` binary wraps this call with a timer).
#[derive(Clone, Debug)]
pub struct ProfileStats {
    /// Workload name.
    pub name: &'static str,
    /// Events the engine dispatched.
    pub events: u64,
    /// Frames the load generator injected.
    pub frames: u64,
    /// Simulated horizon covered.
    pub sim_seconds: f64,
    /// Events dispatched per event-type tag, sorted by tag.
    pub dispatch: Vec<(&'static str, u64)>,
}

/// Runs one profiler case and returns its simulated-side stats.
pub fn run_profile_case(case: ProfileCase, quick: bool) -> Result<ProfileStats, DeployError> {
    let (spec, rate_pps, gen_ns, run_ns, dport_span) = match case {
        ProfileCase::UdpBaseline => (
            DeploymentSpec::baseline(DatapathKind::Kernel, ResourceMode::Shared, 1, Scenario::P2v),
            200_000.0,
            if quick { 2_000_000 } else { 10_000_000 },
            if quick { 6_000_000 } else { 20_000_000 },
            1,
        ),
        ProfileCase::UdpLevel2 => (
            DeploymentSpec::mts(
                SecurityLevel::Level2 { compartments: 4 },
                DatapathKind::Kernel,
                ResourceMode::Isolated,
                Scenario::P2v,
            ),
            200_000.0,
            if quick { 2_000_000 } else { 10_000_000 },
            if quick { 6_000_000 } else { 20_000_000 },
            1,
        ),
        ProfileCase::NoisyLevel2 => (
            DeploymentSpec::mts(
                SecurityLevel::Level2 { compartments: 2 },
                DatapathKind::Kernel,
                ResourceMode::Isolated,
                Scenario::P2v,
            ),
            if quick { 1_500_000.0 } else { 4_000_000.0 },
            if quick { 3_000_000 } else { 10_000_000 },
            if quick { 8_000_000 } else { 20_000_000 },
            1,
        ),
        // A span of 16384 distinct destination ports (2x the flow-cache
        // capacity) means the cache can never converge: every frame is a
        // slow-path miss and capacity flushes recur throughout the run.
        ProfileCase::MegaflowChurn => (
            DeploymentSpec::mts(
                SecurityLevel::Level2 { compartments: 2 },
                DatapathKind::Kernel,
                ResourceMode::Isolated,
                Scenario::P2v,
            ),
            if quick { 1_000_000.0 } else { 2_000_000.0 },
            if quick { 3_000_000 } else { 10_000_000 },
            if quick { 8_000_000 } else { 20_000_000 },
            16_384,
        ),
        ProfileCase::TenantFanout => {
            let mut spec = DeploymentSpec::mts(
                SecurityLevel::Level2 { compartments: 8 },
                DatapathKind::Kernel,
                ResourceMode::Isolated,
                Scenario::P2v,
            );
            spec.tenants = 16;
            (
                spec,
                if quick { 500_000.0 } else { 1_000_000.0 },
                if quick { 3_000_000 } else { 10_000_000 },
                if quick { 8_000_000 } else { 20_000_000 },
                1,
            )
        }
    };
    let d = Controller::deploy(spec)?;
    let mut cfg = RuntimeCfg::for_spec(&spec);
    cfg.offered_pps = rate_pps;
    let mut w = World::new(d, cfg, 11);
    let mut e = Sim::new();
    w.sink.window = (Time::ZERO, Time::MAX);
    let flows = w.probe_flows();
    start_udp_churn_generator(
        &mut e,
        flows,
        rate_pps,
        64,
        Time::from_nanos(gen_ns),
        dport_span,
    );
    e.run_until(&mut w, Time::from_nanos(run_ns));

    let dispatch: Vec<(&'static str, u64)> = e.dispatch_counts().collect();
    let events: u64 = dispatch.iter().map(|(_, n)| *n).sum();
    Ok(ProfileStats {
        name: case.name(),
        events,
        frames: w.sink.sent,
        sim_seconds: Time::from_nanos(run_ns).as_secs_f64(),
        dispatch,
    })
}

/// A prepared verification-throughput workload: the pristine pre-fault
/// world an incremental checker seeds from, plus a fault-driven
/// configuration-delta stream to replay against it. The `repro` binary
/// times the incremental and full re-verification loops around this data
/// (wall clock lives only in the binary; see the `xtask lint` ban).
pub struct VerifyChurnPrep {
    /// A world in the pristine pre-fault configuration (deployment,
    /// runtime config and seed identical to the runs that produced the
    /// stream — fault runs emit no deltas before the first event).
    pub world: World,
    /// The concatenated, sequence-ordered delta streams.
    pub deltas: Vec<mts_core::delta::ConfigDelta>,
    /// Total simulated horizon of the runs that generated the stream.
    pub sim_seconds: f64,
}

/// Builds the `verify-churn-l2-4` workload: a Level-2 (4 compartments)
/// p2v deployment run under a battery of fault scenarios — crash loop,
/// flow-table wipe, random rule loss, VEB flush — each with supervisor
/// recovery and periodic reconciliation, and every configuration mutation
/// recorded in the world's delta log. Each scenario ends fully recovered
/// (reconciliation restores the desired configuration), so the drained
/// streams concatenate into one long churn sequence over the same
/// deployment.
pub fn prepare_verify_churn(quick: bool) -> Result<VerifyChurnPrep, DeployError> {
    use mts_faults::{FaultCase, FaultOpts};
    let spec = DeploymentSpec::mts(
        SecurityLevel::Level2 { compartments: 4 },
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        Scenario::P2v,
    );
    let opts = if quick {
        FaultOpts {
            rate_pps: 50_000.0,
            run_for: Dur::millis(15),
            fault_at: Time::from_nanos(5_000_000),
            drain: Dur::millis(12),
            ..FaultOpts::default()
        }
    } else {
        FaultOpts {
            rate_pps: 50_000.0,
            ..FaultOpts::default()
        }
    };
    let cases = [
        FaultCase::CrashLoop,
        FaultCase::WipeFlows,
        FaultCase::LoseRules,
        FaultCase::FlushVeb,
        FaultCase::Crash,
    ];
    let mut deltas = Vec::new();
    let mut sim_seconds = 0.0;
    for case in cases {
        let mut w = mts_faults::run_traced(spec, case, opts)?;
        deltas.extend(w.deltas.drain().into_iter().map(|(_, d)| d));
        sim_seconds += (opts.run_for + opts.drain).as_secs_f64();
    }
    let d = Controller::deploy(spec)?;
    let mut cfg = RuntimeCfg::for_spec(&spec);
    cfg.offered_pps = opts.rate_pps;
    let world = World::new(d, cfg, opts.seed);
    Ok(VerifyChurnPrep {
        world,
        deltas,
        sim_seconds,
    })
}

/// One workload's entry in the perf-trajectory snapshot: the simulated
/// stats plus the wall-clock seconds the caller measured around the run.
#[derive(Clone, Debug)]
pub struct BenchWorkload {
    /// Workload name.
    pub name: String,
    /// Events the engine dispatched.
    pub events: u64,
    /// Frames injected.
    pub frames: u64,
    /// Simulated horizon covered.
    pub sim_seconds: f64,
    /// Wall-clock seconds the run took (measured by the caller).
    pub wall_seconds: f64,
    /// Per-event-type dispatch counts.
    pub dispatch: Vec<(String, u64)>,
    /// For comparative workloads (the `verify-churn` family): how many
    /// times faster this run was than the non-incremental alternative
    /// over the same input. `None` for plain profiler workloads.
    pub speedup_vs_full: Option<f64>,
}

impl BenchWorkload {
    /// Engine throughput: events dispatched per wall-second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.events as f64 / self.wall_seconds
        }
    }

    /// Simulation rate: simulated megapackets per wall-second.
    pub fn sim_mpps_per_wall_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.frames as f64 / 1e6 / self.wall_seconds
        }
    }
}

/// Combines profiled stats with a measured wall time.
pub fn bench_workload(stats: &ProfileStats, wall_seconds: f64) -> BenchWorkload {
    BenchWorkload {
        name: stats.name.to_string(),
        events: stats.events,
        frames: stats.frames,
        sim_seconds: stats.sim_seconds,
        wall_seconds,
        dispatch: stats
            .dispatch
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
        speedup_vs_full: None,
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.000000".to_string()
    }
}

/// Renders the `BENCH_MTS.json` perf-trajectory snapshot (schema
/// `mts-bench-v1`; validated by `cargo xtask bench-check`).
pub fn render_bench_json(workloads: &[BenchWorkload]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"mts-bench-v1\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    ));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in workloads.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", w.name));
        out.push_str(&format!("      \"events\": {},\n", w.events));
        out.push_str(&format!("      \"frames\": {},\n", w.frames));
        out.push_str(&format!(
            "      \"sim_seconds\": {},\n",
            json_f64(w.sim_seconds)
        ));
        out.push_str(&format!(
            "      \"wall_seconds\": {},\n",
            json_f64(w.wall_seconds)
        ));
        out.push_str(&format!(
            "      \"events_per_sec\": {},\n",
            json_f64(w.events_per_sec())
        ));
        out.push_str(&format!(
            "      \"sim_mpps_per_wall_sec\": {},\n",
            json_f64(w.sim_mpps_per_wall_sec())
        ));
        if let Some(s) = w.speedup_vs_full {
            out.push_str(&format!("      \"speedup_vs_full\": {},\n", json_f64(s)));
        }
        out.push_str("      \"dispatch\": {");
        for (j, (k, v)) in w.dispatch.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{k}\": {v}"));
        }
        out.push_str("}\n");
        out.push_str(if i + 1 == workloads.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_counts_events_and_frames() {
        let stats = run_profile_case(ProfileCase::UdpBaseline, true).unwrap();
        assert!(stats.events > 0);
        assert!(stats.frames > 0);
        assert!(stats.sim_seconds > 0.0);
        let total: u64 = stats.dispatch.iter().map(|(_, n)| *n).sum();
        assert_eq!(total, stats.events);
        // The tagged runtime paths must all appear in a p2v run.
        let tags: Vec<&str> = stats.dispatch.iter().map(|(k, _)| *k).collect();
        for expected in ["nic.rx", "vswitch.rx", "vswitch.exec", "gen.tick"] {
            assert!(tags.contains(&expected), "missing dispatch tag {expected}");
        }
    }

    #[test]
    fn churn_and_fanout_cases_run_and_balance() {
        for case in [ProfileCase::MegaflowChurn, ProfileCase::TenantFanout] {
            let stats = run_profile_case(case, true).unwrap();
            assert!(stats.events > 0, "{}: no events", stats.name);
            assert!(stats.frames > 0, "{}: no frames", stats.name);
            let total: u64 = stats.dispatch.iter().map(|(_, n)| *n).sum();
            assert_eq!(total, stats.events, "{}: dispatch imbalance", stats.name);
        }
    }

    #[test]
    fn megaflow_churn_defeats_the_flow_cache() {
        // The same deployment and rate, with and without port churn: churn
        // must turn a hit-dominated cache into a miss-dominated one.
        let run = |dport_span: u16| {
            let spec = DeploymentSpec::mts(
                SecurityLevel::Level2 { compartments: 2 },
                DatapathKind::Kernel,
                ResourceMode::Isolated,
                Scenario::P2v,
            );
            let d = Controller::deploy(spec).unwrap();
            let mut w = World::new(d, RuntimeCfg::for_spec(&spec), 11);
            let mut e = Sim::new();
            w.sink.window = (Time::ZERO, Time::MAX);
            let flows = w.probe_flows();
            start_udp_churn_generator(
                &mut e,
                flows,
                1_000_000.0,
                64,
                Time::from_nanos(3_000_000),
                dport_span,
            );
            e.run_until(&mut w, Time::from_nanos(8_000_000));
            let mut hits = 0;
            let mut misses = 0;
            for vs in &w.vswitches {
                let cs = vs.inst.sw.cache_stats();
                hits += cs.hits;
                misses += cs.misses;
            }
            (hits, misses)
        };
        let (steady_hits, steady_misses) = run(1);
        let (churn_hits, churn_misses) = run(16_384);
        assert!(
            steady_hits > steady_misses * 10,
            "steady traffic should be hit-dominated (hits {steady_hits}, misses {steady_misses})"
        );
        assert!(
            churn_misses > churn_hits * 10,
            "port churn should be miss-dominated (hits {churn_hits}, misses {churn_misses})"
        );
    }

    #[test]
    fn profiler_is_deterministic_in_simulated_terms() {
        let a = run_profile_case(ProfileCase::UdpLevel2, true).unwrap();
        let b = run_profile_case(ProfileCase::UdpLevel2, true).unwrap();
        assert_eq!(a.events, b.events);
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.dispatch, b.dispatch);
    }

    #[test]
    fn bench_json_shape() {
        let stats = ProfileStats {
            name: "x",
            events: 10,
            frames: 5,
            sim_seconds: 0.01,
            dispatch: vec![("nic.rx", 6), ("gen.tick", 4)],
        };
        let text = render_bench_json(&[bench_workload(&stats, 0.5)]);
        assert!(text.contains("\"schema\": \"mts-bench-v1\""));
        assert!(text.contains("\"events\": 10"));
        assert!(text.contains("\"events_per_sec\": 20.000000"));
        assert!(text.contains("\"sim_mpps_per_wall_sec\": 0.000010"));
        assert!(text.contains("\"dispatch\": {\"nic.rx\": 6, \"gen.tick\": 4}"));
        // Zero wall time must not divide by zero.
        let z = bench_workload(&stats, 0.0);
        assert_eq!(z.events_per_sec(), 0.0);
    }

    #[test]
    fn panel_csvs_are_deterministic() {
        let a = run_slo_panel(true).unwrap();
        let b = run_slo_panel(true).unwrap();
        assert_eq!(matrix_csv(&a.cells), matrix_csv(&b.cells));
        assert_eq!(accuracy_csv(&a.accuracy), accuracy_csv(&b.accuracy));
        assert_eq!(
            conservation_csv(&a.conservation),
            conservation_csv(&b.conservation)
        );
        assert!(
            a.self_check().is_empty(),
            "panel self-check failed: {:?}",
            a.self_check()
        );
    }
}
