//! The four benchmark workloads: their cells, one untraced operation
//! ("op") each, and the checks every op's outputs must pass.

use crate::cells::{workload_line, Cell, CellOut, SetupTimes, UdpCell};
use mts_bench::precheck::precheck_or_panic;
use mts_bench::{fig5_panel, fig6_panel, Fig5Panel, Fig6Panel, ReproOpts};
use mts_core::testbed::RunOpts;
use mts_core::workloads::{Workload as TcpWorkload, WorkloadOpts};
use mts_core::{DeploymentSpec, ResourceMode, Scenario, SecurityLevel};
use mts_sim::Time;
use mts_vswitch::DatapathKind;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// The seed the committed reference outputs were captured at.
pub const REFERENCE_SEED: u64 = 1;

/// Shared-Apache claim: every MTS row serves at least this multiple of
/// the Baseline row's requests per second in the same scenario.
pub const APACHE_MTS_OVER_BASELINE: f64 = 1.5;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `repro --quick fig5`: all three Fig. 5 rows.
    Fig5UdpLinerate,
    /// The shared-mode Apache panel of `repro --quick fig6`.
    Fig6SharedApache,
    /// Level-2 (2 compartments) p2v under destination-port churn.
    MegaflowMissL2_2,
    /// The `repro trace` scenario: Level-2 v2v with telemetry on.
    TelemetryV2vL2_2,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig5UdpLinerate,
        Workload::Fig6SharedApache,
        Workload::MegaflowMissL2_2,
        Workload::TelemetryV2vL2_2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5UdpLinerate => "fig5-udp-linerate",
            Workload::Fig6SharedApache => "fig6-shared-apache",
            Workload::MegaflowMissL2_2 => "megaflow-miss-l2-2",
            Workload::TelemetryV2vL2_2 => "telemetry-v2v-l2-2",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The panel functions fix their own simulation seeds (`1..=reps`) and
    /// take none from the caller, so these workloads run the same inputs
    /// on every `--seed`.
    pub fn seeds_fixed_by_library(self) -> bool {
        matches!(self, Workload::Fig5UdpLinerate | Workload::Fig6SharedApache)
    }

    /// Simulated outputs of one op at [`REFERENCE_SEED`], captured at the
    /// parent commit of the benchmark, one cell per line.
    pub fn reference(self) -> &'static str {
        match self {
            Workload::Fig5UdpLinerate => include_str!("../reference/fig5-udp-linerate.txt"),
            Workload::Fig6SharedApache => include_str!("../reference/fig6-shared-apache.txt"),
            Workload::MegaflowMissL2_2 => include_str!("../reference/megaflow-miss-l2-2.txt"),
            Workload::TelemetryV2vL2_2 => include_str!("../reference/telemetry-v2v-l2-2.txt"),
        }
    }

    /// Every simulated run of one op, in the order the op reports them.
    ///
    /// For the two panel workloads this is the order `fig5_panel` and
    /// `fig6_panel` run their cells in, with the seeds they use.
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        let scale = ReproOpts::quick().scale;
        match self {
            Workload::Fig5UdpLinerate => {
                let mut cells = Vec::new();
                for row in Fig5Panel::ALL {
                    for scenario in Scenario::ALL {
                        for spec in row.matrix(scenario) {
                            cells.push(Cell::Testbed {
                                spec,
                                opts: RunOpts::throughput().scaled(scale).with_seed(1),
                            });
                            cells.push(Cell::Testbed {
                                spec,
                                opts: RunOpts::latency().scaled(scale),
                            });
                        }
                    }
                }
                cells
            }
            Workload::Fig6SharedApache => {
                let mut opts = WorkloadOpts::default();
                opts.duration = opts.duration.mul_f64(scale.max(0.25));
                opts.warmup = opts.warmup.mul_f64(scale.max(0.25));
                let mut cells = Vec::new();
                for scenario in [Scenario::P2v, Scenario::V2v] {
                    for spec in Fig5Panel::Shared.matrix(scenario) {
                        cells.push(Cell::Tcp {
                            spec,
                            workload: TcpWorkload::Apache,
                            opts: opts.with_seed(1),
                        });
                    }
                }
                cells
            }
            // 300 kpps over 16384 destination ports (twice the flow-cache
            // capacity) for 3 s of simulated time: ~13% cache hits and
            // recurring capacity flushes.
            Workload::MegaflowMissL2_2 => vec![Cell::Udp(UdpCell {
                spec: l2_2(Scenario::P2v),
                rate_pps: 300_000.0,
                cfg_offered_pps: Some(300_000.0),
                dport_span: 16_384,
                gen_until: Time::from_nanos(3_000_000_000),
                horizon: Time::from_nanos(3_050_000_000),
                seed,
                telemetry: false,
            })],
            // The `repro trace` scenario at 50 kpps, sized to 30k frames.
            Workload::TelemetryV2vL2_2 => vec![Cell::Udp(UdpCell {
                spec: l2_2(Scenario::V2v),
                rate_pps: 50_000.0,
                cfg_offered_pps: None,
                dport_span: 1,
                gen_until: Time::from_nanos(600_000_000),
                horizon: Time::from_nanos(650_000_000),
                seed,
                telemetry: true,
            })],
        }
    }

    /// Builds every cell once without running it: static verification,
    /// deploy, `World::new` and host attach. Returns the time each step took.
    pub fn setup_pass(self, seed: u64) -> Result<SetupTimes, String> {
        let mut t = SetupTimes::default();
        let mut verified = BTreeSet::new();
        for cell in self.cells(seed) {
            let spec = cell.spec();
            if verified.insert(spec.label()) {
                let t0 = Instant::now();
                let report = mts_isocheck::verify_spec(spec)
                    .map_err(|e| format!("{}: verify: {e}", spec.label()))?;
                t.verify += t0.elapsed();
                if !report.informational && !report.is_clean() {
                    return Err(format!("{}: static verification failed", spec.label()));
                }
            }
            let b = cell
                .build(&mut t)
                .map_err(|e| format!("{}: deploy: {e}", spec.label()))?;
            drop(std::hint::black_box(b));
        }
        Ok(t)
    }

    /// Fills the library's memoized pre-check for every deployment, as the
    /// first `repro` pass over them does.
    pub fn precheck(self, seed: u64) {
        for cell in self.cells(seed) {
            precheck_or_panic(cell.spec());
        }
    }

    /// One untraced op: the library call a `repro` user runs for this
    /// workload, or, where none exists, the cells run with `run_until`.
    pub fn op(self, seed: u64) -> Result<Vec<CellOut>, String> {
        let quick = ReproOpts::quick();
        match self {
            Workload::Fig5UdpLinerate => {
                let results: Vec<_> = Fig5Panel::ALL
                    .into_iter()
                    .map(|row| (row, fig5_panel(row, quick)))
                    .collect();
                let mut out = Vec::new();
                for (row, (tput, lat, _)) in &results {
                    if tput.rows.len() != lat.rows.len() {
                        return Err(format!("{}: row count mismatch", row.label()));
                    }
                    for (t, l) in tput.rows.iter().zip(&lat.rows) {
                        for m in [t, l] {
                            out.push(CellOut {
                                line: crate::cells::measurement_line(
                                    &m.config,
                                    &m.scenario,
                                    m.throughput_pps,
                                    m.sent,
                                    m.received,
                                    &m.latency,
                                    &m.per_flow,
                                    &m.drops,
                                ),
                                ..CellOut::default()
                            });
                        }
                    }
                }
                Ok(out)
            }
            Workload::Fig6SharedApache => {
                let panel = Fig6Panel {
                    row: Fig5Panel::Shared,
                    workload: TcpWorkload::Apache,
                };
                Ok(fig6_panel(panel, quick)
                    .iter()
                    .map(|r| CellOut {
                        line: workload_line(r),
                        ..CellOut::default()
                    })
                    .collect())
            }
            Workload::MegaflowMissL2_2 | Workload::TelemetryV2vL2_2 => self
                .cells(seed)
                .iter()
                .map(|c| {
                    precheck_or_panic(c.spec());
                    c.run().map_err(|e| e.to_string())
                })
                .collect(),
        }
    }

    /// The deterministic work counters of one op (see [`Cell::counters`]),
    /// from its cells run with `run_until`.
    pub fn counters(self, seed: u64) -> Result<BTreeMap<String, u64>, String> {
        let mut into = BTreeMap::new();
        for cell in self.cells(seed) {
            let (b, dispatch) = cell.run_to_deadline().map_err(|e| e.to_string())?;
            Cell::counters(&b, &dispatch, &mut into);
        }
        Ok(into)
    }

    /// Checks one op's outputs; returns every failed check.
    pub fn check(self, seed: u64, out: &[CellOut]) -> Vec<String> {
        let mut failures = Vec::new();
        if self.seeds_fixed_by_library() || seed == REFERENCE_SEED {
            let reference: Vec<&str> = self.reference().lines().collect();
            if reference.len() != out.len() {
                failures.push(format!(
                    "{} cells, reference has {}",
                    out.len(),
                    reference.len()
                ));
            }
            for (i, (got, want)) in out.iter().zip(&reference).enumerate() {
                if got.line != *want {
                    failures.push(format!(
                        "cell {i} differs from the reference:\n  got  {}\n  want {want}",
                        got.line
                    ));
                }
            }
        }
        for (i, c) in out.iter().enumerate() {
            failures.extend(check_cell(c).into_iter().map(|f| format!("cell {i}: {f}")));
        }
        if self == Workload::Fig6SharedApache {
            failures.extend(check_apache_claim(out));
        }
        failures
    }
}

/// The checks one cell's outputs must pass on any seed: frame conservation
/// (offered = delivered + dropped) and a clean mediation audit.
pub fn check_cell(c: &CellOut) -> Vec<String> {
    let mut failures = Vec::new();
    if let Some((offered, delivered, dropped)) = c.conservation {
        if offered != delivered + dropped {
            failures.push(format!(
                "offered {offered} != delivered {delivered} + dropped {dropped}"
            ));
        }
    }
    if let Some(v) = c.audit_violations.filter(|v| *v != 0) {
        failures.push(format!("mediation audit reports {v} violations"));
    }
    failures
}

fn l2_2(scenario: Scenario) -> DeploymentSpec {
    DeploymentSpec::mts(
        SecurityLevel::Level2 { compartments: 2 },
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        scenario,
    )
}

/// Every MTS row of the shared Apache panel serves at least
/// [`APACHE_MTS_OVER_BASELINE`] times the Baseline's req/s.
fn check_apache_claim(out: &[CellOut]) -> Vec<String> {
    // Lines read `config|scenario|workload|tput=<f64>|...`.
    let rows: Vec<(&str, &str, f64)> = out
        .iter()
        .filter_map(|c| {
            let mut f = c.line.split('|');
            let config = f.next()?;
            let scenario = f.next()?;
            let tput = f.nth(1)?.strip_prefix("tput=")?.parse().ok()?;
            Some((config, scenario, tput))
        })
        .collect();
    let mut failures = Vec::new();
    for scenario in ["p2v", "v2v"] {
        let in_scenario: Vec<_> = rows.iter().filter(|r| r.1 == scenario).collect();
        let Some(base) = in_scenario.iter().find(|r| r.0.starts_with("Baseline")) else {
            failures.push(format!("apache {scenario}: no Baseline row"));
            continue;
        };
        for r in in_scenario.iter().filter(|r| !r.0.starts_with("Baseline")) {
            if r.2 < APACHE_MTS_OVER_BASELINE * base.2 {
                failures.push(format!(
                    "apache {scenario}: {} serves {:.0} req/s, below {APACHE_MTS_OVER_BASELINE}x \
                     the Baseline's {:.0}",
                    r.0, r.2, base.2
                ));
            }
        }
        if in_scenario.len() < 2 {
            failures.push(format!("apache {scenario}: no MTS rows"));
        }
    }
    failures
}
