//! One simulated run ("cell"), rebuilt from the stack's public calls.
//!
//! `Testbed::run` and `run_workload` build, run and harvest a cell in one
//! call and never expose their engine. The traced run needs the engine to
//! time each `Engine::step`, so [`Cell::build`] repeats the calls those two
//! functions make (deploy, `World::new`, host attach, traffic start) and
//! [`Cell::harvest`] repeats how they read results. The benchmark checks on
//! every traced run that a rebuilt cell reproduces the library's outputs
//! exactly.

use mts_apps::http::HTTP_PORT;
use mts_apps::iperf::IPERF_PORT;
use mts_apps::memcached::MEMCACHED_PORT;
use mts_apps::{AbClient, HttpServer, IperfClient, IperfServer, MemcachedServer, MemslapClient};
use mts_core::controller::DeployError;
use mts_core::runtime::{start_udp_churn_generator, RuntimeCfg, Sim, WireEnd, World};
use mts_core::tcphost::{add_lg_client, add_tenant_server, host_start};
use mts_core::testbed::RunOpts;
use mts_core::workloads::{Workload, WorkloadOpts};
use mts_core::{Controller, DeploymentSpec, Scenario};
use mts_net::MacAddr;
use mts_sim::{mean_ci95, Dur, Histogram, Time};
use mts_telemetry::{DropCause, MediationAuditor, Telemetry};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

/// Fired events per dispatch tag, as `Engine::dispatch_counts` lists them.
pub type Dispatch = Vec<(&'static str, u64)>;

/// One simulated run of a workload.
#[derive(Clone, Debug)]
pub enum Cell {
    /// One `Testbed::run`: a Fig. 5 throughput or latency cell.
    Testbed { spec: DeploymentSpec, opts: RunOpts },
    /// One `run_workload`: a Fig. 6 cell.
    Tcp {
        spec: DeploymentSpec,
        workload: Workload,
        opts: WorkloadOpts,
    },
    /// A UDP probe stream counted over the whole run and drained to
    /// completion, so every offered frame is delivered or dropped.
    Udp(UdpCell),
}

/// Parameters of a [`Cell::Udp`] run.
#[derive(Clone, Debug)]
pub struct UdpCell {
    pub spec: DeploymentSpec,
    pub rate_pps: f64,
    /// `RuntimeCfg::offered_pps`, where the scenario sets it.
    pub cfg_offered_pps: Option<f64>,
    /// Destination ports cycled per frame (1 = a single flow per tenant).
    pub dport_span: u16,
    /// Generation stops here.
    pub gen_until: Time,
    /// The run ends here, after the queues have drained.
    pub horizon: Time,
    pub seed: u64,
    pub telemetry: bool,
}

/// Wall time spent in each set-up step, summed over the cells built.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub verify: Duration,
    pub deploy: Duration,
    pub world_new: Duration,
    pub attach: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.verify + self.deploy + self.world_new + self.attach
    }
}

/// A cell ready to run: its world, its engine and when the run ends.
pub struct Built {
    pub w: World,
    pub e: Sim,
    /// `run_until` deadline of the library call this cell mirrors.
    pub deadline: Time,
    /// Load-generator client hosts (TCP cells).
    clients: Vec<usize>,
    /// Tenant server hosts (TCP cells).
    servers: Vec<usize>,
}

/// What one cell produced, in the form the checks compare.
#[derive(Clone, Debug, Default)]
pub struct CellOut {
    /// Every simulated output of the cell on one line; compared byte for
    /// byte with the library's result and the committed reference.
    pub line: String,
    /// `(offered, delivered, dropped)` for cells that count every frame.
    pub conservation: Option<(u64, u64, u64)>,
    /// Mediation-audit violations (telemetry cells).
    pub audit_violations: Option<usize>,
    /// Journeys the telemetry recorder holds.
    pub journeys: u64,
    /// Time spent in `MediationAuditor::audit`.
    pub audit: Duration,
}

/// The next-hop MAC the load generator uses to reach tenant `t`: the
/// compartment's In/Out VF, or the Baseline router.
fn route_mac(w: &World, t: u8) -> MacAddr {
    if w.spec.level.compartmentalized() {
        let c = w.spec.compartment_of_tenant(t) as usize;
        w.plan.compartments[c].in_out[0].1
    } else {
        Controller::baseline_router_mac(0)
    }
}

/// One probe flow per tenant, as `Testbed` addresses them.
fn probe_flows(w: &World) -> Vec<(MacAddr, Ipv4Addr)> {
    w.plan
        .tenants
        .iter()
        .map(|t| (route_mac(w, t.index), t.ip))
        .collect()
}

/// `Measurement` fields the simulation produces, on one line.
#[allow(clippy::too_many_arguments)]
pub fn measurement_line(
    config: &str,
    scenario: &str,
    throughput_pps: f64,
    sent: u64,
    received: u64,
    latency: &mts_sim::Summary,
    per_flow: &[u64],
    drops: &BTreeMap<String, u64>,
) -> String {
    format!(
        "{config}|{scenario}|tput={throughput_pps:?}|sent={sent}|received={received}|\
         latency={latency:?}|per_flow={per_flow:?}|drops={drops:?}"
    )
}

/// `WorkloadResult` fields the simulation produces, on one line.
pub fn workload_line(r: &mts_core::WorkloadResult) -> String {
    format!(
        "{}|{}|{}|tput={:?}|ci95={:?}|latency={:?}|per_tenant={:?}|drops={:?}",
        r.config, r.scenario, r.workload, r.throughput, r.ci95, r.latency, r.per_tenant, r.drops
    )
}

fn drop_map(w: &World) -> BTreeMap<String, u64> {
    w.drops
        .iter()
        .map(|(k, v)| (k.as_str().to_string(), *v))
        .collect()
}

impl Cell {
    /// The deployment this cell simulates.
    pub fn spec(&self) -> DeploymentSpec {
        match self {
            Cell::Testbed { spec, .. } | Cell::Tcp { spec, .. } => *spec,
            Cell::Udp(u) => u.spec,
        }
    }

    /// Deploys, creates the world, attaches hosts and starts traffic, the
    /// way the library call this cell mirrors does. Adds each step's wall
    /// time to `t`.
    pub fn build(&self, t: &mut SetupTimes) -> Result<Built, DeployError> {
        let spec = self.spec();
        let t0 = Instant::now();
        let d = match self {
            Cell::Tcp { .. } => Controller::deploy_workload(spec)?,
            _ => Controller::deploy(spec)?,
        };
        let mut cfg = RuntimeCfg::for_spec(&spec);
        let seed = match self {
            Cell::Testbed { opts, .. } => {
                cfg.offered_pps = opts.rate_pps;
                opts.seed
            }
            Cell::Tcp { opts, .. } => {
                cfg.offered_pps = 1_000_000.0;
                cfg.rx_ring = 1024;
                opts.seed
            }
            Cell::Udp(u) => {
                if let Some(pps) = u.cfg_offered_pps {
                    cfg.offered_pps = pps;
                }
                u.seed
            }
        };
        let t1 = Instant::now();
        let w = World::new(d, cfg, seed);
        let t2 = Instant::now();
        let b = self.attach(w);
        let t3 = Instant::now();
        t.deploy += t1 - t0;
        t.world_new += t2 - t1;
        t.attach += t3 - t2;
        Ok(b)
    }

    fn attach(&self, mut w: World) -> Built {
        let mut e = Sim::new();
        let mut clients = Vec::new();
        let mut servers = Vec::new();
        let deadline = match self {
            Cell::Testbed { opts, .. } => {
                let start = Time::ZERO + opts.warmup;
                let end = start + opts.measure;
                w.sink.window = (start, end);
                let flows = probe_flows(&w);
                start_udp_churn_generator(&mut e, flows, opts.rate_pps, opts.wire_len, end, 1);
                end + Dur::millis(20)
            }
            Cell::Udp(u) => {
                w.sink.window = (Time::ZERO, Time::MAX);
                if u.telemetry {
                    w.telemetry = Telemetry::enabled();
                }
                let flows = probe_flows(&w);
                start_udp_churn_generator(&mut e, flows, u.rate_pps, 64, u.gen_until, u.dport_span);
                u.horizon
            }
            Cell::Tcp {
                spec,
                workload,
                opts,
            } => {
                let server_tenants: Vec<u8> = (0..spec.tenants)
                    .filter(|t| {
                        spec.scenario != Scenario::V2v || Controller::is_v2v_server(spec, *t)
                    })
                    .collect();
                let per_segment = Dur::nanos(1_500);
                for &t in &server_tenants {
                    let (port, app): (u16, Box<dyn mts_apps::App>) = match workload {
                        Workload::Iperf => (IPERF_PORT, Box::new(IperfServer::new())),
                        Workload::Apache => (HTTP_PORT, Box::new(HttpServer::new())),
                        Workload::Memcached => (MEMCACHED_PORT, Box::new(MemcachedServer::new())),
                    };
                    servers.push(add_tenant_server(&mut w, t, port, app, per_segment));
                }
                for (i, &t) in server_tenants.iter().enumerate() {
                    let server_ip = w.plan.tenants[t as usize].ip;
                    let dmac = route_mac(&w, t);
                    let client_ip = Ipv4Addr::new(10, 255, 0, 10 + i as u8);
                    let app: Box<dyn mts_apps::App> = match workload {
                        Workload::Iperf => Box::new(IperfClient::new(vec![server_ip])),
                        Workload::Apache => Box::new(AbClient::new(server_ip, opts.ab_concurrency)),
                        Workload::Memcached => Box::new(MemslapClient::with_connections(
                            server_ip,
                            opts.memslap_connections,
                        )),
                    };
                    let name = format!("client-{i}");
                    clients.push(add_lg_client(
                        &mut w,
                        &name,
                        client_ip,
                        app,
                        vec![(server_ip, dmac)],
                    ));
                }
                w.wire_ends = vec![WireEnd::Host(clients[0])];
                for &h in &clients {
                    host_start(&mut w, &mut e, h);
                }
                let warmup_end = Time::ZERO + opts.warmup;
                e.schedule_at(warmup_end, |w: &mut World, _e| {
                    for host in &mut w.hosts {
                        host.latencies = Histogram::new();
                        host.counters.clear();
                    }
                });
                warmup_end + opts.duration
            }
        };
        Built {
            w,
            e,
            deadline,
            clients,
            servers,
        }
    }

    /// Reads the cell's outputs after the engine reached `b.deadline`.
    ///
    /// `dispatch` is the engine's per-tag dispatch count, without any
    /// event the caller added itself.
    pub fn harvest(&self, b: &Built, dispatch: &[(&'static str, u64)]) -> CellOut {
        let w = &b.w;
        let spec = self.spec();
        match self {
            Cell::Testbed { opts, .. } => {
                let throughput = w.sink.received as f64 / opts.measure.as_secs_f64();
                CellOut {
                    line: measurement_line(
                        &spec.label(),
                        spec.scenario.label(),
                        throughput,
                        w.sink.sent,
                        w.sink.received,
                        &w.sink.latency.summary(),
                        &w.sink.per_flow,
                        &drop_map(w),
                    ),
                    ..CellOut::default()
                }
            }
            Cell::Tcp { workload, opts, .. } => {
                let secs = opts.duration.as_secs_f64();
                let mut per_tenant = Vec::new();
                let mut total = 0.0;
                let mut latency = Histogram::new();
                let (hosts, counter) = match workload {
                    Workload::Iperf => (&b.servers, "iperf_bytes"),
                    Workload::Apache => (&b.clients, "http_requests_done"),
                    Workload::Memcached => (&b.clients, "memcached_ops_done"),
                };
                for &h in hosts {
                    let n = w.hosts[h].counter(counter) as f64;
                    // The same arithmetic, in the same order, as `run_workload`.
                    let v = match workload {
                        Workload::Iperf => n * 8.0 / secs / 1e9,
                        _ => {
                            latency.merge(&w.hosts[h].latencies);
                            n / secs
                        }
                    };
                    per_tenant.push(v);
                    total += v;
                }
                let (mean, ci95) = mean_ci95(&[total]);
                let r = mts_core::WorkloadResult {
                    config: spec.label(),
                    scenario: spec.scenario.label().to_string(),
                    workload: workload.label().to_string(),
                    throughput: mean,
                    latency: latency.summary(),
                    per_tenant,
                    ci95,
                    drops: drop_map(w),
                };
                CellOut {
                    line: workload_line(&r),
                    ..CellOut::default()
                }
            }
            Cell::Udp(u) => {
                let dropped: u64 = w.drops.values().sum();
                let mut line = format!(
                    "{}|{}|sent={}|received={}|latency={:?}|per_flow={:?}|drops={:?}|dispatch={:?}",
                    spec.label(),
                    spec.scenario.label(),
                    w.sink.sent,
                    w.sink.received,
                    w.sink.latency.summary(),
                    w.sink.per_flow,
                    drop_map(w),
                    dispatch,
                );
                for vs in &w.vswitches {
                    line.push_str(&format!("|cache={:?}", vs.inst.sw.cache_stats()));
                }
                let mut out = CellOut {
                    conservation: Some((w.sink.sent, w.sink.received, dropped)),
                    ..CellOut::default()
                };
                if u.telemetry {
                    let rec = w.telemetry.recorder().expect("telemetry enabled at build");
                    let t0 = Instant::now();
                    let report = MediationAuditor::sriov().audit(&rec.journeys);
                    out.audit = t0.elapsed();
                    line.push_str(&format!(
                        "|journeys={}|trace_events={}|audit_checked={}|audit_skipped={}|\
                         violations={}",
                        rec.journeys.len(),
                        rec.trace.len(),
                        report.checked,
                        report.skipped,
                        report.violations.len()
                    ));
                    out.journeys = rec.journeys.len() as u64;
                    out.audit_violations = Some(report.violations.len());
                }
                out.line = line;
                out
            }
        }
    }

    /// Adds the cell's deterministic work counters to `into`: events fired
    /// per dispatch tag, flow-cache hits/misses/flushes, drops by cause and
    /// completed application operations.
    pub fn counters(b: &Built, dispatch: &[(&'static str, u64)], into: &mut BTreeMap<String, u64>) {
        let mut add = |k: String, v: u64| *into.entry(k).or_insert(0) += v;
        for &(tag, n) in dispatch {
            add("sim.events".to_string(), n);
            add(format!("dispatch.{tag}"), n);
        }
        for vs in &b.w.vswitches {
            let cs = vs.inst.sw.cache_stats();
            add("vswitch.cache_hits".to_string(), cs.hits);
            add("vswitch.cache_misses".to_string(), cs.misses);
            add("vswitch.cache_flushes".to_string(), cs.flushes);
        }
        for cause in DropCause::ALL {
            let n = b.w.drops.get(&cause).copied().unwrap_or(0);
            add(format!("drops.{}", cause.as_str()), n);
        }
        let app_ops =
            b.w.hosts
                .iter()
                .flat_map(|h| h.counters.iter())
                .filter(|(k, _)| k.ends_with("_done"))
                .map(|(_, v)| *v)
                .sum();
        add("tcp.app_ops".to_string(), app_ops);
    }

    /// Builds and runs to the deadline with `Sim::run_until`; returns the
    /// cell and its per-tag dispatch counts.
    pub fn run_to_deadline(&self) -> Result<(Built, Dispatch), DeployError> {
        let mut b = self.build(&mut SetupTimes::default())?;
        let deadline = b.deadline;
        b.e.run_until(&mut b.w, deadline);
        let dispatch = b.e.dispatch_counts().collect();
        Ok((b, dispatch))
    }

    /// Builds, runs to the deadline with `Sim::run_until` and harvests.
    pub fn run(&self) -> Result<CellOut, DeployError> {
        let (b, dispatch) = self.run_to_deadline()?;
        Ok(self.harvest(&b, &dispatch))
    }
}
