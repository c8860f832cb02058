//! Substrate microbenchmarks and ablations.
//!
//! These quantify the design choices DESIGN.md calls out: the megaflow
//! cache (fast vs slow path), the NIC VEB forwarding decision, the
//! discrete-event engine, the wire codec and the TCP engine.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mts_core::controller::Controller;
use mts_core::runtime::{start_udp_generator, RuntimeCfg, Sim, World};
use mts_core::spec::{DeploymentSpec, Scenario, SecurityLevel};
use mts_host::ResourceMode;
use mts_net::{parse, serialize, Frame, MacAddr};
use mts_nic::{NicModel, NicPort, PfId, SriovNic, VfConfig, VfId};
use mts_sim::{Dur, Engine, Time};
use mts_tcp::{Connection, TcpConfig};
use mts_telemetry::Telemetry;
use mts_vswitch::{Action, DatapathKind, FlowMatch, FlowRule, PortKind, VirtualSwitch};
use std::net::Ipv4Addr;

fn probe(dport: u16) -> Frame {
    Frame::udp_probe(
        MacAddr::local(1),
        MacAddr::local(2),
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 1, 1),
        dport,
        0,
        64,
    )
}

/// Ablation: exact-match cache hit vs full pipeline traversal.
fn vswitch_fast_vs_slow(c: &mut Criterion) {
    let mut group = c.benchmark_group("vswitch_lookup");
    // A switch with a realistic rule population (100 per-tenant rules).
    let mut sw = VirtualSwitch::new("bench");
    let p_in = sw.add_port("in", PortKind::Physical);
    let p_out = sw.add_port("out", PortKind::Physical);
    for t in 0..100u8 {
        sw.install(
            0,
            FlowRule::new(
                20,
                FlowMatch::to_ip(Ipv4Addr::new(10, 0, t, 1)).and_port(p_in),
                vec![Action::Output(p_out)],
            ),
        )
        .expect("table exists");
    }
    sw.install(0, FlowRule::new(1, FlowMatch::any(), vec![Action::Drop]))
        .expect("table exists");

    // Warm the cache for one flow.
    let hot = probe(7);
    let _ = sw.process(p_in, hot.clone());
    group.bench_function("cache_hit", |b| {
        b.iter(|| sw.process(p_in, hot.clone()).len())
    });

    let mut port_cycle = 0u16;
    group.bench_function("slow_path_miss", |b| {
        b.iter_batched(
            || {
                port_cycle = port_cycle.wrapping_add(1);
                probe(port_cycle) // new flow every iteration
            },
            |f| sw.process(p_in, f).len(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// The NIC's embedded switch forwarding decision.
fn nic_veb(c: &mut Criterion) {
    let mut nic = SriovNic::new(1, NicModel::default());
    let mac = MacAddr::local(0x42);
    nic.create_vf(PfId(0), VfId(0), VfConfig::infrastructure(mac))
        .expect("vf created");
    let frame = Frame::udp_data(
        MacAddr::local(9),
        mac,
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        1,
        2,
        50,
    );
    c.bench_function("nic_veb_forward", |b| {
        b.iter(|| {
            nic.ingress(PfId(0), NicPort::Wire, frame.clone())
                .expect("switches")
                .len()
        })
    });
}

/// Raw event-engine throughput.
fn des_engine(c: &mut Criterion) {
    c.bench_function("engine_100k_events", |b| {
        b.iter(|| {
            let mut e: Engine<u64> = Engine::new();
            let mut w = 0u64;
            for i in 0..100_000u64 {
                e.schedule_at(Time::from_nanos(i), |w: &mut u64, _| *w += 1);
            }
            e.run(&mut w);
            w
        })
    });
}

/// Wire codec round trip.
fn wire_codec(c: &mut Criterion) {
    let f = probe(80);
    c.bench_function("wire_serialize_parse", |b| {
        b.iter(|| parse(&serialize(&f)).expect("round trips").wire_len())
    });
}

/// TCP engine: a 1 MB in-memory transfer between two stacks.
fn tcp_transfer(c: &mut Criterion) {
    c.bench_function("tcp_1mb_transfer", |b| {
        b.iter(|| {
            let cfg = TcpConfig::default();
            let now = Time::ZERO;
            let (mut cl, out) = Connection::client(cfg, 40000, 80, 7, now);
            let (mut sv, sout) =
                Connection::server_from_syn(cfg, &out.segments[0], 99, now).expect("syn");
            let ack = cl.on_segment(&sout.segments[0], now);
            let _ = sv.on_segment(&ack.segments[0], now);
            let mut inflight = cl.send(1_000_000, now).segments;
            let mut delivered = 0u64;
            let mut t = now;
            while !inflight.is_empty() {
                t += Dur::micros(50);
                let mut back = Vec::new();
                for s in inflight.drain(..) {
                    let o = sv.on_segment(&s, t);
                    delivered += o.delivered;
                    back.extend(o.segments);
                }
                let mut next = Vec::new();
                for s in back {
                    next.extend(cl.on_segment(&s, t).segments);
                }
                if next.is_empty() {
                    if let Some(d) = sv.next_timer() {
                        next.extend(sv.on_timer(d).segments);
                        let _ = d;
                    }
                }
                inflight = next;
            }
            delivered
        })
    });
}

/// A/B ablation for the telemetry layer: the same Level-2 v2v pipeline run
/// with telemetry disabled (the default — one `Option` check per hook site)
/// and enabled (full journey/trace/metrics recording). The `off` arm is the
/// regression guard: it must match the pre-telemetry pipeline cost.
fn telemetry_ab(c: &mut Criterion) {
    fn run(enabled: bool) -> u64 {
        let spec = DeploymentSpec::mts(
            SecurityLevel::Level2 { compartments: 2 },
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            Scenario::V2v,
        );
        let d = Controller::deploy(spec).expect("deployable");
        let mut w = World::new(d, RuntimeCfg::for_spec(&spec), 1);
        w.sink.window = (Time::ZERO, Time::MAX);
        if enabled {
            w.telemetry = Telemetry::enabled();
        }
        let mut e = Sim::new();
        let flows = w.probe_flows();
        start_udp_generator(&mut e, flows, 100_000.0, 64, Time::from_nanos(1_000_000));
        e.run_until(&mut w, Time::from_nanos(3_000_000));
        w.sink.received
    }

    let mut group = c.benchmark_group("telemetry_pipeline");
    group.sample_size(20);
    group.bench_function("off", |b| b.iter(|| run(false)));
    group.bench_function("on", |b| b.iter(|| run(true)));
    group.finish();
}

criterion_group!(
    substrates,
    vswitch_fast_vs_slow,
    nic_veb,
    des_engine,
    wire_codec,
    tcp_transfer,
    telemetry_ab
);
criterion_main!(substrates);
