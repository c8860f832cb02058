//! Overlay networks, per-tenant billing and the noisy-neighbor experiment
//! (the paper's Sec. 3.2 system support + Sec. 6 discussion, as code).
//!
//! ```text
//! cargo run --release --example overlay_and_billing
//! ```

use mts::core::billing;
use mts::core::controller::Controller;
use mts::core::overlay::{install_overlay_rules, start_overlay_generator, OverlayConfig};
use mts::core::perfiso::{noisy_matrix, render_matrix, NoisyOpts};
use mts::core::runtime::{RuntimeCfg, Sim, World};
use mts::core::spec::{DeploymentSpec, Scenario, SecurityLevel};
use mts::host::ResourceMode;
use mts::sim::Time;
use mts::vswitch::DatapathKind;

fn main() {
    // --- 1. VXLAN overlay: tenants reached through per-tenant tunnels. ---
    let spec = DeploymentSpec::mts(
        SecurityLevel::Level2 { compartments: 2 },
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        Scenario::P2v,
    );
    let mut d = Controller::build(spec, 2).expect("deployable");
    let overlay = OverlayConfig::default();
    install_overlay_rules(&mut d, overlay).expect("overlay rules install");
    let mut w = World::new(d, RuntimeCfg::for_spec(&spec), 7);
    w.sink.window = (Time::ZERO, Time::MAX);
    let mut e = Sim::new();
    let flows: Vec<_> = w
        .plan
        .tenants
        .iter()
        .map(|t| (w.route_mac(t.index), t.ip, overlay.vni(t.index)))
        .collect();
    println!(
        "=== VXLAN overlay (per-tenant VNIs {}..) ===",
        overlay.vni_base
    );
    start_overlay_generator(
        &mut e,
        flows,
        overlay,
        100_000.0,
        256,
        Time::from_nanos(10_000_000),
    );
    e.run_until(&mut w, Time::from_nanos(40_000_000));
    println!(
        "encap/decap round trip: sent {}  received {}  p50 {:.1} us",
        w.sink.sent,
        w.sink.received,
        w.sink.latency.percentile(50.0) as f64 / 1e3
    );

    // --- 2. Billing: itemized per-tenant resource accounting (Sec. 6). ---
    println!("\n=== Per-tenant billing from the same run ===");
    print!("{}", billing::bill(&w));

    // --- 3. Noisy neighbor: performance isolation under a flooding tenant.
    println!("=== Noisy neighbor (tenant 0 floods, every other tenant measured) ===");
    let opts = NoisyOpts::default();
    let mut cells = Vec::new();
    for spec in [
        DeploymentSpec::baseline(DatapathKind::Kernel, ResourceMode::Shared, 1, Scenario::P2v),
        DeploymentSpec::mts(
            SecurityLevel::Level2 { compartments: 2 },
            DatapathKind::Kernel,
            ResourceMode::Shared,
            Scenario::P2v,
        ),
        DeploymentSpec::mts(
            SecurityLevel::Level2 { compartments: 2 },
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            Scenario::P2v,
        ),
    ] {
        cells.extend(noisy_matrix(spec, opts).expect("experiment runs"));
    }
    print!("{}", render_matrix(&cells));
    println!("\nThe Baseline's victims share the flooded datapath; MTS Level-2");
    println!("isolated gives each victim its own vswitch VM and core, so the");
    println!("attack barely registers — the paper's performance-isolation case.");
}
