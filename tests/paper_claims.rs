//! The paper's headline claims, checked at reduced measurement scale.
//!
//! These are the qualitative *shapes* of the evaluation (who wins, by what
//! factor, where saturation lands) — absolute fidelity is documented in
//! EXPERIMENTS.md from full-scale runs of the `repro` binary.

use mts::core::attacks::{self, Attack};
use mts::core::spec::{DeploymentSpec, Scenario, SecurityLevel};
use mts::core::testbed::{RunOpts, Testbed};
use mts::core::vfplan::VfBudget;
use mts::core::workloads::{run_workload, Workload, WorkloadOpts};
use mts::host::{ResourceLedger, ResourceMode};
use mts::sim::Dur;
use mts::vswitch::DatapathKind;

/// Saturating-but-affordable options for debug-mode test runs.
fn saturating() -> RunOpts {
    RunOpts {
        rate_pps: 2_000_000.0,
        wire_len: 64,
        warmup: Dur::millis(14),
        measure: Dur::millis(8),
        seed: 3,
    }
}

fn mpps(spec: DeploymentSpec, opts: RunOpts) -> f64 {
    Testbed::new(spec).run(opts).expect("run completes").mpps()
}

#[test]
fn shared_mode_p2v_mts_is_1_5x_to_2x_baseline() {
    // Sec. 4.1: "a 2x increase in throughput (nearly .4 Mpps ...) compared
    // to the Baseline (nearly .2 Mpps)".
    let base = mpps(
        DeploymentSpec::baseline(DatapathKind::Kernel, ResourceMode::Shared, 1, Scenario::P2v),
        saturating(),
    );
    let l24 = mpps(
        DeploymentSpec::mts(
            SecurityLevel::Level2 { compartments: 4 },
            DatapathKind::Kernel,
            ResourceMode::Shared,
            Scenario::P2v,
        ),
        saturating(),
    );
    let ratio = l24 / base;
    assert!((0.15..=0.3).contains(&base), "baseline {base} Mpps");
    assert!(
        (1.4..=3.0).contains(&ratio),
        "MTS/Baseline p2v ratio {ratio} (MTS {l24})"
    );
}

#[test]
fn v2v_mts_doubles_baseline_too() {
    let base = mpps(
        DeploymentSpec::baseline(DatapathKind::Kernel, ResourceMode::Shared, 1, Scenario::V2v),
        saturating(),
    );
    let l1 = mpps(
        DeploymentSpec::mts(
            SecurityLevel::Level1,
            DatapathKind::Kernel,
            ResourceMode::Shared,
            Scenario::V2v,
        ),
        saturating(),
    );
    assert!(l1 / base > 1.5, "v2v ratio {} ({l1} vs {base})", l1 / base);
}

#[test]
fn isolated_baseline_p2p_scales_with_cores() {
    // Sec. 4.1: "the aggregate throughput increases roughly from 1 Mpps to
    // 2 Mpps to 4 Mpps as the number of cores increase" — checked at a
    // reduced offered rate, so we verify 1->2 core scaling only.
    let one = mpps(
        DeploymentSpec::baseline(
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            1,
            Scenario::P2p,
        ),
        saturating(),
    );
    let two = mpps(
        DeploymentSpec::baseline(
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            2,
            Scenario::P2p,
        ),
        saturating(),
    );
    assert!((0.6..=1.2).contains(&one), "1 core: {one} Mpps");
    assert!(two / one > 1.6, "2-core scaling: {one} -> {two}");
}

#[test]
fn dpdk_mts_p2v_saturates_near_2_3_mpps() {
    // Sec. 4.1: "the throughput saturates (at around 2.3 Mpps)".
    let opts = RunOpts {
        rate_pps: 6_000_000.0,
        ..saturating()
    };
    let l1 = mpps(
        DeploymentSpec::mts(
            SecurityLevel::Level1,
            DatapathKind::Dpdk,
            ResourceMode::Isolated,
            Scenario::P2v,
        ),
        opts,
    );
    assert!((1.9..=2.6).contains(&l1), "MTS dpdk p2v {l1} Mpps");
}

#[test]
fn mts_p2v_latency_beats_baseline_kernel() {
    // Sec. 4.2: "the p2v and v2v scenarios show that MTS is slightly
    // faster than the Baseline".
    let lat = |spec| {
        Testbed::new(spec)
            .run(RunOpts {
                rate_pps: 10_000.0,
                wire_len: 64,
                warmup: Dur::millis(5),
                measure: Dur::millis(40),
                seed: 5,
            })
            .expect("run completes")
            .latency
            .p50
    };
    let base = lat(DeploymentSpec::baseline(
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        1,
        Scenario::P2v,
    ));
    let l1 = lat(DeploymentSpec::mts(
        SecurityLevel::Level1,
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        Scenario::P2v,
    ));
    assert!(l1 < base, "MTS p2v latency {l1} !< baseline {base}");
    // But p2p pays the extra NIC round trip.
    let base_p2p = lat(DeploymentSpec::baseline(
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        1,
        Scenario::P2p,
    ));
    let l1_p2p = lat(DeploymentSpec::mts(
        SecurityLevel::Level1,
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        Scenario::P2p,
    ));
    assert!(
        l1_p2p > base_p2p,
        "MTS p2p must pay the NIC round trip: {l1_p2p} !> {base_p2p}"
    );
}

#[test]
fn resource_accounting_matches_sec_4_3() {
    // Baseline shared = 1 core; MTS shared = 2 cores; isolated = one extra
    // core over the Baseline; DPDK = equal cores.
    let totals = |compartments, colocated, mode, dpdk| {
        ResourceLedger {
            compartments,
            colocated,
            mode,
            dpdk,
        }
        .totals()
    };
    assert_eq!(totals(1, true, ResourceMode::Shared, false).cores, 1);
    for k in [1, 2, 4] {
        assert_eq!(totals(k, false, ResourceMode::Shared, false).cores, 2);
        assert_eq!(
            totals(k, false, ResourceMode::Isolated, false).cores,
            totals(k, true, ResourceMode::Isolated, false).cores + 1
        );
        assert_eq!(
            totals(k, false, ResourceMode::Isolated, true).cores,
            totals(k, true, ResourceMode::Isolated, true).cores
        );
    }
}

#[test]
fn vf_budget_matches_sec_3_2() {
    assert_eq!(VfBudget::for_level(SecurityLevel::Level1, 1, 1).total(), 3);
    assert_eq!(VfBudget::for_level(SecurityLevel::Level1, 4, 1).total(), 9);
    assert_eq!(
        VfBudget::for_level(SecurityLevel::Level2 { compartments: 2 }, 2, 1).total(),
        6
    );
    assert_eq!(
        VfBudget::for_level(SecurityLevel::Level2 { compartments: 4 }, 4, 1).total(),
        12
    );
}

#[test]
fn security_ladder_is_monotone() {
    let ladder = attacks::evaluate_ladder().expect("ladder evaluates");
    let counts: Vec<usize> = ladder.iter().map(|r| r.blocked_count()).collect();
    for w in counts.windows(2) {
        assert!(w[1] >= w[0], "blocked counts regress: {counts:?}");
    }
    // Level-1's headline claim: the host survives a compromised vswitch.
    let l1 = &ladder[1];
    assert!(
        l1.outcome(Attack::DirectHostAccess)
            .expect("attack evaluated")
            .blocked
    );
    // Level-2's headline claim: tenants survive each other's vswitches.
    let l2 = &ladder[2];
    assert!(
        l2.outcome(Attack::CompromisedVswitch)
            .expect("attack evaluated")
            .blocked
    );
}

/// TCP windows for debug-mode runs: enough for connection ramp-up and
/// slow start, a sixth of `repro --quick fig6`'s.
fn tcp_window() -> WorkloadOpts {
    WorkloadOpts {
        duration: Dur::millis(50),
        warmup: Dur::millis(50),
        ..WorkloadOpts::default()
    }
}

/// Sec. 5, shared resource mode: every MTS level of the Fig. 6 panel serves
/// at least `ratio` times the Baseline's application throughput, in p2v and
/// in v2v (where Level-2 with four singleton compartments has no tenant
/// pairs to chain).
fn assert_shared_mts_over_baseline(workload: Workload, ratio: f64) {
    let tput = |spec| {
        run_workload(spec, workload, tcp_window())
            .expect("run completes")
            .throughput
    };
    let l1 = SecurityLevel::Level1;
    let l2_2 = SecurityLevel::Level2 { compartments: 2 };
    let l2_4 = SecurityLevel::Level2 { compartments: 4 };
    for (scenario, levels) in [
        (Scenario::P2v, &[l1, l2_2, l2_4][..]),
        (Scenario::V2v, &[l1, l2_2][..]),
    ] {
        let base = tput(DeploymentSpec::baseline(
            DatapathKind::Kernel,
            ResourceMode::Shared,
            1,
            scenario,
        ));
        assert!(
            base > 0.0,
            "{} {scenario:?}: idle Baseline",
            workload.label()
        );
        for &level in levels {
            let mts = tput(DeploymentSpec::mts(
                level,
                DatapathKind::Kernel,
                ResourceMode::Shared,
                scenario,
            ));
            assert!(
                mts >= ratio * base,
                "{} {scenario:?}: {} at {mts:.2} {} is below {ratio}x the Baseline's {base:.2}",
                workload.label(),
                level.label(),
                workload.unit()
            );
        }
    }
}

#[test]
fn shared_apache_mts_serves_1_5x_baseline() {
    // Sec. 5.2: MTS serves web pages "approximately twice as fast".
    assert_shared_mts_over_baseline(Workload::Apache, 1.5);
}

#[test]
fn shared_memcached_mts_serves_1_5x_baseline() {
    assert_shared_mts_over_baseline(Workload::Memcached, 1.5);
}

#[test]
fn shared_iperf_mts_moves_2x_baseline() {
    // Sec. 5.2: "more than 2x in the shared mode".
    assert_shared_mts_over_baseline(Workload::Iperf, 2.0);
}
