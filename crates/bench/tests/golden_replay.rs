//! Golden-replay determinism tests: re-running the quick SLO and faults
//! panels, and every Fig. 6 panel at reduced windows, must reproduce the
//! committed CSVs byte for byte.
//!
//! The panels are pure functions of (spec, seed): no wall clock, no host
//! state, no iteration-order dependence may leak into their output. These
//! tests pin that contract against files under `results/golden/`, so any
//! engine change that silently perturbs event ordering, RNG draws, or
//! float accumulation fails CI with a diff instead of shipping.
//!
//! To re-bless after an *intentional* output change:
//!
//! ```text
//! MTS_BLESS=1 cargo test -p mts-bench --test golden_replay
//! ```

use std::fs;
use std::path::PathBuf;

use mts_bench::figures::{fig6_csv, fig6_panel_with, Fig5Panel, Fig6Panel};
use mts_bench::slo;
use mts_core::workloads::{Workload, WorkloadOpts};
use mts_faults::{blast_radius_panel, experiment, FaultOpts};
use mts_sim::{Dur, Time};

fn golden_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("results/golden")
}

fn check_or_bless(name: &str, fresh: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("MTS_BLESS").is_some() {
        fs::create_dir_all(golden_dir()).expect("create results/golden");
        fs::write(&path, fresh).expect("write golden");
        return;
    }
    let committed = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}; run with MTS_BLESS=1", path.display()));
    assert!(
        committed == fresh,
        "{name}: replay diverged from committed golden ({} vs {} bytes).\n\
         If the output change is intentional, re-bless with\n\
         MTS_BLESS=1 cargo test -p mts-bench --test golden_replay",
        committed.len(),
        fresh.len()
    );
}

#[test]
fn slo_panel_replays_byte_identical() {
    let panel = slo::run_slo_panel(true).expect("quick slo panel");
    check_or_bless("slo_matrix.quick.csv", &slo::matrix_csv(&panel.cells));
    check_or_bless(
        "slo_billing_accuracy.quick.csv",
        &slo::accuracy_csv(&panel.accuracy),
    );
    check_or_bless(
        "slo_conservation.quick.csv",
        &slo::conservation_csv(&panel.conservation),
    );
}

#[test]
fn faults_panel_replays_byte_identical() {
    // Mirrors the repro binary's quick-mode options exactly.
    let opts = FaultOpts {
        rate_pps: 100_000.0,
        run_for: Dur::millis(15),
        fault_at: Time::from_nanos(5_000_000),
        drain: Dur::millis(12),
        ..FaultOpts::default()
    };
    let cells = blast_radius_panel(opts).expect("quick faults panel");
    check_or_bless("faults_blast_radius.quick.csv", &experiment::to_csv(&cells));
}

#[test]
fn fig6_panels_replay_byte_identical_at_reduced_windows() {
    // One seed and 10 ms windows: far below the quick pass (TCP barely
    // leaves slow start), but every TCP path of every panel runs, so any
    // change to the workload set-up or the host stack shows up here.
    let w_opts = WorkloadOpts {
        duration: Dur::millis(10),
        warmup: Dur::millis(10),
        ..WorkloadOpts::default()
    };
    for row in Fig5Panel::ALL {
        for workload in Workload::ALL {
            let panel = Fig6Panel { row, workload };
            let rows = fig6_panel_with(panel, w_opts, &[1]);
            check_or_bless(&format!("{}.reduced.csv", panel.tag()), &fig6_csv(&rows));
        }
    }
}
