//! The benchmark's own checks: its work counters repeat exactly, the
//! traced run reproduces the untraced cells, and every dispatch tag the
//! workloads produce belongs to a layer. Run with `--release`: the
//! workloads are the benchmark's full-size ones.

use mts_perfbench::trace::{layer_of, trace_cell, Trace, TAGS};
use mts_perfbench::workloads::{check_cell, Workload};

#[test]
fn counters_repeat_exactly_across_runs() {
    for wl in Workload::ALL {
        let a = wl.counters(5).unwrap();
        let b = wl.counters(5).unwrap();
        assert!(a["sim.events"] > 0, "{}: no events", wl.name());
        assert_eq!(a, b, "{}: counters differ between two runs", wl.name());
    }
}

#[test]
fn every_dispatch_tag_maps_to_one_layer() {
    for wl in Workload::ALL {
        for key in wl.counters(2).unwrap().keys() {
            if let Some(tag) = key.strip_prefix("dispatch.") {
                assert!(layer_of(tag).is_some(), "{}: unmapped tag {tag}", wl.name());
            }
        }
    }
    for (i, (tag, _)) in TAGS.iter().enumerate() {
        assert!(
            TAGS[i + 1..].iter().all(|(t, _)| t != tag),
            "tag {tag} listed twice"
        );
    }
    assert_eq!(layer_of("no.such.tag"), None);
}

#[test]
fn traced_cells_reproduce_the_untraced_op() {
    for wl in [
        Workload::MegaflowMissL2_2,
        Workload::TelemetryV2vL2_2,
        Workload::Fig6SharedApache,
    ] {
        let seed = 7;
        wl.precheck(seed);
        let untraced = wl.op(seed).unwrap();
        assert!(wl.check(seed, &untraced).is_empty(), "{}", wl.name());
        let mut tr = Trace::default();
        for (cell, u) in wl.cells(seed).iter().zip(&untraced) {
            let out = trace_cell(cell, &mut tr).unwrap();
            assert_eq!(out.line, u.line, "{}", wl.name());
            assert!(check_cell(&out).is_empty(), "{}", wl.name());
        }
        assert_eq!(tr.counters, wl.counters(seed).unwrap(), "{}", wl.name());
        let traced_events: u64 = tr.by_tag.values().map(|v| v.0).sum();
        assert_eq!(traced_events, tr.counters["sim.events"], "{}", wl.name());
    }
}

#[test]
fn reference_outputs_match_at_the_reference_seed() {
    for wl in [Workload::MegaflowMissL2_2, Workload::TelemetryV2vL2_2] {
        let seed = mts_perfbench::workloads::REFERENCE_SEED;
        wl.precheck(seed);
        let out = wl.op(seed).unwrap();
        assert!(wl.check(seed, &out).is_empty(), "{}", wl.name());
        // Another seed changes the outputs, so only the identities apply.
        let other = wl.op(seed + 1).unwrap();
        assert_ne!(out[0].line, other[0].line, "{}", wl.name());
        assert!(wl.check(seed + 1, &other).is_empty(), "{}", wl.name());
    }
}
