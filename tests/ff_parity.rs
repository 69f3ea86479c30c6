//! Fast-path parity suite (DESIGN.md §13 and §16).
//!
//! The fast-forward core elides daemon passes that are provably no-ops
//! (every deadline in [`next_daemon_wakeup`] lies in the future) and
//! runs resident touches through a tight loop; closed-form hit-run
//! batching additionally advances counters, cost and the virtual clock
//! over provably hit-only access runs without touching the TLB arrays.
//! Neither shortcut is allowed to change *any* simulated state: this
//! suite runs every scenario in the registry with each fast path on
//! and off — same DetRng-derived seeds, same workload stream — and
//! requires the full `RunResult` (every MMU counter, alignment stat,
//! latency figure and fragmentation index) to be byte-identical
//! between the paths.
//!
//! [`next_daemon_wakeup`]: ../crates/vm-sim/src/machine.rs

use gemini_harness::runner::{
    record_workload_on, replay_trace_on, run_workload_on, run_workload_reused,
};
use gemini_harness::{trace, Scale};
use gemini_vm_sim::{RunResult, SystemKind, REGISTRY};
use gemini_workloads::spec_by_name;

/// A scale small enough for 2×12 scenario runs per test, large enough
/// that daemons actually fire (and the fast-forward path has real
/// passes to skip).
fn parity_scale(no_ff: bool) -> Scale {
    Scale {
        ops: 1_200,
        no_ff,
        ..Scale::quick()
    }
}

/// Same sizing, toggling hit-run batching instead of fast-forward
/// (fast-forward stays on — batching only exists inside its chunked
/// access loop, so this is the pair that isolates the batch path).
fn batch_scale(no_batch: bool) -> Scale {
    Scale {
        no_batch,
        ..parity_scale(false)
    }
}

/// Requires byte-identity on both comparison surfaces: the complete
/// debug rendering (all counters) and the JSON export line (what the
/// experiment grids serialize).
fn assert_identical(label: &str, fast: &RunResult, faithful: &RunResult) {
    assert_eq!(
        format!("{fast:?}"),
        format!("{faithful:?}"),
        "{label}: fast-forward diverged from the faithful path"
    );
    assert_eq!(
        trace::result_json(fast),
        trace::result_json(faithful),
        "{label}: JSON export diverged"
    );
}

#[test]
fn every_registry_scenario_matches_faithful_clean_slate() {
    let spec = spec_by_name("Redis").expect("Redis is in the catalog");
    for (system, sspec) in REGISTRY {
        let fast = run_workload_on(*system, &spec, &parity_scale(false), false, 7).unwrap();
        let faithful = run_workload_on(*system, &spec, &parity_scale(true), false, 7).unwrap();
        assert_identical(sspec.label, &fast, &faithful);
        assert_eq!(fast.ops, 1_200, "{}: run truncated", sspec.label);
    }
}

#[test]
fn every_registry_scenario_matches_faithful_fragmented() {
    // Fragmentation pre-conditioning exercises the fault/compaction
    // paths the clean-slate leg barely touches.
    let spec = spec_by_name("Canneal").expect("Canneal is in the catalog");
    for (system, sspec) in REGISTRY {
        let fast = run_workload_on(*system, &spec, &parity_scale(false), true, 11).unwrap();
        let faithful = run_workload_on(*system, &spec, &parity_scale(true), true, 11).unwrap();
        assert_identical(sspec.label, &fast, &faithful);
    }
}

#[test]
fn reused_vm_scenario_matches_faithful() {
    // The reused-VM runner chains two workloads in one machine; the
    // second run starts from non-zero clocks and warm TLBs, so its
    // daemon deadlines are mid-flight when fast-forward kicks in.
    let spec = spec_by_name("Xapian").expect("Xapian is in the catalog");
    for (system, sspec) in REGISTRY.iter().filter(|(_, s)| s.evaluated) {
        let fast = run_workload_reused(*system, &spec, &parity_scale(false), 13).unwrap();
        let faithful = run_workload_reused(*system, &spec, &parity_scale(true), 13).unwrap();
        assert_identical(sspec.label, &fast, &faithful);
    }
}

#[test]
fn fleet_host_matches_faithful() {
    // The fleet driver caches one daemon wakeup per resident VM and
    // fast-forwards between lifecycle events; with `--no-ff` it runs a
    // daemon pass after every request batch instead. The whole
    // `HostRun` — every per-VM result, churn counter, end-state figure
    // and sampled series point — must be byte-identical either way.
    use gemini_harness::experiments::fleet;
    for &system in &fleet::SYSTEMS {
        let fast = fleet::run_host(system, &parity_scale(false), 0).unwrap();
        let faithful = fleet::run_host(system, &parity_scale(true), 0).unwrap();
        assert_eq!(
            format!("{fast:?}"),
            format!("{faithful:?}"),
            "fleet/{}: fast-forward diverged across VM lifecycles",
            system.label()
        );
    }
}

#[test]
fn collocated_pair_matches_no_batch_and_faithful() {
    // Two VMs share one host and take turns by virtual clock, one
    // request per turn. Under every evaluated system, both VMs' results
    // must be byte-identical whether the turns run with fast-forward
    // and batching, with `--no-batch`, or faithfully (`--no-ff`).
    use gemini_harness::experiments::collocated;
    let pair = [("Redis", "SP.D")];
    let run = |scale: &Scale| collocated::run(scale, Some(&pair)).unwrap();
    let fast = run(&batch_scale(false));
    for (leg, other) in [
        ("no_batch", run(&batch_scale(true))),
        ("faithful", run(&parity_scale(true))),
    ] {
        let vms = |res: &collocated::CollocatedResults| res.runs[0].concat();
        for (f, o) in vms(&fast).iter().zip(&vms(&other)) {
            let label = format!("collocated/{leg}/{}/{}", f.system, f.workload);
            assert_identical(&label, f, o);
        }
    }
    assert_eq!(fast.runs[0][0][0].ops, 1_200, "collocated run truncated");
}

#[test]
fn fleet_grid_is_byte_identical_at_any_jobs() {
    // One executor cell per (system, host): worker count may only move
    // the wall clock, never the simulated fleet.
    use gemini_harness::experiments::fleet;
    let seq = fleet::run(&Scale {
        jobs: 1,
        ..parity_scale(false)
    })
    .unwrap();
    for jobs in [2usize, 4] {
        let par = fleet::run(&Scale {
            jobs,
            ..parity_scale(false)
        })
        .unwrap();
        assert_eq!(
            format!("{:?}", seq.runs),
            format!("{:?}", par.runs),
            "fleet grid diverged at jobs={jobs}"
        );
    }
}

#[test]
fn parity_holds_across_seeds_and_workloads() {
    // A small sweep over seeds × workloads on the paper's headline
    // system, so the invariant is not an artifact of one stream shape.
    for workload in ["Redis", "SVM", "Memcached"] {
        let spec = spec_by_name(workload).expect("catalog workload");
        for seed in [1u64, 42, 4242] {
            let fast = run_workload_on(
                gemini_vm_sim::SystemKind::Gemini,
                &spec,
                &parity_scale(false),
                false,
                seed,
            )
            .unwrap();
            let faithful = run_workload_on(
                gemini_vm_sim::SystemKind::Gemini,
                &spec,
                &parity_scale(true),
                false,
                seed,
            )
            .unwrap();
            assert_identical(&format!("{workload}/seed{seed}"), &fast, &faithful);
        }
    }
}

#[test]
fn every_registry_scenario_matches_no_batch_clean_slate() {
    let spec = spec_by_name("Redis").expect("Redis is in the catalog");
    for (system, sspec) in REGISTRY {
        let batched = run_workload_on(*system, &spec, &batch_scale(false), false, 7).unwrap();
        let plain = run_workload_on(*system, &spec, &batch_scale(true), false, 7).unwrap();
        assert_identical(sspec.label, &batched, &plain);
        assert_eq!(batched.ops, 1_200, "{}: run truncated", sspec.label);
    }
}

#[test]
fn every_registry_scenario_matches_no_batch_fragmented() {
    // Fragmented memory keeps base and huge entries mixed in the L1s,
    // so batch windows keep opening and closing on promotions,
    // demotions and shootdowns — the epoch-guard paths, not just the
    // happy run.
    let spec = spec_by_name("Canneal").expect("Canneal is in the catalog");
    for (system, sspec) in REGISTRY {
        let batched = run_workload_on(*system, &spec, &batch_scale(false), true, 11).unwrap();
        let plain = run_workload_on(*system, &spec, &batch_scale(true), true, 11).unwrap();
        assert_identical(sspec.label, &batched, &plain);
    }
}

#[test]
fn reused_vm_scenario_matches_no_batch() {
    // The second workload starts on warm TLBs, so batching engages from
    // the very first chunk instead of after a fill ramp.
    let spec = spec_by_name("Xapian").expect("Xapian is in the catalog");
    for (system, sspec) in REGISTRY.iter().filter(|(_, s)| s.evaluated) {
        let batched = run_workload_reused(*system, &spec, &batch_scale(false), 13).unwrap();
        let plain = run_workload_reused(*system, &spec, &batch_scale(true), 13).unwrap();
        assert_identical(sspec.label, &batched, &plain);
    }
}

#[test]
fn fleet_host_matches_no_batch() {
    // Lifecycle churn (VM arrivals/departures, clear_workload, host
    // rebalancing) hammers the invalidation paths that bump the
    // stability epoch; the fleet leg proves the guard composes with
    // all of it.
    use gemini_harness::experiments::fleet;
    for &system in &fleet::SYSTEMS {
        let batched = fleet::run_host(system, &batch_scale(false), 0).unwrap();
        let plain = fleet::run_host(system, &batch_scale(true), 0).unwrap();
        assert_eq!(
            format!("{batched:?}"),
            format!("{plain:?}"),
            "fleet/{}: hit-run batching diverged across VM lifecycles",
            system.label()
        );
    }
}

#[test]
fn recorded_trace_replays_identically_with_batching_on_and_off() {
    // Record once (batched), then replay the same trace through both
    // batch settings: live, batched replay and --no-batch replay must
    // agree byte-for-byte, so traces recorded before and after this PR
    // stay interchangeable.
    use gemini_workloads::TraceStream;
    let spec = spec_by_name("Canneal").expect("Canneal is in the catalog");
    let live = run_workload_on(SystemKind::Gemini, &spec, &batch_scale(false), true, 17).unwrap();
    let mut trace_bytes = Vec::new();
    let (recorded, events) = record_workload_on(
        SystemKind::Gemini,
        &spec,
        &batch_scale(false),
        "quick",
        true,
        17,
        &mut trace_bytes,
    )
    .unwrap();
    assert!(events > 0);
    assert_identical("record-tee", &recorded, &live);
    for no_batch in [false, true] {
        let mut stream = TraceStream::new(std::io::Cursor::new(trace_bytes.clone())).unwrap();
        let replayed = replay_trace_on(
            SystemKind::Gemini,
            &mut stream,
            &batch_scale(no_batch),
            true,
        )
        .unwrap();
        assert_identical(&format!("replay/no_batch={no_batch}"), &replayed, &live);
    }
}
