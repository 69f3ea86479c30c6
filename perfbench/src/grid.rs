//! The three benchmark workloads: one pass through each experiment
//! entry point, the cell plans that rebuild the same cells from outside
//! (for set-up timing and the traced pass), and the model metrics.
//!
//! A *cell* is one executor job of the entry point: one machine of the
//! fig. 3 grid, one fleet host, or one collocated pair under one system.
//! The plans below repeat each entry point's seed derivation and machine
//! configuration; the result digests prove the copy exact, because a
//! replayed cell must produce the entry point's `RunResult` text byte for
//! byte.

use crate::stats::{fnv64, geomean, ns_since, ratio};
use gemini_harness::exec::run_cells_hinted;
use gemini_harness::experiments::{collocated, fleet, motivation};
use gemini_harness::Scale;
use gemini_obs::profile::PhaseStat;
use gemini_obs::{Phase, Profiler, Recorder, Registry, TraceConfig};
use gemini_sim_core::{derive_seed, SimError};
use gemini_tlb::PerfCounters;
use gemini_vm_sim::{FleetArrival, Machine, MachineConfig, RunResult, SystemKind};
use gemini_workloads::{
    spec_by_name, FleetPlan, HostPlan, WorkloadEvent, WorkloadGen, WorkloadSpec,
};
use std::time::Instant;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `experiments::motivation::run`: 4 apps × 8 systems, fragmented.
    Fig3Grid,
    /// `experiments::fleet::run`: VM lifecycles over 2 systems × 4 hosts.
    FleetChurn,
    /// `experiments::collocated::run`: 4 pairs × 8 systems, two VMs each.
    CollocatedPairs,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig3Grid,
        Workload::FleetChurn,
        Workload::CollocatedPairs,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3Grid => "fig3-grid",
            Workload::FleetChurn => "fleet-churn",
            Workload::CollocatedPairs => "collocated-pairs",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn by_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Lifecycle counts of one fleet host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetCounts {
    /// VMs the plan routed to the host.
    pub planned: usize,
    /// VMs that completed their lifecycle.
    pub completed: usize,
    /// Arrivals plus departures `run_fleet` processed.
    pub churn_events: u64,
}

/// One cell of an entry-point pass.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Grid row: workload, fleet host or pair index.
    pub row: usize,
    /// System the cell ran under.
    pub system: SystemKind,
    /// Digest of the cell's result `Debug` text.
    pub digest: u64,
    /// Every VM run of the cell.
    pub runs: Vec<RunResult>,
    /// Lifecycle counts (fleet hosts only).
    pub fleet: Option<FleetCounts>,
}

impl Cell {
    /// Simulated accesses summed over the cell's VM runs.
    pub fn accesses(&self) -> u64 {
        self.runs.iter().map(|r| r.counters.accesses).sum()
    }
}

/// One pass of an experiment entry point.
#[derive(Debug, Clone)]
pub struct EntryPass {
    /// The pass's cells, in the entry point's order.
    pub cells: Vec<Cell>,
    /// Host seconds inside the entry-point call alone; digests and the
    /// cell list are built after the clock stops.
    pub secs: f64,
    /// `gemini_nonsensitive_overhead()` of a `collocated-pairs` pass.
    pub gemini_overhead: Option<f64>,
}

/// Runs one pass of `w`'s experiment entry point with tracing off.
pub fn entry_pass(w: Workload, scale: &Scale) -> Result<EntryPass, SimError> {
    let mut cells = Vec::new();
    let mut gemini_overhead = None;
    let t = Instant::now();
    let secs = match w {
        Workload::Fig3Grid => {
            let res = motivation::run(scale)?;
            let secs = t.elapsed().as_secs_f64();
            let systems = SystemKind::evaluated();
            for (row, per_sys) in res.runs.into_iter().enumerate() {
                for (r, &system) in per_sys.into_iter().zip(&systems) {
                    cells.push(Cell {
                        row,
                        system,
                        digest: fnv64(&format!("{r:?}")),
                        runs: vec![r],
                        fleet: None,
                    });
                }
            }
            secs
        }
        Workload::FleetChurn => {
            let res = fleet::run(scale)?;
            let secs = t.elapsed().as_secs_f64();
            for host in res.runs {
                let system = SystemKind::by_label(host.system).expect("fleet system label");
                cells.push(Cell {
                    row: host.host as usize,
                    system,
                    digest: fnv64(&format!("{host:?}")),
                    fleet: Some(FleetCounts {
                        planned: host.planned_vms,
                        completed: host.outcome.vms.len(),
                        churn_events: host.outcome.churn_events,
                    }),
                    runs: host.outcome.vms.into_iter().map(|v| v.result).collect(),
                });
            }
            secs
        }
        Workload::CollocatedPairs => {
            let res = collocated::run(scale, None)?;
            let secs = t.elapsed().as_secs_f64();
            gemini_overhead = Some(res.gemini_nonsensitive_overhead());
            let systems = SystemKind::evaluated();
            for (row, per_sys) in res.runs.into_iter().enumerate() {
                for (pair, &system) in per_sys.into_iter().zip(&systems) {
                    cells.push(Cell {
                        row,
                        system,
                        digest: fnv64(&format!("{pair:?}")),
                        runs: pair.to_vec(),
                        fleet: None,
                    });
                }
            }
            secs
        }
    };
    Ok(EntryPass {
        cells,
        secs,
        gemini_overhead,
    })
}

/// Simulated model outcomes of one pass. A pure speed-up leaves every
/// field unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Model {
    /// GEMINI's simulated throughput over THP's: the geometric mean over
    /// pairing keys of the per-key ratio of geometric means.
    pub speedup_vs_thp: f64,
    /// Mean well-aligned huge-page rate over GEMINI's runs.
    pub aligned_rate: f64,
    /// The smallest per-key ratio of GEMINI's throughput to its
    /// baseline's.
    pub worst_tput_ratio: f64,
    /// GEMINI's worst slowdown against its baseline: the entry point's
    /// `gemini_nonsensitive_overhead()` on `collocated-pairs`, else
    /// `1 - worst_tput_ratio` floored at 0.
    pub overhead: f64,
}

/// Computes the model metrics of a pass.
///
/// Runs of GEMINI and of a comparison system are paired by key: the
/// grid row on `fig3-grid` (same workload, same seed); the row and VM
/// slot on `collocated-pairs`; the catalog workload on `fleet-churn`,
/// whose two systems run fleets drawn from different plans, so only
/// runs of the same workload are comparable there. The worst-ratio
/// baseline is `Host-B-VM-B` on the two grids — restricted to the
/// non-sensitive VM on `collocated-pairs`, the paper's fig. 17 measure —
/// and THP on the fleet, which runs only THP and GEMINI.
pub fn model(w: Workload, pass: &EntryPass) -> Model {
    let cells = &pass.cells;
    let key = |c: &Cell, slot: usize, r: &RunResult| -> String {
        match w {
            Workload::Fig3Grid => c.row.to_string(),
            Workload::CollocatedPairs => format!("{}/{slot}", c.row),
            Workload::FleetChurn => r.workload.clone(),
        }
    };
    // Per-key geometric-mean throughput ratio of GEMINI over `base`.
    let ratios = |base: SystemKind, slots: &dyn Fn(usize) -> bool| -> Vec<f64> {
        let mut by_key: std::collections::BTreeMap<String, [Vec<f64>; 2]> = Default::default();
        for c in cells {
            let side = if c.system == SystemKind::Gemini {
                0
            } else if c.system == base {
                1
            } else {
                continue;
            };
            for (slot, r) in c.runs.iter().enumerate().filter(|(s, _)| slots(*s)) {
                by_key.entry(key(c, slot, r)).or_default()[side].push(r.throughput());
            }
        }
        by_key
            .values()
            .filter(|[g, b]| !g.is_empty() && !b.is_empty())
            .map(|[g, b]| ratio(geomean(g), geomean(b)))
            .collect()
    };
    let gemini_runs: Vec<&RunResult> = cells
        .iter()
        .filter(|c| c.system == SystemKind::Gemini)
        .flat_map(|c| &c.runs)
        .collect();
    let (baseline, slots): (SystemKind, &dyn Fn(usize) -> bool) = match w {
        Workload::Fig3Grid => (SystemKind::evaluated()[0], &|_| true),
        Workload::CollocatedPairs => (SystemKind::evaluated()[0], &|s| s == 1),
        Workload::FleetChurn => (SystemKind::Thp, &|_| true),
    };
    let worst = ratios(baseline, slots)
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    let worst_tput_ratio = if worst.is_finite() { worst } else { 0.0 };
    Model {
        speedup_vs_thp: geomean(&ratios(SystemKind::Thp, &|_| true)),
        aligned_rate: ratio(
            gemini_runs.iter().map(|r| r.aligned_rate()).sum(),
            gemini_runs.len() as f64,
        ),
        worst_tput_ratio,
        overhead: pass
            .gemini_overhead
            .unwrap_or((1.0 - worst_tput_ratio).max(0.0)),
    }
}

/// How to rebuild one cell of an entry point from outside.
#[derive(Debug, Clone)]
pub enum Plan {
    /// One VM running one workload (fig. 3).
    Single {
        /// Scaled workload.
        spec: WorkloadSpec,
        /// Stream seed.
        seed: u64,
    },
    /// Two VMs interleaved by virtual time (collocated pairs).
    Pair {
        /// Scaled workloads: TLB-sensitive, then non-sensitive.
        specs: [WorkloadSpec; 2],
        /// Their stream seeds.
        seeds: [u64; 2],
    },
    /// One fleet host's arrival sequence.
    Host {
        /// The host's arrivals.
        plan: HostPlan,
        /// Residency cap of the fleet plan.
        cap: u64,
    },
}

/// One cell as the benchmark rebuilds it.
#[derive(Debug, Clone)]
pub struct CellPlan {
    /// Human-readable cell name.
    pub label: String,
    /// Executor cost hint (the entry point's dispatch order).
    pub hint: u64,
    /// System under test.
    pub system: SystemKind,
    /// Operations per VM run (unused by fleet hosts, whose VMs carry
    /// their own lifetimes).
    pub ops: u64,
    /// Machine configuration, exactly as the entry point builds it.
    pub cfg: MachineConfig,
    /// What runs on the machine.
    pub plan: Plan,
}

/// The cells of `w` at `scale`, in the entry point's submission order.
pub fn plans(w: Workload, scale: &Scale) -> Vec<CellPlan> {
    let mut out = Vec::new();
    match w {
        Workload::Fig3Grid => {
            for (wi, name) in motivation::WORKLOADS.iter().enumerate() {
                let spec = spec_by_name(name).expect("motivation workload in catalog");
                let seed = scale.seed_for("motivation", wi as u64);
                for system in SystemKind::evaluated() {
                    out.push(CellPlan {
                        label: format!("{name}/{}", system.label()),
                        hint: system.cost_hint(),
                        system,
                        ops: scale.ops,
                        cfg: scale.machine_config(true, spec.zero_heavy, seed),
                        plan: Plan::Single {
                            spec: spec.scaled(scale.ws_factor),
                            seed,
                        },
                    });
                }
            }
        }
        Workload::FleetChurn => {
            let spec = fleet::fleet_spec(scale);
            for (si, &system) in fleet::SYSTEMS.iter().enumerate() {
                let plan_seed = scale.seed_for("fleet", si as u64);
                let fleet_plan = FleetPlan::generate(&spec, plan_seed);
                for host_plan in fleet_plan.hosts {
                    let seed = derive_seed(plan_seed, "fleet-host", host_plan.host as u64);
                    // The configuration `fleet::run_host_cell` builds.
                    let mut cfg = scale.machine_config(false, false, seed);
                    cfg.fragment_host = Some(scale.frag_target * 2.0 / 3.0);
                    cfg.trace = TraceConfig {
                        mask: gemini_obs::cat::NONE,
                        ring_capacity: 0,
                        sample_interval: Some(gemini_sim_core::Cycles::from_millis(0.25)),
                    };
                    out.push(CellPlan {
                        label: format!("host{}/{}", host_plan.host, system.label()),
                        hint: 0,
                        system,
                        ops: scale.ops,
                        cfg,
                        plan: Plan::Host {
                            plan: host_plan,
                            cap: fleet_plan.resident_cap_frames,
                        },
                    });
                }
            }
        }
        Workload::CollocatedPairs => {
            for (pi, &(sens, nonsens)) in collocated::PAIRS.iter().enumerate() {
                let seed = scale.seed_for("collocated", pi as u64);
                let seed2 = derive_seed(seed, "collocated-nonsens", pi as u64);
                let spec = |n: &str| {
                    spec_by_name(n)
                        .expect("pair workload in catalog")
                        .scaled(scale.ws_factor)
                };
                for system in SystemKind::evaluated() {
                    out.push(CellPlan {
                        label: format!("{sens}+{nonsens}/{}", system.label()),
                        hint: 0,
                        system,
                        ops: scale.ops,
                        cfg: scale.collocated_config(seed),
                        plan: Plan::Pair {
                            specs: [spec(sens), spec(nonsens)],
                            seeds: [seed, seed2],
                        },
                    });
                }
            }
        }
    }
    out
}

/// Times one construction-only pass: every machine the entry point
/// builds, with `Machine::new` plus each `add_vm` — and, for fleet
/// arrivals, `remove_vm` of the still-empty VM — on this thread. Drops
/// are not timed. Returns seconds.
pub fn construct_only(plans: &[CellPlan]) -> Result<f64, SimError> {
    let mut total_ns = 0;
    for p in plans {
        let t = Instant::now();
        let mut m = Machine::new(p.system, p.cfg.clone());
        match &p.plan {
            Plan::Single { .. } => {
                m.add_vm()?;
            }
            Plan::Pair { .. } => {
                m.add_vm()?;
                m.add_vm()?;
            }
            Plan::Host { plan, .. } => {
                for _ in &plan.vms {
                    let vm = m.add_vm()?;
                    m.remove_vm(vm)?;
                }
            }
        }
        total_ns += ns_since(t);
        drop(m);
    }
    Ok(total_ns as f64 / 1e9)
}

/// Trace mask of the traced replay. Any non-empty mask turns the
/// registry's counters on; the promotion category is added because the
/// layer engine counts `mm.*.promotions` only while promotion events are
/// wanted. The zero-capacity ring drops the events themselves.
const COUNTER_MASK: u32 = gemini_obs::cat::PROMOTION;

/// One cell replayed from its plan, with the benchmark's own spans.
#[derive(Debug, Clone, Default)]
pub struct CellTrace {
    /// Digest of the cell's result `Debug` text.
    pub digest: u64,
    /// Wall time of the cell, from `Machine::new` to the return of the
    /// run call, less the profiler snapshot taken before the run.
    pub wall_ns: u64,
    /// `Machine::new` plus `add_vm` (fleet: `Machine::new` only; its
    /// lifecycles run inside the run span).
    pub setup_ns: u64,
    /// `WorkloadGen::pregenerate` of every stream the cell runs.
    pub gen_ns: u64,
    /// `Machine::run` / `run_collocated` / `run_fleet`.
    pub run_ns: u64,
    /// Profiler phase totals recorded inside the run span.
    pub run_phases: Vec<(Phase, PhaseStat)>,
    /// Profiler self-time recorded inside the run span.
    pub run_self_ns: u64,
    /// The machine recorder's metrics registry.
    pub registry: Registry,
    /// MMU counters summed over the cell's VM runs.
    pub perf: PerfCounters,
}

fn sum_perf<'a>(runs: impl IntoIterator<Item = &'a RunResult>) -> PerfCounters {
    let mut p = PerfCounters::default();
    for r in runs {
        let c = &r.counters;
        p.accesses += c.accesses;
        p.l1_hits += c.l1_hits;
        p.stlb_hits += c.stlb_hits;
        p.stlb_misses += c.stlb_misses;
        p.huge_walks += c.huge_walks;
        p.walk_mem_refs += c.walk_mem_refs;
        p.ntlb_hits += c.ntlb_hits;
        p.ntlb_misses += c.ntlb_misses;
        p.gpwc_hits += c.gpwc_hits;
        p.epwc_hits += c.epwc_hits;
        p.translation_cycles += c.translation_cycles;
        p.shootdowns += c.shootdowns;
    }
    p
}

/// Phase totals of `after` minus `before`.
fn phase_delta(
    before: &gemini_obs::ProfileReport,
    after: &gemini_obs::ProfileReport,
) -> Vec<(Phase, PhaseStat)> {
    after
        .phases
        .iter()
        .map(|&(phase, a)| {
            let b = before
                .phases
                .iter()
                .find(|(p, _)| *p == phase)
                .map_or(PhaseStat::default(), |(_, s)| *s);
            (
                phase,
                PhaseStat {
                    count: a.count - b.count,
                    cum_ns: a.cum_ns - b.cum_ns,
                    self_ns: a.self_ns - b.self_ns,
                },
            )
        })
        .collect()
}

/// Replays one cell from its plan. With `prof` on, the machine records
/// into that profiler and a counters-only recorder; with it off, the
/// cell runs exactly as the entry point runs it. The cell clock stops
/// when the run call returns; the profiler snapshot taken just before
/// the run is timed and left out of it.
fn replay_cell(p: &CellPlan, prof: Profiler) -> Result<CellTrace, SimError> {
    let traced = prof.is_on();
    let mut cfg = p.cfg.clone();
    if traced {
        cfg.profiler = prof.clone();
        cfg.trace = TraceConfig {
            mask: COUNTER_MASK,
            ring_capacity: 0,
            sample_interval: cfg.trace.sample_interval,
        };
    }
    let mut out = CellTrace::default();
    // A profiler snapshot and the nanoseconds it took.
    let snapshot = || {
        let t = Instant::now();
        (prof.report(), ns_since(t))
    };
    let start = Instant::now();
    let mut m = Machine::new(p.system, cfg);
    let (before, digest, runs) = match &p.plan {
        Plan::Single { spec, seed } => {
            let vm = m.add_vm()?;
            out.setup_ns = ns_since(start);
            let t = Instant::now();
            let stream = WorkloadGen::new(spec.clone(), p.ops, *seed).pregenerate();
            out.gen_ns = ns_since(t);
            let (before, snapshot_ns) = snapshot();
            let t = Instant::now();
            let r = m.run(vm, stream)?;
            out.run_ns = ns_since(t);
            out.wall_ns = ns_since(start) - snapshot_ns;
            (before, fnv64(&format!("{r:?}")), vec![r])
        }
        Plan::Pair { specs, seeds } => {
            let vm1 = m.add_vm()?;
            let vm2 = m.add_vm()?;
            out.setup_ns = ns_since(start);
            let t = Instant::now();
            let g1 = WorkloadGen::new(specs[0].clone(), p.ops, seeds[0]).pregenerate();
            let g2 = WorkloadGen::new(specs[1].clone(), p.ops, seeds[1]).pregenerate();
            out.gen_ns = ns_since(t);
            let (before, snapshot_ns) = snapshot();
            let t = Instant::now();
            let results = m.run_collocated(vec![(vm1, g1), (vm2, g2)])?;
            out.run_ns = ns_since(t);
            out.wall_ns = ns_since(start) - snapshot_ns;
            let pair: [RunResult; 2] = results
                .try_into()
                .map_err(|_| SimError::Invariant("collocated run returned != 2 results"))?;
            (before, fnv64(&format!("{pair:?}")), pair.to_vec())
        }
        Plan::Host { plan, cap } => {
            out.setup_ns = ns_since(start);
            let t = Instant::now();
            let arrivals: Vec<_> = plan
                .vms
                .iter()
                .map(|v| FleetArrival {
                    index: v.index,
                    footprint_frames: v.footprint_frames,
                    gen: WorkloadGen::new(v.spec.clone(), v.ops, v.seed).pregenerate(),
                })
                .collect();
            out.gen_ns = ns_since(t);
            let (before, snapshot_ns) = snapshot();
            let t = Instant::now();
            let outcome = m.run_fleet(arrivals, *cap)?;
            out.run_ns = ns_since(t);
            out.wall_ns = ns_since(start) - snapshot_ns;
            let host = fleet::HostRun {
                system: p.system.label(),
                host: plan.host,
                planned_vms: plan.vms.len(),
                samples: m.recorder().samples(),
                outcome,
            };
            let runs = host.outcome.vms.iter().map(|v| v.result.clone()).collect();
            (before, fnv64(&format!("{host:?}")), runs)
        }
    };
    out.run_phases = phase_delta(&before, &prof.report());
    out.digest = digest;
    out.perf = sum_perf(&runs);
    out.run_self_ns = out.run_phases.iter().map(|(_, s)| s.self_ns).sum();
    out.registry = m.recorder().registry();
    Ok(out)
}

/// Replays every cell on `jobs` workers; with `traced`, each cell gets
/// its own fork of one wall-clock profiler. Returns the cells in plan
/// order and the pass wall time in nanoseconds.
pub fn replay_pass(
    plans: &[CellPlan],
    jobs: usize,
    traced: bool,
) -> (Vec<Result<CellTrace, SimError>>, u64) {
    let root = if traced {
        Profiler::wall(false)
    } else {
        Profiler::off()
    };
    let root = &root;
    let cells: Vec<_> = plans
        .iter()
        .enumerate()
        .map(|(i, p)| (p.hint, move || replay_cell(p, root.fork(i as u32))))
        .collect();
    let t = Instant::now();
    let out = run_cells_hinted(jobs, &Recorder::off(), cells);
    (out, ns_since(t))
}

/// Events one cell's streams generate.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamCounts {
    /// `Touch` events: the simulated accesses the cell must make.
    pub touches: u64,
    /// Every event.
    pub events: u64,
}

/// Counts each cell's generated events by draining fresh generators on
/// `jobs` workers.
pub fn stream_counts(plans: &[CellPlan], jobs: usize) -> Vec<StreamCounts> {
    let count = |spec: &WorkloadSpec, ops: u64, seed: u64, n: &mut StreamCounts| {
        let mut g = WorkloadGen::new(spec.clone(), ops, seed);
        while let Some(ev) = g.next_event() {
            n.touches += u64::from(matches!(ev, WorkloadEvent::Touch { .. }));
            n.events += 1;
        }
    };
    let cells: Vec<_> = plans
        .iter()
        .map(|p| {
            (p.hint, move || {
                let mut n = StreamCounts::default();
                match &p.plan {
                    Plan::Single { spec, seed } => count(spec, p.ops, *seed, &mut n),
                    Plan::Pair { specs, seeds } => {
                        count(&specs[0], p.ops, seeds[0], &mut n);
                        count(&specs[1], p.ops, seeds[1], &mut n);
                    }
                    Plan::Host { plan, .. } => {
                        for v in &plan.vms {
                            count(&v.spec, v.ops, v.seed, &mut n);
                        }
                    }
                }
                n
            })
        })
        .collect();
    run_cells_hinted(jobs, &Recorder::off(), cells)
}
