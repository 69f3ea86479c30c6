//! The repository benchmark: three workloads driven through the
//! harness's experiment entry points, end-to-end metrics from untraced
//! passes, and a per-layer breakdown from a separate traced run. See
//! README.md in this directory for the workloads, the metric map and how
//! to compare two commits.

pub mod grid;
pub mod probes;
pub mod stats;

use gemini_harness::Scale;
use gemini_obs::profile::PhaseStat;
use gemini_obs::Phase;
use grid::{CellTrace, Workload};
use stats::{median, ratio, Context};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("wall_s", "s", "lower"),
    m("sim_accesses_per_s", "1/s", "higher"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
    m("gemini_speedup_vs_thp", "ratio", "higher"),
    m("gemini_worst_tput_ratio", "ratio", "higher"),
];

/// Metrics of a traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    m("exec.cell_ms_p50", "ms", "lower"),
    m("exec.cell_ms_tail", "ms", "lower"),
    m("exec.cell_ms_tail_pct", "%", "higher"),
    m("exec.cell_samples", "count", "higher"),
    m("exec.busy_frac", "ratio", "higher"),
    m("vm_sim.setup_ms", "ms", "lower"),
    m("vm_sim.run_ms", "ms", "lower"),
    m("vm_sim.run_ns_per_access", "ns", "lower"),
    m("vm_sim.add_vm_ms", "ms", "lower"),
    m("vm_sim.remove_vm_ms", "ms", "lower"),
    m("vm_sim.unattributed_pct", "%", "lower"),
    m("workloads.gen_ms", "ms", "lower"),
    m("workloads.gen_ns_per_event", "ns", "lower"),
    m("tlb.probe_ns", "ns", "lower"),
    m("tlb.l1_hit_rate", "ratio", "higher"),
    m("tlb.stlb_miss_rate", "ratio", "lower"),
    m("tlb.shootdowns", "count", "lower"),
    m("tlb.batch_hit_rate", "ratio", "higher"),
    m("tlb.batch_break_rate", "ratio", "lower"),
    m("page_table.walk_ns", "ns", "lower"),
    m("page_table.walk_refs_per_miss", "count", "lower"),
    m("buddy.alloc_ns", "ns", "lower"),
    m("buddy.free_ns", "ns", "lower"),
    m("buddy.alloc9_ns", "ns", "lower"),
    m("buddy.free9_ns", "ns", "lower"),
    m("buddy.run_probes", "count", "lower"),
    m("buddy.index_updates", "count", "lower"),
    m("mm.fault_path_ms", "ms", "lower"),
    m("mm.guest_faults", "count", "lower"),
    m("mm.host_faults", "count", "lower"),
    m("mm.promotions", "count", "higher"),
    m("mm.promo_pages_copied", "count", "lower"),
    m("mm.demotions", "count", "lower"),
    m("mm.compact_pages", "count", "lower"),
    m("daemon.passes", "count", "lower"),
    m("daemon.pass_ms", "ms", "lower"),
    m("daemon.contiguity_scan_ms", "ms", "lower"),
    m("daemon.promotion_ms", "ms", "lower"),
    m("gemini.bookings_placed", "count", "higher"),
    m("gemini.mhps_scans", "count", "lower"),
    m("obs.trace_overhead_pct", "%", "lower"),
    m("obs.trace_overhead_pct_worst_cell", "%", "lower"),
    m("model.gemini_aligned_rate", "ratio", "higher"),
    m("model.gemini_overhead", "ratio", "lower"),
];

/// Iterations per untraced run, at least; each makes one
/// construction-only pass and one timed entry pass. `wall_s` is the
/// fastest entry pass, `setup_s` the median construction-only pass.
const MIN_PASSES: usize = 3;
/// Rounds of the buddy probe; its figures are their medians.
const BUDDY_ROUNDS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Run the traced per-layer breakdown instead of the end-to-end
    /// passes.
    pub trace: bool,
    /// Simulator scale, carrying the workload seed and the worker count.
    pub scale: Scale,
}

impl Options {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(Workload::by_name(v).ok_or(format!("unknown workload {v}"))?);
                }
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let seconds: f64 = seconds.ok_or("--seconds is required")?;
        if !(0.0..=86_400.0).contains(&seconds) {
            return Err(format!("--seconds must lie in 0..=86400, not {seconds}"));
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seconds,
            trace,
            scale: Scale {
                seed: seed.ok_or("--seed is required")?,
                jobs: std::thread::available_parallelism().map_or(1, |n| n.get().min(2)),
                ..Scale::demo()
            },
        })
    }
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Cells checked (cells per pass × passes, plus probed cells).
    pub attempted: u64,
    /// Cells that errored or failed a check.
    pub failed: u64,
    /// `(name, value)` in catalog order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Run context.
    pub context: Context,
    /// Human-readable report.
    pub report: String,
}

/// The declared unit of metric `name`.
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map_or("", |d| d.unit)
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    stats::json_str(name),
                    stats::json_str(unit_of(name))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Cell-level output checks of one run.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    /// Checks one pass's per-cell digests against the reference pass.
    fn digests(&mut self, what: &str, reference: &[u64], got: &[Option<u64>]) {
        self.attempted += reference.len() as u64;
        let bad = reference
            .iter()
            .zip(got)
            .filter(|(r, g)| Some(**r) != **g)
            .count()
            + reference.len().saturating_sub(got.len());
        if bad > 0 {
            self.failed += bad as u64;
            self.notes.push(format!(
                "{what}: {bad} cell(s) erred or differ from the reference digest"
            ));
        }
    }

    /// One whole-run condition that, when false, fails `cells` cells.
    fn require(&mut self, ok: bool, cells: u64, note: impl FnOnce() -> String) {
        if !ok {
            self.failed += cells;
            self.notes.push(note());
        }
    }
}

/// Runs the benchmark as `o` asks.
pub fn run(o: &Options) -> Result<Outcome, String> {
    let scale = &o.scale;
    let ctx = Context::gather(
        scale.jobs,
        scale.seed,
        format!(
            "ws_factor {}, ops {}, host {} MiB, FMFI target {}",
            scale.ws_factor,
            scale.ops,
            (scale.host_frames * 4096) >> 20,
            scale.frag_target
        ),
    );
    let w = o.workload;
    let plans = grid::plans(w, scale);
    let mut checks = Checks::default();
    let mut report = String::new();
    let _ = writeln!(report, "workload {} · context {}", w.name(), ctx.to_json());

    // The first pass warms caches and lazy set-up, and is the reference
    // every later pass must reproduce.
    let reference = grid::entry_pass(w, scale).map_err(|e| format!("reference pass: {e}"))?;
    if reference.cells.len() != plans.len() {
        return Err(format!(
            "the benchmark's cell plan has {} cells, the entry point {}",
            plans.len(),
            reference.cells.len()
        ));
    }
    let ref_digests: Vec<u64> = reference.cells.iter().map(|c| c.digest).collect();
    let accesses: u64 = reference.cells.iter().map(grid::Cell::accesses).sum();
    for (c, p) in reference.cells.iter().zip(&plans) {
        if let (Some(f), grid::Plan::Host { plan, .. }) = (c.fleet, &p.plan) {
            checks.require(
                f.planned == plan.vms.len()
                    && f.completed == f.planned
                    && f.churn_events == 2 * f.completed as u64,
                1,
                || format!("{}: lifecycle counts {f:?}", p.label),
            );
        }
    }
    let counts = grid::stream_counts(&plans, scale.jobs);
    for ((c, p), n) in reference.cells.iter().zip(&plans).zip(&counts) {
        let got = c.accesses();
        checks.require(got == n.touches, 1, || {
            format!(
                "{}: {got} simulated accesses, {} generated",
                p.label, n.touches
            )
        });
    }
    let model = grid::model(w, &reference);
    report.push_str(&model_report(w, &model));
    let budget = Duration::from_secs_f64(o.seconds);

    let metrics = if o.trace {
        traced_run(
            o,
            &plans,
            &reference,
            &ref_digests,
            &counts,
            budget,
            &mut checks,
            &mut report,
        )?
    } else {
        // Set-up and timed passes alternate, so both sample the same
        // stretch of host time.
        let (mut setup, mut walls) = (Vec::new(), Vec::new());
        let started = Instant::now();
        loop {
            let iteration = Instant::now();
            setup.push(grid::construct_only(&plans).map_err(|e| format!("set-up pass: {e}"))?);
            let pass = grid::entry_pass(w, scale);
            if let Ok(p) = &pass {
                walls.push(p.secs);
            }
            checks.digests("timed pass", &ref_digests, &digests_of(&pass));
            // Stop before an iteration that would overrun the budget.
            if setup.len() >= MIN_PASSES && started.elapsed() + iteration.elapsed() > budget {
                break;
            }
        }
        // Host contention only ever adds time, and on a shared host it
        // comes and goes within a run: the fastest pass is the steadiest
        // estimate of the program's own speed.
        let wall = walls.iter().copied().fold(f64::INFINITY, f64::min);
        let _ = writeln!(
            report,
            "timed passes {} (s): {:?} · set-up passes (s): {:?}",
            walls.len(),
            walls,
            setup
        );
        vec![
            ("wall_s", wall),
            ("sim_accesses_per_s", ratio(accesses as f64, wall)),
            ("setup_s", median(&setup)),
            ("peak_rss_mib", stats::peak_rss_mib().unwrap_or(0.0)),
            ("gemini_speedup_vs_thp", model.speedup_vs_thp),
            ("gemini_worst_tput_ratio", model.worst_tput_ratio),
        ]
    };

    checks.require(metrics.iter().all(|(_, v)| v.is_finite()), 0, || {
        "a metric is not a finite number".into()
    });
    let metrics: Vec<(&'static str, f64)> = metrics
        .into_iter()
        .map(|(n, v)| (n, if v.is_finite() { v } else { 0.0 }))
        .collect();
    for (name, value) in &metrics {
        let _ = writeln!(report, "  {name:<36} {value:>16.6} {}", unit_of(name));
    }
    for note in &checks.notes {
        let _ = writeln!(report, "CHECK FAILED: {note}");
    }
    Ok(Outcome {
        correct: checks.failed == 0 && checks.notes.is_empty(),
        attempted: checks.attempted.max(1),
        failed: checks.failed,
        metrics,
        context: ctx,
        report,
    })
}

/// Per-cell digests of an entry pass; none when the pass erred.
fn digests_of(pass: &Result<grid::EntryPass, gemini_sim_core::SimError>) -> Vec<Option<u64>> {
    match pass {
        Ok(p) => p.cells.iter().map(|c| Some(c.digest)).collect(),
        Err(_) => Vec::new(),
    }
}

/// Prints each model metric beside the paper's reference, where one
/// exists.
fn model_report(w: Workload, model: &grid::Model) -> String {
    let verdict = |ok: bool| if ok { "meets it" } else { "MISSES it" };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "model gemini_speedup_vs_thp {:.4} · unvalidated (the paper's speed-ups are compressed at this scale, EXPERIMENTS.md D1)",
        model.speedup_vs_thp
    );
    if w == Workload::Fig3Grid {
        let _ = writeln!(
            out,
            "model gemini_aligned_rate {:.4} · paper Table 1: GEMINI > 0.50 aligned · {}",
            model.aligned_rate,
            verdict(model.aligned_rate > 0.5)
        );
    } else {
        let _ = writeln!(
            out,
            "model gemini_aligned_rate {:.4} · unvalidated (Table 1 covers the fig. 3 grid only)",
            model.aligned_rate
        );
    }
    if w == Workload::CollocatedPairs {
        let overhead = model.overhead;
        let _ = writeln!(
            out,
            "model gemini_worst_tput_ratio {:.4} (gemini_overhead {:.4}) · paper fig. 17: overhead <= 0.03 · {}",
            model.worst_tput_ratio,
            overhead,
            verdict(overhead <= 0.03)
        );
    } else {
        let _ = writeln!(
            out,
            "model gemini_worst_tput_ratio {:.4} · unvalidated (the fig. 17 bound covers collocated pairs only)",
            model.worst_tput_ratio
        );
    }
    out
}

/// The traced run: untraced and traced replays of every cell, then the
/// probes. Returns the per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn traced_run(
    o: &Options,
    plans: &[grid::CellPlan],
    reference: &grid::EntryPass,
    ref_digests: &[u64],
    counts: &[grid::StreamCounts],
    budget: Duration,
    checks: &mut Checks,
    report: &mut String,
) -> Result<Vec<(&'static str, f64)>, String> {
    let jobs = o.scale.jobs;
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut plain: Vec<Vec<CellTrace>> = Vec::new();
    let mut traced: Vec<Vec<CellTrace>> = Vec::new();
    let started = Instant::now();
    loop {
        let iteration = Instant::now();
        for (is_traced, walls, sink) in [
            (false, &mut plain_walls, &mut plain),
            (true, &mut traced_walls, &mut traced),
        ] {
            let (cells, wall) = grid::replay_pass(plans, jobs, is_traced);
            let what = if is_traced {
                "traced replay"
            } else {
                "untraced replay"
            };
            let digests: Vec<Option<u64>> = cells
                .iter()
                .map(|c| c.as_ref().ok().map(|c| c.digest))
                .collect();
            checks.digests(what, ref_digests, &digests);
            walls.push(wall as f64);
            sink.push(cells.into_iter().map(Result::unwrap_or_default).collect());
        }
        // Stop before an iteration that would overrun the budget.
        if started.elapsed() + iteration.elapsed() > budget {
            break;
        }
    }
    // Counts must repeat exactly across traced passes.
    let count_key = |c: &CellTrace| format!("{:?}{:?}", c.registry.counters(), c.perf);
    for (i, pass) in traced.iter().enumerate().skip(1) {
        let same = pass
            .iter()
            .zip(&traced[0])
            .all(|(a, b)| count_key(a) == count_key(b));
        checks.require(same, 0, || {
            format!("traced pass {i}: per-layer counts changed")
        });
    }

    let probes = probes::cell_probes(plans, jobs);
    let mut probe = probes::CellProbe::default();
    for (p, r) in plans.iter().zip(&probes) {
        checks.attempted += 1;
        match r {
            Ok(c) => probe.add(c),
            Err(e) => checks.require(false, 1, || format!("{}: probe failed: {e}", p.label)),
        }
    }
    // A probe that translated nothing would report 0 ns, which reads as
    // a gain; it means the probe lost track of the guest layout.
    checks.require(
        probe.tlb_accesses > 0 && probe.walks > 0 && probe.add_vm_calls > 0,
        1,
        || format!("probes made no calls: {probe:?}"),
    );
    let buddy = probes::buddy_probe(&o.scale, o.scale.seed, BUDDY_ROUNDS)
        .map_err(|e| format!("buddy probe: {e}"))?;
    let model = grid::model(o.workload, reference);

    // Per-layer figures of each traced pass; times are medians over
    // passes, counts are identical in every pass.
    let per_pass: Vec<Vec<(&'static str, f64)>> =
        traced.iter().map(|p| layer_metrics(p, counts)).collect();
    let mut metrics: Vec<(&'static str, f64)> = (0..per_pass[0].len())
        .map(|i| {
            let values: Vec<f64> = per_pass.iter().map(|p| p[i].1).collect();
            (per_pass[0][i].0, median(&values))
        })
        .collect();

    let cell_ms: Vec<f64> = plain
        .iter()
        .flatten()
        .map(|c| c.wall_ns as f64 / 1e6)
        .collect();
    let (tail, tail_pct, samples) = stats::tail(&cell_ms);
    let workers = gemini_harness::effective_jobs(jobs).min(plans.len()) as f64;
    let busy: Vec<f64> = plain
        .iter()
        .zip(&plain_walls)
        .map(|(cells, &wall)| ratio(cells.iter().map(|c| c.wall_ns as f64).sum(), wall * workers))
        .collect();
    let per_cell_overhead: Vec<f64> = (0..plans.len())
        .map(|i| {
            let t: Vec<f64> = traced.iter().map(|p| p[i].wall_ns as f64).collect();
            let u: Vec<f64> = plain.iter().map(|p| p[i].wall_ns as f64).collect();
            100.0 * (ratio(median(&t), median(&u)) - 1.0)
        })
        .collect();
    let worst_cell = per_cell_overhead
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    metrics.extend([
        ("exec.cell_ms_p50", median(&cell_ms)),
        ("exec.cell_ms_tail", tail),
        ("exec.cell_ms_tail_pct", tail_pct),
        ("exec.cell_samples", samples as f64),
        ("exec.busy_frac", median(&busy)),
        (
            "vm_sim.add_vm_ms",
            ratio(probe.add_vm_ns as f64, probe.add_vm_calls as f64) / 1e6,
        ),
        (
            "vm_sim.remove_vm_ms",
            ratio(probe.remove_vm_ns as f64, probe.remove_vm_calls as f64) / 1e6,
        ),
        (
            "tlb.probe_ns",
            ratio(probe.tlb_ns as f64, probe.tlb_accesses as f64),
        ),
        (
            "page_table.walk_ns",
            ratio(probe.walk_ns as f64, probe.walks as f64),
        ),
        ("buddy.alloc_ns", buddy.alloc_ns),
        ("buddy.free_ns", buddy.free_ns),
        ("buddy.alloc9_ns", buddy.alloc9_ns),
        ("buddy.free9_ns", buddy.free9_ns),
        (
            "obs.trace_overhead_pct",
            100.0 * (ratio(median(&traced_walls), median(&plain_walls)) - 1.0),
        ),
        ("obs.trace_overhead_pct_worst_cell", worst_cell),
        ("model.gemini_aligned_rate", model.aligned_rate),
        ("model.gemini_overhead", model.overhead),
    ]);
    // Catalog order.
    metrics.sort_by_key(|(name, _)| PER_LAYER.iter().position(|d| d.name == *name));

    let _ = writeln!(
        report,
        "replay passes: {} untraced, {} traced · exec.cell_ms_tail is p{tail_pct:.1} of {samples} cells · probes: {} add_vm, {} remove_vm, {} TLB accesses, {} walks",
        plain.len(),
        traced.len(),
        probe.add_vm_calls,
        probe.remove_vm_calls,
        probe.tlb_accesses,
        probe.walks
    );
    let _ = writeln!(
        report,
        "phase reconciliation of traced pass 0 (ms; unattributed = wall - setup - gen - profiler self-time in run):"
    );
    let _ = writeln!(
        report,
        "  {:<34} {:>9} {:>8} {:>8} {:>9} {:>9} {:>8} {:>9}",
        "cell", "wall", "setup", "gen", "run", "run self", "unattr%", "trace+%"
    );
    for ((p, c), over) in plans.iter().zip(&traced[0]).zip(&per_cell_overhead) {
        let unattributed = c
            .wall_ns
            .saturating_sub(c.setup_ns + c.gen_ns + c.run_self_ns);
        let _ = writeln!(
            report,
            "  {:<34} {:>9.2} {:>8.2} {:>8.2} {:>9.2} {:>9.2} {:>8.2} {:>9.2}",
            p.label,
            c.wall_ns as f64 / 1e6,
            c.setup_ns as f64 / 1e6,
            c.gen_ns as f64 / 1e6,
            c.run_ns as f64 / 1e6,
            c.run_self_ns as f64 / 1e6,
            100.0 * ratio(unattributed as f64, c.wall_ns as f64),
            over
        );
    }
    Ok(metrics)
}

/// Per-layer figures of one traced pass.
fn layer_metrics(cells: &[CellTrace], counts: &[grid::StreamCounts]) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&CellTrace) -> u64| cells.iter().map(f).sum::<u64>() as f64;
    let reg = |name: &str| sum(&|c| c.registry.counter(name));
    let phase = |p: Phase, f: fn(&PhaseStat) -> u64| {
        sum(&|c| {
            c.run_phases
                .iter()
                .filter(|(q, _)| *q == p)
                .map(|(_, s)| f(s))
                .sum()
        })
    };
    let accesses = sum(&|c| c.perf.accesses);
    let wall = sum(&|c| c.wall_ns);
    let attributed = sum(&|c| (c.setup_ns + c.gen_ns + c.run_self_ns).min(c.wall_ns));
    let batch_runs = reg("tlb.batch_runs");
    let batch_breaks = reg("tlb.batch_breaks");
    vec![
        ("vm_sim.setup_ms", sum(&|c| c.setup_ns) / 1e6),
        ("vm_sim.run_ms", sum(&|c| c.run_ns) / 1e6),
        (
            "vm_sim.run_ns_per_access",
            ratio(sum(&|c| c.run_ns), accesses),
        ),
        (
            "vm_sim.unattributed_pct",
            100.0 * ratio(wall - attributed, wall),
        ),
        ("workloads.gen_ms", sum(&|c| c.gen_ns) / 1e6),
        (
            "workloads.gen_ns_per_event",
            ratio(
                sum(&|c| c.gen_ns),
                counts.iter().map(|n| n.events).sum::<u64>() as f64,
            ),
        ),
        ("tlb.l1_hit_rate", ratio(sum(&|c| c.perf.l1_hits), accesses)),
        (
            "tlb.stlb_miss_rate",
            ratio(sum(&|c| c.perf.stlb_misses), accesses),
        ),
        ("tlb.shootdowns", sum(&|c| c.perf.shootdowns)),
        (
            "tlb.batch_hit_rate",
            ratio(reg("tlb.batched_hits"), accesses),
        ),
        (
            "tlb.batch_break_rate",
            ratio(batch_breaks, batch_runs + batch_breaks),
        ),
        (
            "page_table.walk_refs_per_miss",
            ratio(sum(&|c| c.perf.walk_mem_refs), sum(&|c| c.perf.stlb_misses)),
        ),
        ("buddy.run_probes", reg("buddy.run_probes")),
        ("buddy.index_updates", reg("buddy.index_updates")),
        (
            "mm.fault_path_ms",
            phase(Phase::FaultPath, |s| s.cum_ns) / 1e6,
        ),
        ("mm.guest_faults", reg("machine.guest_faults")),
        ("mm.host_faults", reg("machine.host_faults")),
        (
            "mm.promotions",
            reg("mm.guest.promotions") + reg("mm.host.promotions"),
        ),
        (
            "mm.promo_pages_copied",
            reg("mm.guest.promo_pages_copied") + reg("mm.host.promo_pages_copied"),
        ),
        (
            "mm.demotions",
            reg("mm.guest.demotions") + reg("mm.host.demotions"),
        ),
        (
            "mm.compact_pages",
            reg("machine.guest_compact_pages") + reg("machine.host_compact_pages"),
        ),
        ("daemon.passes", phase(Phase::DaemonPass, |s| s.count)),
        (
            "daemon.pass_ms",
            phase(Phase::DaemonPass, |s| s.cum_ns) / 1e6,
        ),
        (
            "daemon.contiguity_scan_ms",
            phase(Phase::ContiguityScan, |s| s.cum_ns) / 1e6,
        ),
        (
            "daemon.promotion_ms",
            phase(Phase::Promotion, |s| s.cum_ns) / 1e6,
        ),
        ("gemini.bookings_placed", reg("gemini.bookings_placed")),
        ("gemini.mhps_scans", reg("gemini.mhps_scans")),
    ]
}
