//! Per-layer probes: timed calls into single crates' public functions,
//! made from outside the simulator on the cells' own inputs.
//!
//! - lifecycle: each cell rebuilt through public `add_vm`, `run` and
//!   `remove_vm`, timing the two lifecycle calls (fleet hosts replay
//!   their arrivals one VM at a time);
//! - TLB: a fresh `MmuSim` driven through `access_unresolved` /
//!   `access_after_tlb_miss` over a run's own access stream;
//! - page table: guest `translate` then EPT `translate` over the same
//!   stream;
//! - buddy: order-0 and order-9 alloc/free on an allocator
//!   pre-conditioned by `fragment_to`.

use crate::grid::{CellPlan, Plan};
use crate::stats::{median, ns_since};
use gemini_buddy::BuddyAllocator;
use gemini_harness::exec::run_cells_hinted;
use gemini_harness::Scale;
use gemini_obs::Recorder;
use gemini_sim_core::{DetRng, SimError, VmId, BASE_PAGE_SIZE, HUGE_PAGE_SIZE};
use gemini_tlb::{MmuConfig, MmuSim, ResolvedTranslation};
use gemini_vm_sim::Machine;
use gemini_workloads::{WorkloadEvent, WorkloadGen};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Accesses of one run fed to the TLB and page-table probes, at most.
const PROBE_CAP: usize = 200_000;

/// Totals of the lifecycle, TLB and page-table probes over some cells.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellProbe {
    /// Time in `add_vm`.
    pub add_vm_ns: u64,
    /// `add_vm` calls.
    pub add_vm_calls: u64,
    /// Time in `remove_vm`.
    pub remove_vm_ns: u64,
    /// `remove_vm` calls.
    pub remove_vm_calls: u64,
    /// Time in the TLB probe.
    pub tlb_ns: u64,
    /// Accesses the TLB probe made.
    pub tlb_accesses: u64,
    /// Time in the page-table probe.
    pub walk_ns: u64,
    /// Two-layer translations the page-table probe made.
    pub walks: u64,
}

impl CellProbe {
    /// Field-wise sum.
    pub fn add(&mut self, o: &CellProbe) {
        self.add_vm_ns += o.add_vm_ns;
        self.add_vm_calls += o.add_vm_calls;
        self.remove_vm_ns += o.remove_vm_ns;
        self.remove_vm_calls += o.remove_vm_calls;
        self.tlb_ns += o.tlb_ns;
        self.tlb_accesses += o.tlb_accesses;
        self.walk_ns += o.walk_ns;
        self.walks += o.walks;
    }
}

/// Runs the lifecycle, TLB and page-table probes over every cell on
/// `jobs` workers.
pub fn cell_probes(plans: &[CellPlan], jobs: usize) -> Vec<Result<CellProbe, SimError>> {
    let cells: Vec<_> = plans
        .iter()
        .map(|p| (p.hint, move || probe_cell(p)))
        .collect();
    run_cells_hinted(jobs, &Recorder::off(), cells)
}

fn probe_cell(p: &CellPlan) -> Result<CellProbe, SimError> {
    let mut out = CellProbe::default();
    let mut m = Machine::new(p.system, p.cfg.clone());
    let add_vm = |m: &mut Machine, out: &mut CellProbe| -> Result<VmId, SimError> {
        let t = Instant::now();
        let vm = m.add_vm()?;
        out.add_vm_ns += ns_since(t);
        out.add_vm_calls += 1;
        Ok(vm)
    };
    let remove_vm = |m: &mut Machine, vm: VmId, out: &mut CellProbe| -> Result<(), SimError> {
        let t = Instant::now();
        m.remove_vm(vm)?;
        out.remove_vm_ns += ns_since(t);
        out.remove_vm_calls += 1;
        Ok(())
    };
    match &p.plan {
        Plan::Single { spec, seed } => {
            let vm = add_vm(&mut m, &mut out)?;
            let stream = WorkloadGen::new(spec.clone(), p.ops, *seed).pregenerate();
            let events = stream.peek_events().to_vec();
            m.run(vm, stream)?;
            translation_probes(&m, vm, &p.cfg.mmu, &events, &mut out)?;
            remove_vm(&mut m, vm, &mut out)?;
        }
        Plan::Pair { specs, seeds } => {
            let vms = [add_vm(&mut m, &mut out)?, add_vm(&mut m, &mut out)?];
            let streams =
                [0, 1].map(|i| WorkloadGen::new(specs[i].clone(), p.ops, seeds[i]).pregenerate());
            let events: Vec<Vec<WorkloadEvent>> =
                streams.iter().map(|s| s.peek_events().to_vec()).collect();
            m.run_collocated(vms.into_iter().zip(streams).collect())?;
            for (vm, ev) in vms.into_iter().zip(&events) {
                translation_probes(&m, vm, &p.cfg.mmu, ev, &mut out)?;
                remove_vm(&mut m, vm, &mut out)?;
            }
        }
        Plan::Host { plan, .. } => {
            for v in &plan.vms {
                let vm = add_vm(&mut m, &mut out)?;
                let stream = WorkloadGen::new(v.spec.clone(), v.ops, v.seed).pregenerate();
                let events = stream.peek_events().to_vec();
                m.run(vm, stream)?;
                translation_probes(&m, vm, &p.cfg.mmu, &events, &mut out)?;
                remove_vm(&mut m, vm, &mut out)?;
            }
        }
    }
    Ok(out)
}

/// Projects a run's `Touch` events onto the guest addresses its chunks
/// received (the guest places every mapping at the next 2 MiB boundary
/// above the previous one, starting at 2 MiB), keeps the accesses both
/// layers still map after the run, and times the two probes over them.
fn translation_probes(
    m: &Machine,
    vm: VmId,
    mmu_cfg: &MmuConfig,
    events: &[WorkloadEvent],
    out: &mut CellProbe,
) -> Result<(), SimError> {
    let guest = m.guest_table(vm);
    let ept = m.ept(vm)?;
    let mut chunk_start: HashMap<usize, u64> = HashMap::new();
    let mut high = HUGE_PAGE_SIZE;
    let mut stream: Vec<(u64, ResolvedTranslation)> = Vec::new();
    for ev in events {
        match *ev {
            WorkloadEvent::Alloc { chunk, bytes } => {
                let start = high.div_ceil(HUGE_PAGE_SIZE) * HUGE_PAGE_SIZE;
                high = start + bytes.div_ceil(BASE_PAGE_SIZE) * BASE_PAGE_SIZE;
                chunk_start.insert(chunk, start / BASE_PAGE_SIZE);
            }
            WorkloadEvent::Touch { chunk, page } => {
                let Some(&start) = chunk_start.get(&chunk) else {
                    continue;
                };
                let gva = start + page;
                let Some(gt) = guest.translate(gva) else {
                    continue;
                };
                let Some(ht) = ept.translate(gt.pa_frame) else {
                    continue;
                };
                stream.push((
                    gva,
                    ResolvedTranslation {
                        gpa_frame: gt.pa_frame,
                        guest_leaf: gt.size,
                        host_leaf: ht.size,
                    },
                ));
                if stream.len() == PROBE_CAP {
                    break;
                }
            }
            _ => {}
        }
    }
    let t = Instant::now();
    for &(gva, _) in &stream {
        if let Some(gt) = guest.translate(black_box(gva)) {
            black_box(ept.translate(gt.pa_frame));
        }
    }
    out.walk_ns += ns_since(t);
    out.walks += stream.len() as u64;

    let mut mmu = MmuSim::new(mmu_cfg.clone())?;
    let t = Instant::now();
    for &(gva, resolved) in &stream {
        let outcome = match mmu.access_unresolved(vm, black_box(gva)) {
            Some(o) => o,
            None => mmu.access_after_tlb_miss(vm, gva, resolved),
        };
        black_box(outcome);
    }
    out.tlb_ns += ns_since(t);
    out.tlb_accesses += stream.len() as u64;
    Ok(())
}

/// Mean nanoseconds per buddy operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuddyProbe {
    /// Order-0 allocation.
    pub alloc_ns: f64,
    /// Order-0 free.
    pub free_ns: f64,
    /// Order-9 allocation.
    pub alloc9_ns: f64,
    /// Order-9 free.
    pub free9_ns: f64,
}

/// Order-0 frames each probe round allocates, at most.
const BUDDY_ORDER0_OPS: u64 = 50_000;
/// Order-9 alloc/free round trips each probe round makes, at most.
const BUDDY_ORDER9_OPS: u64 = 2_000;

/// Times order-0 alloc/free on a host-sized allocator that `fragment_to`
/// pre-conditioned to the scale's FMFI target, and order-9 alloc/free
/// round trips on a clean host-sized allocator: `fragment_to` pins a
/// frame in every huge region, so no free huge block survives it at any
/// target and only failed searches could be timed there. Each figure is
/// the median of `rounds` fresh allocators.
pub fn buddy_probe(scale: &Scale, seed: u64, rounds: usize) -> Result<BuddyProbe, SimError> {
    let mut samples: [Vec<f64>; 4] = Default::default();
    for round in 0..rounds {
        let mut b = BuddyAllocator::new(scale.host_frames);
        let mut rng = DetRng::new(gemini_sim_core::derive_seed(
            seed,
            "buddy-probe",
            round as u64,
        ));
        gemini_mm::fragment_to(&mut b, scale.frag_target, 0.12, &mut rng);
        let mut b9 = BuddyAllocator::new(scale.host_frames);

        // Each round trip splits the lowest huge block off a larger one
        // and merges it back on free.
        let (mut alloc9, mut free9, mut attempts, mut frees) = (0, 0, 0u64, 0u64);
        while attempts < BUDDY_ORDER9_OPS {
            attempts += 1;
            let t = Instant::now();
            let block = b9.alloc(9);
            alloc9 += ns_since(t);
            let Ok(f) = block else {
                break;
            };
            let t = Instant::now();
            b9.free(f, 9)?;
            free9 += ns_since(t);
            frees += 1;
        }
        samples[2].push(alloc9 as f64 / attempts as f64);
        samples[3].push(free9 as f64 / frees.max(1) as f64);

        let n0 = (b.free_frames() / 2).min(BUDDY_ORDER0_OPS);
        let t = Instant::now();
        let mut frames = Vec::with_capacity(n0 as usize);
        for _ in 0..n0 {
            frames.push(b.alloc(0)?);
        }
        samples[0].push(ns_since(t) as f64 / n0.max(1) as f64);
        let t = Instant::now();
        for f in frames {
            b.free(f, 0)?;
        }
        samples[1].push(ns_since(t) as f64 / n0.max(1) as f64);
    }
    Ok(BuddyProbe {
        alloc_ns: median(&samples[0]),
        free_ns: median(&samples[1]),
        alloc9_ns: median(&samples[2]),
        free9_ns: median(&samples[3]),
    })
}
