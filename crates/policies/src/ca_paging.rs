//! CA-paging (ISCA '20): contiguity-aware paging, software component.
//!
//! CA-paging steers demand paging so that virtual and physical addresses
//! stay congruent modulo the huge page size: at the *first* fault of an
//! extent (a VMA in the guest; a VM's physical range in the host) it
//! reserves a position inside a large free run and records the
//! virtual-to-physical *offset*; every later fault in the extent is placed
//! at `fault_address - offset`. Contiguous placement means promotions can
//! be performed in place, without copying.
//!
//! Unlike Gemini, CA-paging works one layer at a time with no knowledge of
//! the other layer, so the contiguity it builds only yields *well-aligned*
//! huge pages by coincidence.

use gemini_mm::{
    FaultCtx, FaultDecision, FaultOutcome, HugePolicy, LayerKind, LayerOps, PromotionKind,
    PromotionOp,
};
use gemini_sim_core::{Cycles, PAGES_PER_HUGE_PAGE};
use std::collections::HashMap;

/// CA-paging: per-extent offset placement plus in-place-only promotion.
#[derive(Debug, Clone)]
pub struct CaPaging {
    /// Offset (input frame − output frame) per extent key.
    offsets: HashMap<u64, i64>,
    /// Extent keys whose placement failed and must be re-established.
    broken: std::collections::HashSet<u64>,
    /// Next-fit cursor into the free-run list (frame address).
    cursor: u64,
    /// Key of the extent the last fault belonged to (for `after_fault`).
    last_key: Option<u64>,
    /// Regions promoted per daemon pass.
    pub regions_per_pass: usize,
}

impl CaPaging {
    /// Creates CA-paging with default parameters.
    pub fn new() -> Self {
        Self {
            offsets: HashMap::new(),
            broken: std::collections::HashSet::new(),
            cursor: 0,
            last_key: None,
            regions_per_pass: 4,
        }
    }

    /// The extent key of a fault: the VMA id in the guest, the VM id in
    /// the host.
    fn key_of(ctx: &FaultCtx<'_>) -> u64 {
        match (ctx.layer, ctx.vma) {
            (LayerKind::Guest, Some(vma)) => vma.id.0,
            _ => ctx.vm.0 as u64,
        }
    }

    /// Picks a region-congruent position for an extent starting at input
    /// frame `in0` needing `len` frames, using next-fit over free runs.
    ///
    /// Each leg is one indexed query against the allocator's persistent
    /// run index: first run at/after the cursor fitting the whole extent,
    /// wrapping (after the at-cursor leg missed, any fit necessarily
    /// starts before the cursor); otherwise any run holding at least one
    /// whole congruent region. With no such run, targeted placement has
    /// no promotion value — defer to the default allocator. Under
    /// fragmentation the queries reject off the run-length histogram
    /// and the per-order block counts without probing a run, which is
    /// what keeps per-fault re-establishment cheap.
    fn establish_offset(&mut self, ctx: &FaultCtx<'_>, in0: u64, len: u64) -> Option<i64> {
        let buddy = ctx.buddy;
        let cursor = self.cursor;
        let pick = buddy
            .first_congruent_run(cursor, in0, len)
            .or_else(|| buddy.first_congruent_run_below(cursor, in0, len))
            .or_else(|| buddy.first_congruent_run(cursor, in0, PAGES_PER_HUGE_PAGE))
            .or_else(|| buddy.first_congruent_run_below(cursor, in0, PAGES_PER_HUGE_PAGE));
        let (start, _) = pick?;
        let out0 = congruent_start(start, in0);
        self.cursor = start;
        Some(in0 as i64 - out0 as i64)
    }
}

/// First frame ≥ `start` congruent to `in0` modulo the huge page size.
fn congruent_start(start: u64, in0: u64) -> u64 {
    let want = in0 % PAGES_PER_HUGE_PAGE;
    let base = start - (start % PAGES_PER_HUGE_PAGE);
    let candidate = base + want;
    if candidate >= start {
        candidate
    } else {
        candidate + PAGES_PER_HUGE_PAGE
    }
}

impl Default for CaPaging {
    fn default() -> Self {
        Self::new()
    }
}

impl HugePolicy for CaPaging {
    fn name(&self) -> &'static str {
        "CA-paging"
    }

    fn fault_decision(&mut self, ctx: &FaultCtx<'_>) -> FaultDecision {
        let key = Self::key_of(ctx);
        self.last_key = Some(key);
        let needs_establish = !self.offsets.contains_key(&key) || self.broken.contains(&key);
        if needs_establish {
            // Anchor the extent at the fault's region start; reserve space
            // for the rest of the VMA (or one region at the host).
            let region_start = ctx.addr_frame - ctx.addr_frame % PAGES_PER_HUGE_PAGE;
            let len = match ctx.vma {
                Some(vma) => (vma.start_frame() + vma.pages()).saturating_sub(region_start),
                None => PAGES_PER_HUGE_PAGE,
            };
            match self.establish_offset(ctx, region_start, len.max(PAGES_PER_HUGE_PAGE)) {
                Some(off) => {
                    self.offsets.insert(key, off);
                    self.broken.remove(&key);
                }
                None => return FaultDecision::Base,
            }
        }
        let off = self.offsets[&key];
        let target = ctx.addr_frame as i64 - off;
        if target < 0 {
            return FaultDecision::Base;
        }
        FaultDecision::BaseAt {
            frame: target as u64,
        }
    }

    fn after_fault(&mut self, _addr_frame: u64, outcome: &FaultOutcome) {
        if !outcome.placement_honored {
            if let Some(key) = self.last_key {
                // The reserved position was taken: re-establish the extent
                // from the next fault onward (CA-paging's fallback).
                self.broken.insert(key);
            }
        }
    }

    fn daemon_period(&self) -> Cycles {
        Cycles::from_millis(40.0)
    }

    fn daemon(&mut self, ops: &mut LayerOps<'_>) -> Vec<PromotionOp> {
        // Contiguity makes in-place promotion possible where CA-paging's
        // placement held; elsewhere the software component still rides on
        // khugepaged, which collapses well-populated regions by copy.
        ops.table
            .iter_regions()
            .filter(|&(_, huge)| !huge)
            .filter(|&(r, _)| {
                let pop = ops.table.region_population(r);
                (pop.present == PAGES_PER_HUGE_PAGE as usize && pop.in_place_eligible)
                    || pop.present >= PAGES_PER_HUGE_PAGE as usize / 2
            })
            .take(self.regions_per_pass)
            .map(|(r, _)| PromotionOp::new(r, PromotionKind::PreferInPlace))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemini_mm::{CostModel, GuestMm};
    use gemini_sim_core::{VmId, HUGE_PAGE_SIZE};

    #[test]
    fn congruent_start_math() {
        assert_eq!(congruent_start(0, 512), 0);
        assert_eq!(congruent_start(0, 515), 3);
        assert_eq!(congruent_start(5, 512), 512);
        assert_eq!(congruent_start(5, 517), 5);
        assert_eq!(congruent_start(513, 512), 1024);
    }

    #[test]
    fn placement_is_congruent_and_contiguous() {
        let mut g = GuestMm::new(VmId(1), 8192, CostModel::default());
        let mut ca = CaPaging::new();
        let vma = g.mmap(2 * HUGE_PAGE_SIZE).unwrap();
        let in0 = vma.start_frame();
        let mut outs = Vec::new();
        for i in 0..1024 {
            let (out, _) = g.handle_fault(in0 + i, &mut ca).unwrap();
            outs.push(out.pa_frame);
        }
        // Contiguous run, congruent modulo 512.
        for (i, &o) in outs.iter().enumerate() {
            assert_eq!(o, outs[0] + i as u64);
        }
        assert_eq!(outs[0] % 512, in0 % 512);
    }

    #[test]
    fn contiguous_placement_promotes_in_place() {
        let mut g = GuestMm::new(VmId(1), 8192, CostModel::default());
        let mut ca = CaPaging::new();
        let vma = g.mmap(HUGE_PAGE_SIZE).unwrap();
        for i in 0..512 {
            g.handle_fault(vma.start_frame() + i, &mut ca).unwrap();
        }
        let fx = g.run_daemon(&mut ca, Cycles::ZERO, 1);
        assert_eq!(g.table().huge_mapped(), 1);
        assert_eq!(fx.pages_copied, 0, "in-place, no migration");
    }

    #[test]
    fn sparse_regions_are_not_promoted() {
        let mut g = GuestMm::new(VmId(1), 8192, CostModel::default());
        let mut ca = CaPaging::new();
        let vma = g.mmap(HUGE_PAGE_SIZE).unwrap();
        // Below the khugepaged-fallback threshold (256): no promotion.
        for i in 0..200 {
            g.handle_fault(vma.start_frame() + i, &mut ca).unwrap();
        }
        g.run_daemon(&mut ca, Cycles::ZERO, 1);
        assert_eq!(g.table().huge_mapped(), 0, "sparse region must stay base");
        // A nearly-full region collapses through the THP fallback.
        for i in 200..511 {
            g.handle_fault(vma.start_frame() + i, &mut ca).unwrap();
        }
        g.run_daemon(&mut ca, Cycles::ZERO, 1);
        assert_eq!(g.table().huge_mapped(), 1);
    }

    #[test]
    fn broken_placement_reestablishes() {
        let mut g = GuestMm::new(VmId(1), 8192, CostModel::default());
        let mut ca = CaPaging::new();
        let vma = g.mmap(2 * HUGE_PAGE_SIZE).unwrap();
        let (first, _) = g.handle_fault(vma.start_frame(), &mut ca).unwrap();
        // Sabotage: steal the next reserved frame directly.
        g.buddy_mut().alloc_at(first.pa_frame + 1, 0).unwrap();
        let (second, _) = g.handle_fault(vma.start_frame() + 1, &mut ca).unwrap();
        assert!(!second.placement_honored);
        // Subsequent faults pick a fresh congruent run and stay contiguous.
        let (third, _) = g.handle_fault(vma.start_frame() + 2, &mut ca).unwrap();
        let (fourth, _) = g.handle_fault(vma.start_frame() + 3, &mut ca).unwrap();
        assert_eq!(fourth.pa_frame, third.pa_frame + 1);
        assert!(third.placement_honored);
    }

    #[test]
    fn establish_probe_count_is_query_bounded() {
        use gemini_obs::{Recorder, TraceConfig};
        // Success case: on pristine memory the congruent query answers on
        // its first probe, so one establish costs one probed run.
        let mut g = GuestMm::new(VmId(1), 8192, CostModel::default());
        let rec = Recorder::new(&TraceConfig::all());
        g.attach_recorder(rec.clone());
        let mut ca = CaPaging::new();
        let vma = g.mmap(HUGE_PAGE_SIZE).unwrap();
        g.handle_fault(vma.start_frame(), &mut ca).unwrap();
        assert_eq!(
            rec.registry().counter("buddy.run_probes"),
            1,
            "one establish on one free run must probe exactly once"
        );

        // Fragmented case: one pinned frame per huge region kills every
        // order-9 block, so establishment is re-attempted on *every*
        // fault. Each attempt must reject through the index guards
        // without examining a single run — a count, not a timing, so
        // this regression guard cannot flake on slow CI machines. (The
        // pre-index implementation rescanned and rechecked the whole run
        // list four times per fault here: the 40x BENCH_pr4 outlier.)
        let mut g = GuestMm::new(VmId(1), 8192, CostModel::default());
        let buddy = g.buddy_mut();
        let mut held = Vec::new();
        while let Ok(f) = buddy.alloc(0) {
            held.push(f);
        }
        for f in held {
            if f % PAGES_PER_HUGE_PAGE != 0 {
                buddy.free(f, 0).unwrap();
            }
        }
        assert_eq!(buddy.free_blocks_of_order(9), 0);
        let runs = buddy.free_runs().len() as u64;
        assert!(runs > 10, "fragmentation must leave many runs ({runs})");
        let rec = Recorder::new(&TraceConfig::all());
        g.attach_recorder(rec.clone());
        let mut ca = CaPaging::new();
        let vma = g.mmap(2 * HUGE_PAGE_SIZE).unwrap();
        for i in 0..64 {
            g.handle_fault(vma.start_frame() + i, &mut ca).unwrap();
        }
        assert_eq!(
            rec.registry().counter("buddy.run_probes"),
            0,
            "fragmented establish must reject per-query, not per-run"
        );
    }

    #[test]
    fn separate_vmas_get_separate_extents() {
        let mut g = GuestMm::new(VmId(1), 16384, CostModel::default());
        let mut ca = CaPaging::new();
        let a = g.mmap(HUGE_PAGE_SIZE).unwrap();
        let b = g.mmap(HUGE_PAGE_SIZE).unwrap();
        let (oa, _) = g.handle_fault(a.start_frame(), &mut ca).unwrap();
        let (ob, _) = g.handle_fault(b.start_frame(), &mut ca).unwrap();
        assert_ne!(oa.pa_frame >> 9, ob.pa_frame >> 9, "distinct regions");
    }
}
