//! The guest OS memory manager: a [`LayerEngine`] instantiated at the
//! guest layer, plus the guest-only address-space structure (VMAs,
//! demand-fault site lookup, `munmap` teardown) for one VM.

use crate::engine::{FaultSite, Layer, LayerEngine};
use crate::policy::{Effects, FaultOutcome, HugePolicy, LayerKind};
use crate::vma::{Vma, VmaId, VmaSet};
use gemini_buddy::BuddyAllocator;
use gemini_page_table::{AddressSpace, Translation};
use gemini_sim_core::{
    Cycles, Gva, SimError, VmId, HUGE_PAGE_ORDER, HUGE_PAGE_SIZE, PAGES_PER_HUGE_PAGE,
};
use std::collections::HashSet;

/// Marker for the guest layer: GVA → GPA translation, guest page-fault
/// costs, guest-tagged events and counters.
#[derive(Debug)]
pub enum GuestLayer {}

impl Layer for GuestLayer {
    type In = Gva;
    const KIND: LayerKind = LayerKind::Guest;
    const OBS: gemini_obs::Layer = gemini_obs::Layer::Guest;
    const CTR_PROMOTIONS: &'static str = "mm.guest.promotions";
    const CTR_PROMO_PAGES_COPIED: &'static str = "mm.guest.promo_pages_copied";
    const CTR_DEMOTIONS: &'static str = "mm.guest.demotions";

    fn input_addr(frame: u64) -> Gva {
        Gva::from_frame(frame)
    }

    fn already_mapped(addr: Gva) -> SimError {
        SimError::AlreadyMappedGva(addr)
    }
}

/// Memory management of one guest OS (one workload address space, as in
/// the paper's one-workload-per-VM setup).
#[derive(Debug)]
pub struct GuestMm {
    /// VM this guest belongs to.
    pub vm: VmId,
    /// The workload's virtual memory areas.
    pub vmas: VmaSet,
    /// The shared layer machinery (page table, guest-physical buddy,
    /// touch counters, fault/daemon/demotion paths).
    pub engine: LayerEngine<GuestLayer>,
    /// VMAs that have taken at least one fault.
    touched_vmas: HashSet<VmaId>,
}

impl GuestMm {
    /// Creates a guest with `gpa_frames` of guest-physical memory.
    pub fn new(vm: VmId, gpa_frames: u64, costs: crate::costs::CostModel) -> Self {
        let mut engine = LayerEngine::new(gpa_frames, costs);
        engine.register_vm(vm);
        Self {
            vm,
            vmas: VmaSet::new(HUGE_PAGE_SIZE),
            engine,
            touched_vmas: HashSet::new(),
        }
    }

    /// Attaches an observability recorder; daemon promotions and
    /// demotions of this guest are traced through it.
    pub fn attach_recorder(&mut self, rec: gemini_obs::Recorder) {
        self.engine.attach_recorder(rec);
    }

    /// Attaches a span profiler; this guest's daemon scans and
    /// promotion/demotion execution record phase spans through it.
    pub fn attach_profiler(&mut self, prof: gemini_obs::Profiler) {
        self.engine.attach_profiler(prof);
    }

    /// The process page table (GVA frame → GPA frame).
    pub fn table(&self) -> &AddressSpace {
        self.engine
            .table(self.vm)
            .expect("guest VM is registered at construction")
    }

    /// Mutable access to the process page table (tests, targeted state
    /// setup).
    pub fn table_mut(&mut self) -> &mut AddressSpace {
        self.engine
            .table_mut(self.vm)
            .expect("guest VM is registered at construction")
    }

    /// The guest physical allocator (GPA frames).
    pub fn buddy(&self) -> &BuddyAllocator {
        &self.engine.buddy
    }

    /// Mutable access to the guest physical allocator (fragmentation
    /// injection, compaction).
    pub fn buddy_mut(&mut self) -> &mut BuddyAllocator {
        &mut self.engine.buddy
    }

    /// Maps a new VMA of `len` bytes.
    pub fn mmap(&mut self, len: u64) -> Result<Vma, SimError> {
        self.vmas.mmap(len)
    }

    /// Translates a GVA frame, if mapped.
    pub fn translate(&self, gva_frame: u64) -> Option<Translation> {
        self.table().translate(gva_frame)
    }

    /// Records a sampled access for daemon heuristics.
    pub fn record_touch(&mut self, gva_frame: u64) {
        self.engine.record_touch(self.vm, gva_frame);
    }

    /// Handles a demand fault at `gva_frame` under `policy`.
    pub fn handle_fault(
        &mut self,
        gva_frame: u64,
        policy: &mut dyn HugePolicy,
    ) -> Result<(FaultOutcome, Effects), SimError> {
        let gva = Gva::from_frame(gva_frame);
        let vma = self.vmas.find(gva).ok_or(SimError::NoVma(gva))?.clone();
        let site = FaultSite {
            vma: Some(&vma),
            first_touch_in_vma: !self.touched_vmas.contains(&vma.id),
        };
        let (outcome, fx) = self.engine.fault(self.vm, gva_frame, site, policy)?;
        self.touched_vmas.insert(vma.id);
        Ok((outcome, fx))
    }

    /// Runs one daemon pass of `policy`, executing the promotions it
    /// requests.
    pub fn run_daemon(&mut self, policy: &mut dyn HugePolicy, now: Cycles, vcpus: u32) -> Effects {
        self.engine
            .run_daemon(self.vm, policy, now, vcpus)
            .expect("guest VM is registered at construction")
    }

    /// Demotes (splits) one huge mapping.
    pub fn demote(&mut self, region: u64, vcpus: u32) -> Result<Effects, SimError> {
        self.engine.demote(self.vm, region, vcpus)
    }

    /// Unmaps a VMA, freeing its guest-physical memory.
    ///
    /// Freed huge pages are first offered to the policy (Gemini's huge
    /// bucket hooks here); guest-physical memory returns to the guest
    /// buddy, while host-side EPT backing is deliberately *not* touched —
    /// the paper's reused-VM scenario depends on the host keeping the
    /// memory assigned to the VM.
    pub fn munmap(
        &mut self,
        id: VmaId,
        policy: &mut dyn HugePolicy,
        now: Cycles,
    ) -> Result<Effects, SimError> {
        let vma = self.vmas.munmap(id)?;
        let start_region = vma.start_frame() >> HUGE_PAGE_ORDER;
        let end_region =
            (vma.start_frame() + vma.pages() + PAGES_PER_HUGE_PAGE - 1) >> HUGE_PAGE_ORDER;
        let parts = self.engine.parts_mut(self.vm)?;
        let mut fx = Effects::cost(parts.costs.remap_fixed);
        fx.shootdowns = 1;
        for region in start_region..end_region {
            let mut any = false;
            if parts.table.huge_leaf(region).is_some() {
                let pa_huge = parts.table.unmap_huge(region)?;
                if !policy.intercept_huge_free(pa_huge, now) {
                    parts
                        .buddy
                        .free(pa_huge << HUGE_PAGE_ORDER, HUGE_PAGE_ORDER)?;
                }
                any = true;
            } else {
                for (va, pa) in parts.table.iter_base_in(region) {
                    parts.table.unmap_base(va)?;
                    parts.buddy.free(pa, 0)?;
                    any = true;
                }
            }
            if any {
                fx.gva_regions_invalidated.push(region);
                policy.on_region_unmapped(region);
                parts.touches.clear_region(region);
            }
        }
        self.touched_vmas.remove(&vma.id);
        Ok(fx)
    }

    /// The guest-level fragmentation index at huge-page order.
    pub fn fragmentation_index(&self) -> f64 {
        self.engine.fragmentation_index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::CostModel;
    use crate::policy::{BasePagesOnly, FaultCtx, FaultDecision, LayerOps};
    use gemini_sim_core::page::PageSize;

    /// A policy that always asks for huge mappings.
    struct AlwaysHuge;
    impl HugePolicy for AlwaysHuge {
        fn name(&self) -> &'static str {
            "AlwaysHuge"
        }
        fn fault_decision(&mut self, _ctx: &FaultCtx<'_>) -> FaultDecision {
            FaultDecision::Huge
        }
    }

    fn guest() -> GuestMm {
        GuestMm::new(VmId(1), 8192, CostModel::default())
    }

    #[test]
    fn fault_maps_base_page_in_vma() {
        let mut g = guest();
        let mut p = BasePagesOnly;
        let vma = g.mmap(16 * 4096).unwrap();
        let f = vma.start_frame();
        let (out, fx) = g.handle_fault(f, &mut p).unwrap();
        assert_eq!(out.size, PageSize::Base);
        assert!(fx.cycles > Cycles::ZERO);
        assert!(g.translate(f).is_some());
        // Double fault on the same frame is a bug.
        assert!(g.handle_fault(f, &mut p).is_err());
        // Fault outside any VMA is a segfault.
        assert!(matches!(g.handle_fault(0, &mut p), Err(SimError::NoVma(_))));
    }

    #[test]
    fn huge_fault_covers_region_and_respects_vma_bounds() {
        let mut g = guest();
        let mut p = AlwaysHuge;
        let vma = g.mmap(HUGE_PAGE_SIZE).unwrap();
        let f = vma.start_frame() + 5;
        let (out, _) = g.handle_fault(f, &mut p).unwrap();
        assert_eq!(out.size, PageSize::Huge);
        // All 512 frames are now translated.
        assert!(g.translate(vma.start_frame()).is_some());
        assert!(g.translate(vma.start_frame() + 511).is_some());
        // A short VMA cannot take a huge mapping.
        let small = g.mmap(4096).unwrap();
        let (out2, _) = g.handle_fault(small.start_frame(), &mut p).unwrap();
        assert_eq!(out2.size, PageSize::Base);
    }

    #[test]
    fn partially_populated_region_cannot_go_huge() {
        let mut g = guest();
        let vma = g.mmap(HUGE_PAGE_SIZE).unwrap();
        let mut base = BasePagesOnly;
        g.handle_fault(vma.start_frame(), &mut base).unwrap();
        let mut huge = AlwaysHuge;
        let (out, _) = g.handle_fault(vma.start_frame() + 1, &mut huge).unwrap();
        assert_eq!(out.size, PageSize::Base);
    }

    #[test]
    fn munmap_frees_everything_and_invalidates() {
        let mut g = guest();
        let mut p = AlwaysHuge;
        let vma = g.mmap(2 * HUGE_PAGE_SIZE).unwrap();
        g.handle_fault(vma.start_frame(), &mut p).unwrap();
        g.handle_fault(vma.start_frame() + 512, &mut p).unwrap();
        let free_before = g.buddy().free_frames();
        let fx = g.munmap(vma.id, &mut p, Cycles::ZERO).unwrap();
        assert_eq!(g.buddy().free_frames(), free_before + 1024);
        assert_eq!(fx.gva_regions_invalidated.len(), 2);
        assert_eq!(g.table().huge_mapped(), 0);
        g.buddy().check_invariants().unwrap();
        g.table().check_invariants().unwrap();
    }

    #[test]
    fn munmap_respects_bucket_interception() {
        /// Intercepts every freed huge page.
        struct Bucket(Vec<u64>);
        impl HugePolicy for Bucket {
            fn name(&self) -> &'static str {
                "bucket"
            }
            fn fault_decision(&mut self, _: &FaultCtx<'_>) -> FaultDecision {
                FaultDecision::Huge
            }
            fn intercept_huge_free(&mut self, pa: u64, _now: Cycles) -> bool {
                self.0.push(pa);
                true
            }
        }
        let mut g = guest();
        let mut p = Bucket(Vec::new());
        let vma = g.mmap(HUGE_PAGE_SIZE).unwrap();
        g.handle_fault(vma.start_frame(), &mut p).unwrap();
        let used_before = g.buddy().used_frames();
        g.munmap(vma.id, &mut p, Cycles::ZERO).unwrap();
        // The huge page's frames did NOT return to the buddy.
        assert_eq!(g.buddy().used_frames(), used_before);
        assert_eq!(p.0.len(), 1);
    }

    #[test]
    fn daemon_runs_policy_promotions() {
        /// Promotes every populated region by copy.
        struct Collapse;
        impl HugePolicy for Collapse {
            fn name(&self) -> &'static str {
                "collapse"
            }
            fn fault_decision(&mut self, _: &FaultCtx<'_>) -> FaultDecision {
                FaultDecision::Base
            }
            fn daemon(&mut self, ops: &mut LayerOps<'_>) -> Vec<crate::policy::PromotionOp> {
                ops.table
                    .iter_regions()
                    .filter(|&(_, huge)| !huge)
                    .map(|(r, _)| {
                        crate::policy::PromotionOp::new(r, crate::policy::PromotionKind::Copy)
                    })
                    .collect()
            }
        }
        let mut g = guest();
        let mut p = Collapse;
        let vma = g.mmap(HUGE_PAGE_SIZE).unwrap();
        for i in 0..40 {
            g.handle_fault(vma.start_frame() + i, &mut p).unwrap();
        }
        let fx = g.run_daemon(&mut p, Cycles::ZERO, 1);
        assert_eq!(g.table().huge_mapped(), 1);
        assert_eq!(fx.pages_copied, 40);
        assert_eq!(fx.shootdowns, 1);
    }

    #[test]
    fn touch_recording_feeds_daemon_view() {
        let mut g = guest();
        g.record_touch(100 * 512);
        g.record_touch(100 * 512 + 1);
        assert_eq!(g.engine.touches(g.vm).unwrap().get(100), 2);
    }

    #[test]
    fn demote_splits_huge_mapping() {
        let mut g = guest();
        let mut p = AlwaysHuge;
        let vma = g.mmap(HUGE_PAGE_SIZE).unwrap();
        g.handle_fault(vma.start_frame(), &mut p).unwrap();
        let region = vma.start_frame() >> HUGE_PAGE_ORDER;
        let fx = g.demote(region, 1).unwrap();
        assert_eq!(g.table().huge_mapped(), 0);
        assert_eq!(g.table().base_mapped(), 512);
        assert_eq!(fx.gva_regions_invalidated, vec![region]);
    }
}
