//! [`GeminiRuntime`] — the host-resident coordinator (the prototype's
//! `kgeminid` kernel thread).
//!
//! Periodically:
//!
//! 1. runs MHPS over every VM's two page-table layers and publishes the
//!    per-VM scan results into [`GeminiShared`], making each layer aware
//!    of the mis-aligned huge pages formed at the other layer;
//! 2. feeds TLB-miss and fragmentation telemetry into the Algorithm 1
//!    [`TimeoutController`] and publishes the adjusted booking timeout.

use crate::mhps::scan_vm;
use crate::shared::GeminiShared;
use crate::timeout::TimeoutController;
use gemini_obs::{cat, EventKind, Layer, Phase, Profiler, Recorder};
use gemini_page_table::AddressSpace;
use gemini_sim_core::{Cycles, VmId};

/// The scan-and-adjust coordinator.
#[derive(Debug)]
pub struct GeminiRuntime {
    shared: GeminiShared,
    controller: TimeoutController,
    /// How often MHPS scans.
    pub scan_period: Cycles,
    /// How often the timeout controller samples (Algorithm 1's `P`).
    pub adjust_period: Cycles,
    next_scan: Cycles,
    next_adjust: Cycles,
    /// TLB-miss counter value at the last adjustment.
    last_tlb_misses: u64,
    /// Completed scans (stats).
    pub scans_done: u64,
    /// When false, Algorithm 1 is frozen and the published timeout stays
    /// fixed (the fixed-vs-adaptive ablation).
    pub adaptive: bool,
    rec: Recorder,
    prof: Profiler,
}

impl GeminiRuntime {
    /// Creates a runtime publishing into `shared`.
    pub fn new(shared: GeminiShared) -> Self {
        let initial = shared.read().booking_timeout;
        Self {
            shared,
            controller: TimeoutController::new(initial),
            scan_period: Cycles::from_millis(2.0),
            adjust_period: Cycles::from_millis(20.0),
            next_scan: Cycles::ZERO,
            next_adjust: Cycles::from_millis(20.0),
            last_tlb_misses: 0,
            scans_done: 0,
            adaptive: true,
            rec: Recorder::off(),
            prof: Profiler::off(),
        }
    }

    /// Attaches an observability recorder; Algorithm 1's timeout
    /// decisions are traced through it.
    pub fn attach_recorder(&mut self, rec: Recorder) {
        self.rec = rec;
    }

    /// Attaches a span profiler; MHPS scan passes record
    /// contiguity-scan spans through it.
    pub fn attach_profiler(&mut self, prof: Profiler) {
        self.prof = prof;
    }

    /// The current booking timeout (for tests/telemetry).
    pub fn booking_timeout(&self) -> Cycles {
        self.controller.effective()
    }

    /// The earliest instant at which [`GeminiRuntime::tick`] has due
    /// work. A tick strictly before this deadline performs no scan and
    /// no adjustment, mutates nothing, and returns zero cost — the
    /// machine's fast-forward gate relies on that to elide the call
    /// (and the telemetry gather feeding it) during quiescent spans.
    pub fn next_deadline(&self) -> Cycles {
        if self.adaptive {
            self.next_scan.min(self.next_adjust)
        } else {
            self.next_scan
        }
    }

    /// Runs due work at time `now`. `tables` provides, per VM, the guest
    /// process table and the EPT; `tlb_misses` is the machine-wide
    /// cumulative TLB-miss counter and `fmfi` the current host
    /// fragmentation index.
    ///
    /// Returns the cycle cost of the scan work performed (charged to the
    /// background, not the workload).
    pub fn tick(
        &mut self,
        now: Cycles,
        tables: &[(VmId, &AddressSpace, &AddressSpace)],
        tlb_misses: u64,
        fmfi: f64,
    ) -> Cycles {
        let mut cost = Cycles::ZERO;
        if now >= self.next_scan {
            let _scan_span = self.prof.span(Phase::ContiguityScan);
            for &(vm, guest, ept) in tables {
                let scan = scan_vm(vm, guest, ept);
                // Scan cost is linear in mapped regions.
                let regions = guest.huge_mapped()
                    + ept.huge_mapped()
                    + guest.base_mapped() / 64
                    + ept.base_mapped() / 64;
                cost += Cycles(200 + regions * 20);
                self.shared
                    .write()
                    .scans
                    .insert(vm, std::sync::Arc::new(scan));
            }
            self.scans_done += 1;
            self.rec.counter_add("gemini.mhps_scans", 1);
            self.next_scan = now + self.scan_period;
        }
        if self.adaptive && now >= self.next_adjust {
            let delta = tlb_misses.saturating_sub(self.last_tlb_misses);
            self.last_tlb_misses = tlb_misses;
            let new_timeout = self.controller.on_period(delta, fmfi);
            self.shared.write().booking_timeout = new_timeout;
            self.rec.set_cycle(now);
            self.rec
                .emit(cat::RUNTIME, 0, Layer::Sys, || EventKind::TimeoutAdjusted {
                    timeout_cycles: new_timeout.0,
                });
            self.rec
                .gauge_set("gemini.booking_timeout_cycles", new_timeout.0 as f64);
            self.next_adjust = now + self.adjust_period;
            cost += Cycles(500);
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::new_shared;
    use std::sync::Arc;

    #[test]
    fn scan_publishes_results_per_vm() {
        let shared = new_shared();
        let mut rt = GeminiRuntime::new(Arc::clone(&shared));
        let mut guest = AddressSpace::new();
        let ept = AddressSpace::new();
        guest.map_huge(0, 4).unwrap();
        let cost = rt.tick(Cycles::ZERO, &[(VmId(1), &guest, &ept)], 0, 0.0);
        assert!(cost > Cycles::ZERO);
        let s = shared.read();
        let scan = &s.scans[&VmId(1)];
        assert_eq!(scan.guest_type1, vec![4]);
        assert_eq!(rt.scans_done, 1);
    }

    #[test]
    fn scan_respects_period() {
        let shared = new_shared();
        let mut rt = GeminiRuntime::new(Arc::clone(&shared));
        let guest = AddressSpace::new();
        let ept = AddressSpace::new();
        rt.tick(Cycles::ZERO, &[(VmId(1), &guest, &ept)], 0, 0.0);
        // Immediately again: not due.
        rt.tick(Cycles(1), &[(VmId(1), &guest, &ept)], 0, 0.0);
        assert_eq!(rt.scans_done, 1);
        rt.tick(
            rt.scan_period + Cycles(1),
            &[(VmId(1), &guest, &ept)],
            0,
            0.0,
        );
        assert_eq!(rt.scans_done, 2);
    }

    #[test]
    fn timeout_adjustment_publishes_to_shared() {
        let shared = new_shared();
        let initial = shared.read().booking_timeout;
        let mut rt = GeminiRuntime::new(Arc::clone(&shared));
        let guest = AddressSpace::new();
        let ept = AddressSpace::new();
        // First adjustment period: baseline sample, probe up published.
        rt.tick(rt.adjust_period, &[(VmId(1), &guest, &ept)], 1000, 0.2);
        let probed = shared.read().booking_timeout;
        assert_eq!(probed, initial.scale(1.1));
        // Second period with fewer misses: probe accepted.
        rt.tick(
            rt.adjust_period * 2 + Cycles(1),
            &[(VmId(1), &guest, &ept)],
            1500, // Cumulative: delta 500 < baseline delta 1000.
            0.2,
        );
        assert_eq!(shared.read().booking_timeout, initial.scale(1.1));
        assert_eq!(rt.booking_timeout(), initial.scale(1.1));
    }
}
