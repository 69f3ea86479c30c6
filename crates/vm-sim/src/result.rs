//! Results of a workload run on the simulated machine.

use gemini_mm::AlignmentStats;
use gemini_sim_core::Cycles;
use gemini_tlb::PerfCounters;

/// Metrics of one workload run in one VM.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// System label the run executed under.
    pub system: &'static str,
    /// Workload name.
    pub workload: String,
    /// Operations completed.
    pub ops: u64,
    /// Virtual time consumed.
    pub vtime: Cycles,
    /// Mean request latency (zero when the workload does not track
    /// latency).
    pub mean_latency: Cycles,
    /// 99th-percentile request latency.
    pub p99_latency: Cycles,
    /// MMU performance counters at the end of the run (deltas since the
    /// run began).
    pub counters: PerfCounters,
    /// Cross-layer huge-page alignment at the end of the run.
    pub alignment: AlignmentStats,
    /// Guest-layer fragmentation index at the end of the run.
    pub guest_fmfi: f64,
    /// Host-layer fragmentation index at the end of the run.
    pub host_fmfi: f64,
    /// Huge-bucket reuse rate (Gemini only; 0 otherwise).
    pub bucket_reuse_rate: f64,
}

impl RunResult {
    /// Throughput in operations per simulated second.
    pub fn throughput(&self) -> f64 {
        if self.vtime == Cycles::ZERO {
            0.0
        } else {
            self.ops as f64 / self.vtime.as_secs_f64()
        }
    }

    /// The well-aligned huge page rate (Tables 1, 3, 4).
    pub fn aligned_rate(&self) -> f64 {
        self.alignment.aligned_rate()
    }

    /// TLB misses (page walks) observed during the run.
    pub fn tlb_misses(&self) -> u64 {
        self.counters.stlb_misses
    }
}

/// One completed VM lifecycle inside a fleet run.
#[derive(Debug, Clone)]
pub struct FleetVmRecord {
    /// Fleet-wide arrival ordinal from the plan.
    pub index: u32,
    /// The VM's whole-lifetime run result.
    pub result: RunResult,
    /// Host base-page-equivalent frames `remove_vm` reclaimed at
    /// departure (leak-checked against the EPT footprint).
    pub frames_reclaimed: u64,
}

/// Outcome of driving one host through a fleet arrival/departure
/// process ([`crate::Machine::run_fleet`]).
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Completed VM lifecycles, in departure order.
    pub vms: Vec<FleetVmRecord>,
    /// Lifecycle events processed: one per arrival plus one per
    /// departure (every VM departs, so this is `2 * vms.len()`).
    pub churn_events: u64,
    /// Most VMs resident at once.
    pub peak_resident: usize,
    /// Free host blocks at huge-page order when the fleet drained.
    pub end_free_order9: u64,
}

impl FleetOutcome {
    /// Mean well-aligned huge-page rate across completed lifecycles.
    pub fn mean_aligned_rate(&self) -> f64 {
        if self.vms.is_empty() {
            return 0.0;
        }
        self.vms
            .iter()
            .map(|v| v.result.aligned_rate())
            .sum::<f64>()
            / self.vms.len() as f64
    }

    /// Total host frames reclaimed by departures.
    pub fn frames_reclaimed(&self) -> u64 {
        self.vms.iter().map(|v| v.frames_reclaimed).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        let r = RunResult {
            system: "test",
            workload: "w".into(),
            ops: 2_100_000,
            vtime: Cycles::from_secs(1.0),
            mean_latency: Cycles::ZERO,
            p99_latency: Cycles::ZERO,
            counters: PerfCounters::default(),
            alignment: AlignmentStats::default(),
            guest_fmfi: 0.0,
            host_fmfi: 0.0,
            bucket_reuse_rate: 0.0,
        };
        assert!((r.throughput() - 2_100_000.0).abs() < 1.0);
        let empty = RunResult {
            vtime: Cycles::ZERO,
            ..r
        };
        assert_eq!(empty.throughput(), 0.0);
    }
}
