//! Experiment scale presets.
//!
//! The simulator keeps the TLB at its real size (1536 L2 entries), so the
//! regime of an experiment is set by the ratio of working-set size to TLB
//! coverage, not by absolute bytes. Scales shrink working sets and op
//! counts together so the quick preset finishes in seconds while the full
//! preset matches DESIGN.md §5.

use gemini_sim_core::{derive_seed, Cycles};
use gemini_vm_sim::MachineConfig;

/// A coherent set of sizing knobs for one experiment run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Multiplier on each workload's working-set size.
    pub ws_factor: f64,
    /// Operations per workload run.
    pub ops: u64,
    /// Host physical frames.
    pub host_frames: u64,
    /// Guest physical frames per VM.
    pub vm_frames: u64,
    /// FMFI target handed to the fragmenter for the "fragmented"
    /// variants. Any positive value gives the same layout: the
    /// fragmenter (`gemini_mm::fragment_to`) only reads it to switch
    /// itself on.
    pub frag_target: f64,
    /// Base seed; experiments derive per-run seeds from it.
    pub seed: u64,
    /// Worker threads for experiment grids: 0 = available parallelism,
    /// 1 = sequential, N = exactly N threads. Results are byte-identical
    /// for every setting; this knob only trades wall-clock time.
    pub jobs: usize,
    /// Disables the event-driven fast-forward core (`--no-ff`): every
    /// event steps through the faithful slow path and every batch
    /// boundary runs a daemon pass, even when the pass is provably a
    /// no-op. Results are byte-identical with fast-forward on or off —
    /// this escape hatch exists so the parity suite (and a suspicious
    /// user) can prove that claim on any cell; it only costs wall time.
    pub no_ff: bool,
    /// Disables closed-form hit-run batching (`--no-batch`): every
    /// access in a hit-only run steps through the faithful TLB probe
    /// path (DESIGN.md §16). Results are byte-identical with batching
    /// on or off — same contract and same purpose as `no_ff`.
    pub no_batch: bool,
}

impl Scale {
    /// Seconds-fast preset for examples and integration tests.
    pub fn quick() -> Self {
        Self {
            ws_factor: 1.0 / 16.0,
            ops: 2_500,
            host_frames: 1 << 16, // 256 MiB.
            vm_frames: 1 << 15,   // 128 MiB.
            frag_target: 0.9,
            seed: 42,
            jobs: 0,
            no_ff: false,
            no_batch: false,
        }
    }

    /// The default preset: large and long enough for the background
    /// daemons to differentiate the systems the way the paper's figures
    /// do, small enough to sweep every grid in minutes.
    pub fn demo() -> Self {
        Self {
            ws_factor: 0.25,
            ops: 8_000,
            host_frames: 1 << 18, // 1 GiB.
            vm_frames: 1 << 17,   // 512 MiB.
            frag_target: 0.9,
            seed: 42,
            jobs: 0,
            no_ff: false,
            no_batch: false,
        }
    }

    /// Full-size preset (DESIGN.md §5): working sets at catalog size.
    pub fn full() -> Self {
        Self {
            ws_factor: 1.0,
            ops: 20_000,
            host_frames: 1 << 19, // 2 GiB.
            vm_frames: 1 << 18,   // 1 GiB.
            frag_target: 0.9,
            seed: 42,
            jobs: 0,
            no_ff: false,
            no_batch: false,
        }
    }

    /// Reads `GEMINI_SCALE` (`quick` | `demo` | `full`; defaults to
    /// `demo`) and `GEMINI_JOBS` (worker threads for experiment
    /// cells; `0` = available parallelism).
    pub fn from_env() -> Self {
        let mut scale = match std::env::var("GEMINI_SCALE").as_deref() {
            Ok("quick") => Self::quick(),
            Ok("full") => Self::full(),
            _ => Self::demo(),
        };
        if let Ok(jobs) = std::env::var("GEMINI_JOBS") {
            if let Some(jobs) = parse_jobs(&jobs) {
                scale.jobs = jobs;
            }
        }
        scale
    }

    /// Builds the machine configuration for this scale.
    pub fn machine_config(&self, fragmented: bool, zero_heavy: bool, seed: u64) -> MachineConfig {
        MachineConfig {
            host_frames: self.host_frames,
            vm_frames: self.vm_frames,
            fragment_guest: fragmented.then_some(self.frag_target),
            fragment_host: fragmented.then_some(self.frag_target),
            zero_heavy,
            seed,
            no_ff: self.no_ff,
            no_batch: self.no_batch,
            ..MachineConfig::default()
        }
    }

    /// Machine config for the collocation experiments: two VMs, 16 vCPUs
    /// each, double the host memory.
    pub fn collocated_config(&self, seed: u64) -> MachineConfig {
        MachineConfig {
            host_frames: self.host_frames * 2,
            vm_frames: self.vm_frames,
            vcpus: 16,
            fragment_guest: Some(self.frag_target),
            fragment_host: Some(self.frag_target),
            seed,
            no_ff: self.no_ff,
            no_batch: self.no_batch,
            ..MachineConfig::default()
        }
    }

    /// A run-specific seed derived from the base seed.
    ///
    /// Delegates to [`gemini_sim_core::derive_seed`], the single seed
    /// derivation used across the workspace. Experiments call this once
    /// per cell *before* handing cells to the parallel executor, so a
    /// run's stream depends only on `(seed, tag, index)` — never on
    /// thread count or scheduling.
    pub fn seed_for(&self, tag: &str, index: u64) -> u64 {
        derive_seed(self.seed, tag, index)
    }
}

/// Interprets one `GEMINI_JOBS` value: `Some(n)` applies `n` (`0`
/// means "available parallelism", per the [`Scale::jobs`] contract),
/// `None` keeps the preset default. A value that is present but not a
/// number gets a stderr warning instead of a silent fallback — the
/// same contract `GEMINI_BENCH_OPS` follows in the bench crate, so a
/// typo like `GEMINI_JOBS=two` no longer quietly runs a different
/// thread count than the user asked for.
fn parse_jobs(raw: &str) -> Option<usize> {
    match raw.parse::<usize>() {
        Ok(jobs) => Some(jobs),
        Err(_) => {
            eprintln!("warning: GEMINI_JOBS={raw:?} is not a number; using the scale default");
            None
        }
    }
}

/// Suppressed-duration marker so Cycles stays in scope for doc purposes.
#[allow(dead_code)]
fn _unused(_: Cycles) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered() {
        let q = Scale::quick();
        let d = Scale::demo();
        let f = Scale::full();
        assert!(q.ws_factor < d.ws_factor && d.ws_factor < f.ws_factor);
        assert!(q.ops < d.ops && d.ops < f.ops);
        assert!(q.host_frames < d.host_frames);
    }

    #[test]
    fn machine_config_carries_fragmentation() {
        let s = Scale::quick();
        let frag = s.machine_config(true, false, 1);
        assert_eq!(frag.fragment_guest, Some(0.9));
        let clean = s.machine_config(false, true, 1);
        assert_eq!(clean.fragment_guest, None);
        assert!(clean.zero_heavy);
    }

    #[test]
    fn no_ff_propagates_to_both_machine_configs() {
        let mut s = Scale::quick();
        assert!(!s.machine_config(false, false, 1).no_ff);
        assert!(!s.collocated_config(1).no_ff);
        s.no_ff = true;
        assert!(s.machine_config(false, false, 1).no_ff);
        assert!(s.collocated_config(1).no_ff);
    }

    #[test]
    fn no_batch_propagates_to_both_machine_configs() {
        let mut s = Scale::quick();
        assert!(!s.machine_config(false, false, 1).no_batch);
        assert!(!s.collocated_config(1).no_batch);
        s.no_batch = true;
        assert!(s.machine_config(false, false, 1).no_batch);
        assert!(s.collocated_config(1).no_batch);
    }

    #[test]
    fn collocated_config_uses_16_vcpus() {
        let c = Scale::quick().collocated_config(1);
        assert_eq!(c.vcpus, 16);
        assert_eq!(c.host_frames, Scale::quick().host_frames * 2);
    }

    #[test]
    fn jobs_values_parse_with_zero_meaning_auto() {
        assert_eq!(parse_jobs("3"), Some(3));
        // `0` is the documented "available parallelism" setting, not an
        // error; `effective_jobs` resolves it to >= 1 worker.
        assert_eq!(parse_jobs("0"), Some(0));
        assert_eq!(crate::effective_jobs(0).max(1), crate::effective_jobs(0));
    }

    #[test]
    fn garbage_jobs_values_keep_the_preset_default() {
        // Each of these used to be dropped with no diagnostic at all;
        // now they warn and leave the preset's `jobs` untouched.
        for garbage in ["two", "", "-1", "1.5", "0x4"] {
            assert_eq!(parse_jobs(garbage), None, "{garbage:?}");
        }
    }

    #[test]
    fn seeds_differ_per_tag_and_index() {
        let s = Scale::quick();
        assert_ne!(s.seed_for("a", 0), s.seed_for("b", 0));
        assert_ne!(s.seed_for("a", 0), s.seed_for("a", 1));
        assert_eq!(s.seed_for("a", 0), s.seed_for("a", 0));
        // seed_for IS derive_seed — one derivation across the workspace.
        assert_eq!(s.seed_for("a", 3), derive_seed(s.seed, "a", 3));
    }
}
