//! Shared helpers for the benchmark binaries.
//!
//! Every `benches/` target regenerates one or more of the paper's tables
//! and figures (see DESIGN.md's per-experiment index) and prints the rows
//! the paper reports. Scale is controlled by `GEMINI_SCALE`
//! (`quick` | `demo` | `full`, default `demo`) and op count by
//! `GEMINI_BENCH_OPS`.

use gemini_harness::Scale;

/// Resolves the scale for a bench binary from the environment.
pub fn bench_scale() -> Scale {
    let mut scale = Scale::from_env();
    if let Ok(ops) = std::env::var("GEMINI_BENCH_OPS") {
        match ops.parse::<u64>() {
            Ok(ops) => scale.ops = ops,
            Err(_) => eprintln!(
                "warning: GEMINI_BENCH_OPS={ops:?} is not a number; using the scale default"
            ),
        }
    }
    scale
}

/// Frames of 4 KiB pages expressed in MiB, without precedence surprises.
fn frames_to_mib(frames: u64) -> u64 {
    frames.saturating_mul(4096) >> 20
}

/// Prints a standard bench header.
pub fn header(name: &str, artefacts: &str) {
    let scale = bench_scale();
    println!("================================================================");
    println!("{name} — regenerates {artefacts}");
    println!(
        "scale: ws_factor={:.3}, ops={}, host={} MiB, vm={} MiB (set GEMINI_SCALE/GEMINI_BENCH_OPS to change)",
        scale.ws_factor,
        scale.ops,
        frames_to_mib(scale.host_frames),
        frames_to_mib(scale.vm_frames),
    );
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_scale_defaults_to_bench() {
        let s = bench_scale();
        assert!(s.ops > 0);
        assert!(s.ws_factor > 0.0);
    }
}
