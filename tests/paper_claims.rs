//! The paper's qualitative claims, checked end-to-end at test scale.
//!
//! These are *shape* assertions (who wins, roughly by how much, where the
//! crossovers fall), mirroring EXPERIMENTS.md. Absolute constants are
//! deliberately loose: the quick scale trades magnitude for speed.

use gemini_harness::experiments::{breakdown, clean_slate, collocated, fig02, motivation};
use gemini_harness::Scale;
use gemini_vm_sim::SystemKind;

fn scale(ops: u64) -> Scale {
    Scale {
        ops,
        ..Scale::quick()
    }
}

#[test]
fn claim_fig2_only_well_aligned_huge_pages_help() {
    let res = fig02::run(&scale(2_000)).unwrap();
    // Small dataset: all four configurations within ~35 %.
    assert!(res.aligned_speedup_at_min() < 1.35);
    // Large dataset: aligned huge pages clearly win.
    assert!(res.aligned_speedup_at_max() > 1.5);
    // Misaligned huge pages close less than half the gap the aligned
    // configuration opens, at every dataset size.
    for (_, row) in &res.rows {
        let base = row[0].vtime.0 as f64;
        let aligned_gain = base / row[3].vtime.0 as f64 - 1.0;
        for mis in [&row[1], &row[2]] {
            let gain = base / mis.vtime.0 as f64 - 1.0;
            assert!(
                gain < 0.5 * aligned_gain + 0.1,
                "misaligned gain {gain} vs aligned {aligned_gain}"
            );
        }
    }
}

#[test]
fn claim_tab1_gemini_aligns_most_huge_pages() {
    // Alignment formation is daemon-paced, so this claim needs runs long
    // enough for background coalescing to act: demo scale.
    let res = motivation::run(&Scale {
        ops: 5_000,
        ..Scale::demo()
    })
    .unwrap();
    let eval = SystemKind::evaluated();
    let idx = |s: SystemKind| eval.iter().position(|&e| e == s).unwrap();
    let gem = idx(SystemKind::Gemini);
    let mean_rate = |i: usize| -> f64 {
        res.runs.iter().map(|r| r[i].aligned_rate()).sum::<f64>() / res.runs.len() as f64
    };
    let pairs = |i: usize| -> u64 { res.runs.iter().map(|r| r[i].alignment.aligned_pairs).sum() };
    let gem_rate = mean_rate(gem);
    // Gemini must deliver the most well-aligned TLB coverage of any
    // system (total aligned pairs), and beat the rate of the systems that
    // coalesce eagerly. (At test scale, utilization-gated systems like
    // HawkEye/Ingens form very few — trivially all-aligned — huge pages,
    // so their *rate* can be high while their coverage is tiny; the
    // paper-scale rate dominance is checked in EXPERIMENTS.md's bench
    // runs.)
    for s in [
        SystemKind::Thp,
        SystemKind::CaPaging,
        SystemKind::Ranger,
        SystemKind::HawkEye,
        SystemKind::Ingens,
    ] {
        assert!(
            pairs(gem) >= pairs(idx(s)),
            "GEMINI pairs {} vs {} {}",
            pairs(gem),
            s.label(),
            pairs(idx(s))
        );
    }
    for s in [SystemKind::Thp, SystemKind::CaPaging, SystemKind::Ranger] {
        assert!(
            gem_rate > mean_rate(idx(s)),
            "GEMINI rate {gem_rate} vs {} {}",
            s.label(),
            mean_rate(idx(s))
        );
    }
    assert!(
        gem_rate > 0.4,
        "GEMINI should align roughly half+: {gem_rate}"
    );
}

#[test]
fn claim_fig8_gemini_has_best_mean_throughput() {
    let workloads = ["Masstree", "Redis", "CG.D", "Streamcluster"];
    let res = clean_slate::run(&scale(2_500), Some(&workloads)).unwrap();
    let gem = res.mean_speedup(SystemKind::Gemini, true);
    for s in [
        SystemKind::Thp,
        SystemKind::Ingens,
        SystemKind::HawkEye,
        SystemKind::CaPaging,
        SystemKind::Ranger,
    ] {
        let other = res.mean_speedup(s, true);
        assert!(
            gem >= other * 0.98,
            "GEMINI {gem:.3} should not lose to {} {other:.3}",
            s.label()
        );
    }
    assert!(gem > 1.0, "GEMINI must beat the base-page baseline: {gem}");
}

#[test]
fn claim_ranger_pays_for_its_migrations() {
    // Translation-ranger's copy-always coalescing makes it the slowest
    // coalescing system (the paper: the only one below Host-B-VM-B).
    let workloads = ["Redis", "Masstree"];
    let res = clean_slate::run(&scale(2_500), Some(&workloads)).unwrap();
    let ranger = res.mean_speedup(SystemKind::Ranger, true);
    let gem = res.mean_speedup(SystemKind::Gemini, true);
    assert!(ranger < gem, "ranger {ranger} must trail GEMINI {gem}");
    let ingens = res.mean_speedup(SystemKind::Ingens, true);
    assert!(
        ranger < ingens,
        "ranger {ranger} must trail Ingens {ingens}"
    );
}

#[test]
fn claim_fig16_both_components_contribute() {
    let res = breakdown::run(&scale(1_500), Some(&["Redis", "CG.D"])).unwrap();
    let (ema_hb, bucket) = res.mean_shares();
    assert!((ema_hb + bucket - 1.0).abs() < 1e-9);
    assert!(ema_hb > 0.2, "EMA/HB share {ema_hb}");
}

#[test]
fn claim_fig17_gemini_overhead_is_negligible() {
    let res = collocated::run(&scale(700), Some(&[("Redis", "SP.D")])).unwrap();
    let overhead = res.gemini_nonsensitive_overhead();
    assert!(overhead < 0.1, "paper: <=3%; measured {overhead}");
}
