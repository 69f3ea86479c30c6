//! Randomized property tests for the buddy allocator, driven by the
//! workspace's own deterministic RNG (no external test-framework
//! dependency so the suite builds offline).
//!
//! These drive random interleavings of `alloc`, `alloc_at` and `free` and
//! check the allocator's structural invariants after every step: free lists
//! and index agree, blocks are aligned/disjoint/coalesced, and frame
//! accounting conserves memory.

use gemini_buddy::{BuddyAllocator, MAX_ORDER};
use gemini_sim_core::{DetRng, HUGE_PAGE_ORDER};

const CASES: u64 = 64;

/// One random allocator operation.
#[derive(Debug, Clone)]
enum Op {
    Alloc(u32),
    AllocAt { frame: u64, order: u32 },
    FreeIdx(usize),
}

fn random_op(rng: &mut DetRng, num_frames: u64) -> Op {
    match rng.below(3) {
        0 => Op::Alloc(rng.below(MAX_ORDER as u64 + 1) as u32),
        1 => {
            let order = rng.below(10) as u32;
            let frame = rng.below(num_frames) & !((1u64 << order) - 1);
            Op::AllocAt { frame, order }
        }
        _ => Op::FreeIdx(rng.below(1 << 16) as usize),
    }
}

#[test]
fn random_ops_preserve_invariants() {
    let mut seeds = DetRng::new(0xB0DD_1E01);
    for _ in 0..CASES {
        let mut rng = seeds.fork();
        let num_frames = rng.range(1, 5000);
        let n_ops = rng.range(1, 200);
        let mut a = BuddyAllocator::new(num_frames);
        let mut live: Vec<(u64, u32)> = Vec::new();
        let mut allocated = 0u64;
        for _ in 0..n_ops {
            match random_op(&mut rng, 4096) {
                Op::Alloc(order) => {
                    if let Ok(start) = a.alloc(order) {
                        assert_eq!(start % (1 << order), 0);
                        assert!(start + (1u64 << order) <= num_frames);
                        live.push((start, order));
                        allocated += 1 << order;
                    }
                }
                Op::AllocAt { frame, order } => {
                    if a.alloc_at(frame, order).is_ok() {
                        live.push((frame, order));
                        allocated += 1 << order;
                    }
                }
                Op::FreeIdx(i) => {
                    if !live.is_empty() {
                        let (start, order) = live.swap_remove(i % live.len());
                        a.free(start, order).unwrap();
                        allocated -= 1 << order;
                    }
                }
            }
            a.check_invariants().unwrap();
            assert_eq!(a.used_frames(), allocated);
        }
        // No two live blocks may overlap.
        let mut sorted = live.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            let (s0, o0) = w[0];
            let (s1, _) = w[1];
            assert!(s0 + (1u64 << o0) <= s1, "live blocks overlap");
        }
    }
}

#[test]
fn run_index_matches_rescan_after_arbitrary_interleavings() {
    // The incremental free-run index must equal a fresh `order_of`
    // rescan after any interleaving of alloc / alloc_at / free, and the
    // indexed queries must agree with naive derivations from that
    // rescan. (`check_invariants`, called per step, also cross-checks
    // the index; this test additionally pins the query semantics.)
    index_matches_rescan(0xB0DD_1E05, CASES, (512, 6000), 150);
}

#[test]
fn run_index_matches_rescan_on_sparse_allocators() {
    // Large, mostly free allocators: runs lie thousands of frames apart,
    // so neighbour searches and the run cursor cross whole summary
    // words (and, past 2^18 frames, top-level words), which dense
    // fragmented layouts rarely make them do.
    index_matches_rescan(0xB0DD_1E07, 16, (100_000, 600_000), 40);
}

/// Random alloc / alloc_at / free interleavings on `cases` allocators
/// of `frames` (half-open range) frames, checking the index and every
/// query against a rescan after each of up to `max_ops` steps.
fn index_matches_rescan(seed: u64, cases: u64, frames: (u64, u64), max_ops: u64) {
    let mut seeds = DetRng::new(seed);
    for _ in 0..cases {
        let mut rng = seeds.fork();
        let num_frames = rng.range(frames.0, frames.1);
        let n_ops = rng.range(1, max_ops);
        let mut a = BuddyAllocator::new(num_frames);
        let mut live: Vec<(u64, u32)> = Vec::new();
        for _ in 0..n_ops {
            match random_op(&mut rng, num_frames) {
                Op::Alloc(order) => {
                    if let Ok(start) = a.alloc(order) {
                        live.push((start, order));
                    }
                }
                Op::AllocAt { frame, order } => {
                    if frame + (1 << order) <= num_frames && a.alloc_at(frame, order).is_ok() {
                        live.push((frame, order));
                    }
                }
                Op::FreeIdx(i) => {
                    if !live.is_empty() {
                        let (start, order) = live.swap_remove(i % live.len());
                        a.free(start, order).unwrap();
                    }
                }
            }
            let rescan = a.free_runs_rescan();
            assert_eq!(a.free_runs(), rescan, "index diverged from rescan");
            a.check_invariants().unwrap();
            // Queries answer exactly what a naive scan of the rescan says.
            let largest = rescan.iter().map(|&(_, l)| l).max().unwrap_or(0);
            assert_eq!(a.largest_free_run(), largest);
            let cursor = rng.below(num_frames + 1);
            assert_eq!(
                a.free_runs_from(cursor).collect::<Vec<_>>(),
                rescan
                    .iter()
                    .copied()
                    .filter(|&(s, _)| s >= cursor)
                    .collect::<Vec<_>>()
            );
            let need = rng.range(1, 1024);
            assert_eq!(
                a.first_run_fitting(cursor, need),
                rescan
                    .iter()
                    .copied()
                    .find(|&(s, l)| s >= cursor && l >= need)
            );
            let in0 = rng.below(num_frames);
            let fits = |(s, l): (u64, u64)| {
                let want = in0 % 512;
                let base = s - s % 512;
                let out0 = if base + want >= s {
                    base + want
                } else {
                    base + want + 512
                };
                out0 + need <= s + l
            };
            assert_eq!(
                a.first_congruent_run(cursor, in0, need),
                rescan.iter().copied().find(|&r| r.0 >= cursor && fits(r))
            );
            assert_eq!(
                a.first_congruent_run_below(cursor, in0, need),
                rescan.iter().copied().find(|&r| r.0 < cursor && fits(r))
            );
        }
    }
}

#[test]
fn bulk_update_rebuild_equals_incremental_maintenance() {
    // Replaying the same op sequence incrementally and inside one
    // `bulk_update` (index suspended, rebuilt from rescan at the end)
    // must leave identical allocators and identical indexes.
    fn apply(a: &mut BuddyAllocator, ops: &[Op]) {
        let mut live: Vec<(u64, u32)> = Vec::new();
        for op in ops {
            match *op {
                Op::Alloc(order) => {
                    if let Ok(start) = a.alloc(order) {
                        live.push((start, order));
                    }
                }
                Op::AllocAt { frame, order } => {
                    if frame + (1 << order) <= a.total_frames() && a.alloc_at(frame, order).is_ok()
                    {
                        live.push((frame, order));
                    }
                }
                Op::FreeIdx(i) => {
                    if !live.is_empty() {
                        let (start, order) = live.swap_remove(i % live.len());
                        a.free(start, order).unwrap();
                    }
                }
            }
        }
    }
    let mut seeds = DetRng::new(0xB0DD_1E06);
    for _ in 0..CASES {
        let mut rng = seeds.fork();
        let num_frames = rng.range(512, 4096);
        let n_ops = rng.range(1, 150);
        let ops: Vec<Op> = (0..n_ops)
            .map(|_| random_op(&mut rng, num_frames))
            .collect();
        let mut incremental = BuddyAllocator::new(num_frames);
        let mut bulk = BuddyAllocator::new(num_frames);
        apply(&mut incremental, &ops);
        bulk.bulk_update(|b| apply(b, &ops));
        assert_eq!(incremental.free_runs(), bulk.free_runs());
        assert_eq!(incremental.used_frames(), bulk.used_frames());
        bulk.check_invariants().unwrap();

        // Release a random subset of the allocated frames two ways: the
        // sorted live release (per stretch of consecutive frames, index
        // maintained) and the bulk path (bitmap rebuild, index rebuilt
        // from rescan). Both must land on the same allocator.
        let released: Vec<u64> = (0..num_frames)
            .filter(|&f| !incremental.is_frame_free(f) && rng.below(2) == 0)
            .collect();
        let mut live = incremental.clone();
        live.free_sorted(&released).unwrap();
        let mut rebuilt = incremental.clone();
        rebuilt.bulk_update(|b| b.free_singles(&released)).unwrap();
        live.check_invariants().unwrap();
        rebuilt.check_invariants().unwrap();
        assert_eq!(live.free_runs(), rebuilt.free_runs());
        assert_eq!(live.free_frames(), rebuilt.free_frames());
        for o in 0..=MAX_ORDER {
            assert_eq!(
                live.free_blocks_of_order(o),
                rebuilt.free_blocks_of_order(o)
            );
        }
        assert_eq!(
            live.fragmentation_index(HUGE_PAGE_ORDER),
            rebuilt.fragmentation_index(HUGE_PAGE_ORDER)
        );
        // A frame freed twice, or out of order, is a bad free.
        if let Some(&f) = released.first() {
            assert!(live.free_sorted(&[f]).is_err());
        }
        if released.len() >= 2 {
            let mut fresh = incremental.clone();
            assert!(fresh.free_sorted(&[released[1], released[0]]).is_err());
        }
    }
}

#[test]
fn free_everything_restores_pristine_state() {
    let mut seeds = DetRng::new(0xB0DD_1E02);
    for _ in 0..CASES {
        let mut rng = seeds.fork();
        let num_frames = rng.range(512, 4096);
        let n = rng.range(1, 64);
        let mut a = BuddyAllocator::new(num_frames);
        let mut live = Vec::new();
        for _ in 0..n {
            let order = rng.below(MAX_ORDER as u64 + 1) as u32;
            if let Ok(s) = a.alloc(order) {
                live.push((s, order));
            }
        }
        for (s, o) in live {
            a.free(s, o).unwrap();
        }
        assert_eq!(a.free_frames(), num_frames);
        a.check_invariants().unwrap();
        // A single maximal run spanning all memory.
        assert_eq!(a.free_runs(), vec![(0, num_frames)]);
    }
}

#[test]
fn alloc_at_never_hands_out_busy_frames() {
    let mut seeds = DetRng::new(0xB0DD_1E03);
    for _ in 0..CASES {
        let mut rng = seeds.fork();
        let n = rng.range(1, 80);
        let mut a = BuddyAllocator::new(1024);
        let mut owned: Vec<(u64, u32)> = Vec::new();
        for _ in 0..n {
            let order = rng.below(10) as u32;
            let frame = rng.below(1024) & !((1u64 << order) - 1);
            if frame + (1 << order) > 1024 {
                continue;
            }
            match a.alloc_at(frame, order) {
                Ok(()) => {
                    for &(s, o) in &owned {
                        let disjoint = s + (1u64 << o) <= frame || frame + (1u64 << order) <= s;
                        assert!(disjoint, "alloc_at returned an owned frame");
                    }
                    owned.push((frame, order));
                }
                Err(_) => {
                    // Failure must mean some frame in range is indeed busy,
                    // i.e. intersects an owned block.
                    let busy = owned
                        .iter()
                        .any(|&(s, o)| s < frame + (1 << order) && frame < s + (1u64 << o));
                    assert!(busy, "alloc_at refused a fully free range");
                }
            }
        }
    }
}

#[test]
fn is_range_free_matches_ownership() {
    let mut seeds = DetRng::new(0xB0DD_1E04);
    for _ in 0..CASES {
        let mut rng = seeds.fork();
        let n = rng.below(32);
        let mut a = BuddyAllocator::new(512);
        let mut owned: Vec<(u64, u32)> = Vec::new();
        for _ in 0..n {
            let order = rng.below(7) as u32;
            let frame = rng.below(512) & !((1u64 << order) - 1);
            if frame + (1 << order) <= 512 && a.alloc_at(frame, order).is_ok() {
                owned.push((frame, order));
            }
        }
        let qs = rng.below(512);
        let ql = rng.range(1, 64).min(512 - qs.min(512));
        if qs + ql <= 512 {
            let expect_free = !owned
                .iter()
                .any(|&(s, o)| s < qs + ql && qs < s + (1u64 << o));
            assert_eq!(a.is_range_free(qs, ql), expect_free);
        }
    }
}
