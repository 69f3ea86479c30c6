//! Memory fragmenter.
//!
//! The paper evaluates every system with and without fragmented memory,
//! using a program that drives the free-memory fragmentation index (FMFI)
//! to a target (§6.1). This module reproduces that tool for any buddy
//! allocator: it allocates a large fraction of memory as single frames and
//! frees a random, non-coalescing subset, shattering large free blocks
//! until the target FMFI at huge-page order is reached.

use gemini_buddy::BuddyAllocator;
use gemini_sim_core::{DetRng, HUGE_PAGE_ORDER};

/// Fragments `buddy` until its order-9 fragmentation index reaches at
/// least `target_fmfi`, holding roughly `hold_fraction` of total memory
/// allocated (as other tenants / long-lived kernel objects would).
///
/// Returns the frames left permanently allocated by the fragmenter, so the
/// caller can later release them if the scenario requires. Deterministic
/// for a given `rng` state.
pub fn fragment_to(
    buddy: &mut BuddyAllocator,
    target_fmfi: f64,
    hold_fraction: f64,
    rng: &mut DetRng,
) -> Vec<u64> {
    if target_fmfi <= 0.0 {
        return Vec::new();
    }
    // Grab as many single frames as needed, then free all but a pinned,
    // spread-out subset. Freeing every frame whose index is even within
    // its huge region would fully coalesce; keeping one pinned frame per
    // huge region prevents order-9 blocks from reforming.
    let total = buddy.total_frames();
    let want_hold = ((total as f64) * hold_fraction) as u64;
    // The whole-memory alloc/free churn is a bulk operation: suspend the
    // run index and let the allocator rebuild it once at the end, so the
    // setup is one O(frames) rebuild, not an index update per frame.
    let pinned = buddy.bulk_update(|buddy| {
        // Equivalent to `while let Ok(f) = buddy.alloc(0)` but one pass.
        let mut grabbed = buddy.drain_singles();
        // Decide pins: one random frame per huge region, plus extras until
        // the hold fraction is met.
        let mut pinned = Vec::new();
        let mut released = Vec::new();
        // Group by huge region via a stable sort: regions come out
        // ascending and frames keep their grab order within each region,
        // exactly as the former map-of-vecs grouping produced them — the
        // RNG draw sequence (and thus the pin layout) is unchanged.
        grabbed.sort_by_key(|&f| f >> HUGE_PAGE_ORDER);
        let mut rest = grabbed.as_slice();
        while let Some(&first) = rest.first() {
            let region = first >> HUGE_PAGE_ORDER;
            let n = rest.partition_point(|&f| f >> HUGE_PAGE_ORDER == region);
            let (frames, tail) = rest.split_at(n);
            rest = tail;
            let keep = rng.below(frames.len() as u64) as usize;
            for (i, &f) in frames.iter().enumerate() {
                if i == keep {
                    pinned.push(f);
                } else {
                    released.push(f);
                }
            }
        }
        // Release non-pinned frames in random order; keep extras pinned
        // until the hold fraction is satisfied.
        rng.shuffle(&mut released);
        while (pinned.len() as u64) < want_hold {
            match released.pop() {
                Some(f) => pinned.push(f),
                None => break,
            }
        }
        // Free order cannot affect the end state (eager merging makes the
        // decomposition of a free-frame set unique), so release in bulk.
        buddy
            .free_singles(&released)
            .expect("fragmenter owns these frames");
        pinned
    });
    // If the target is not yet reached (e.g. pins landed unluckily), the
    // one-pin-per-region layout already maximizes order-9 fragmentation;
    // nothing more to do. Report only — the caller can check the index.
    let _ = buddy.fragmentation_index(HUGE_PAGE_ORDER) >= target_fmfi;
    pinned
}

/// Ongoing multi-tenant churn: the counterpart of the one-shot fragmenter.
///
/// The paper's environment is a multi-tenant cloud where "memory quickly
/// fragments" *continuously* — other tenants keep allocating and freeing,
/// so large free blocks are a transient resource that compaction creates
/// and neighbours consume. Without this pressure any asynchronous
/// coalescing policy converges to perfect alignment given enough time,
/// which real systems never get. Each step the tenant breaks the largest
/// free runs with short-lived single-frame allocations and releases the
/// expired ones.
#[derive(Debug)]
pub struct TenantChurn {
    /// (frame, allocation time), oldest first.
    held: std::collections::VecDeque<(u64, gemini_sim_core::Cycles)>,
    rng: DetRng,
    /// Frames taken over the tenant's lifetime (stats).
    pub breaks_total: u64,
}

impl TenantChurn {
    /// Creates a tenant with its own random stream.
    pub fn new(rng: DetRng) -> Self {
        Self {
            held: std::collections::VecDeque::new(),
            rng,
            breaks_total: 0,
        }
    }

    /// One churn step: release intrusions older than `hold`, then split
    /// up to `breaks` of the largest free runs with one-frame
    /// allocations. Returns frames taken this step.
    pub fn step(
        &mut self,
        buddy: &mut BuddyAllocator,
        now: gemini_sim_core::Cycles,
        breaks: usize,
        hold: gemini_sim_core::Cycles,
    ) -> u64 {
        while let Some(&(frame, t)) = self.held.front() {
            if now.saturating_sub(t) < hold {
                break;
            }
            self.held.pop_front();
            buddy.free(frame, 0).expect("tenant owned this frame");
        }
        let mut taken = 0;
        for _ in 0..breaks {
            // Break a random run big enough to matter for order-9
            // contiguity (not always the largest: compaction gets a
            // fighting chance to finish assembling blocks). Candidate
            // count and the address-ordered n-th pick both come off the
            // allocator's run index — no Vec materialisation.
            let min_len = gemini_sim_core::PAGES_PER_HUGE_PAGE / 2;
            let count = buddy.count_runs_at_least(min_len);
            if count == 0 {
                break;
            }
            let (start, len) = buddy
                .nth_run_at_least(min_len, self.rng.below(count))
                .expect("count bounds the pick index");
            let frame = start + len / 4 + self.rng.below(len / 2);
            if buddy.alloc_at(frame, 0).is_ok() {
                self.held.push_back((frame, now));
                taken += 1;
                self.breaks_total += 1;
            }
        }
        taken
    }

    /// Frames currently held by the tenant.
    pub fn held(&self) -> usize {
        self.held.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragmenter_raises_fmfi() {
        let mut b = BuddyAllocator::new(16384);
        assert_eq!(b.fragmentation_index(HUGE_PAGE_ORDER), 0.0);
        let mut rng = DetRng::new(1);
        let pins = fragment_to(&mut b, 0.9, 0.1, &mut rng);
        assert!(!pins.is_empty());
        let idx = b.fragmentation_index(HUGE_PAGE_ORDER);
        assert!(idx > 0.9, "fmfi {idx}");
        // No order-9 block survives.
        assert_eq!(b.free_blocks_of_order(HUGE_PAGE_ORDER), 0);
        b.check_invariants().unwrap();
    }

    #[test]
    fn fragmenter_holds_requested_fraction() {
        let mut b = BuddyAllocator::new(16384);
        let mut rng = DetRng::new(2);
        let pins = fragment_to(&mut b, 0.5, 0.25, &mut rng);
        assert!(pins.len() as u64 >= 16384 / 4);
        assert_eq!(b.used_frames(), pins.len() as u64);
    }

    #[test]
    fn zero_target_is_a_no_op() {
        let mut b = BuddyAllocator::new(1024);
        let mut rng = DetRng::new(3);
        let pins = fragment_to(&mut b, 0.0, 0.5, &mut rng);
        assert!(pins.is_empty());
        assert_eq!(b.free_frames(), 1024);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut b1 = BuddyAllocator::new(8192);
        let mut b2 = BuddyAllocator::new(8192);
        let p1 = fragment_to(&mut b1, 0.8, 0.1, &mut DetRng::new(7));
        let p2 = fragment_to(&mut b2, 0.8, 0.1, &mut DetRng::new(7));
        assert_eq!(p1, p2);
        assert_eq!(b1.free_runs(), b2.free_runs());
    }

    #[test]
    fn tenant_churn_breaks_large_runs_and_releases() {
        use gemini_sim_core::Cycles;
        let mut b = BuddyAllocator::new(4096);
        let mut t = TenantChurn::new(DetRng::new(4));
        let taken = t.step(&mut b, Cycles(0), 3, Cycles(100));
        assert_eq!(taken, 3);
        assert_eq!(t.held(), 3);
        assert!(b.largest_free_run() < 4096);
        // After the hold expires, intrusions come back.
        t.step(&mut b, Cycles(200), 0, Cycles(100));
        assert_eq!(t.held(), 0);
        assert_eq!(b.free_frames(), 4096);
        b.check_invariants().unwrap();
    }

    #[test]
    fn tenant_skips_small_runs() {
        use gemini_sim_core::Cycles;
        let mut b = BuddyAllocator::new(128); // Largest run < 256.
        let mut t = TenantChurn::new(DetRng::new(5));
        assert_eq!(t.step(&mut b, Cycles(0), 4, Cycles(100)), 0);
        assert_eq!(t.held(), 0);
    }

    #[test]
    fn pins_can_be_released_to_heal_memory() {
        let mut b = BuddyAllocator::new(4096);
        let mut rng = DetRng::new(9);
        let pins = fragment_to(&mut b, 0.9, 0.05, &mut rng);
        for f in pins {
            b.free(f, 0).unwrap();
        }
        assert_eq!(b.free_frames(), 4096);
        assert_eq!(b.free_runs(), vec![(0, 4096)]);
    }
}
