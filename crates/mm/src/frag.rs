//! Memory fragmenter.
//!
//! The paper evaluates every system with and without fragmented memory,
//! preparing the fragmented case with a tool that drives the free-memory
//! fragmentation index (FMFI) up (§6.1). This module's fragmenter leaves
//! one fixed kind of layout: one frame pinned at a random position in
//! every huge region, so that no order-9 block survives, plus random
//! extra pins up to a held fraction of memory. It does not search for an
//! FMFI value: any positive target yields that layout, whose order-9
//! FMFI is close to 1. [`fragment_to`] states the procedure that defines
//! the layout and how it is built in time proportional to the pins; the
//! test module keeps that procedure as the oracle.

use gemini_buddy::BuddyAllocator;
use gemini_sim_core::{DetRng, FxHashMap, PAGES_PER_HUGE_PAGE};

/// Fragments the fully free `buddy`: pins one random frame in every
/// huge region, so no order-9 block survives, and random extra frames
/// until `hold_fraction` of total memory is held (as other tenants and
/// long-lived kernel objects would). Everything else is left free.
///
/// `target_fmfi` only switches the fragmenter on: a target `<= 0`
/// leaves `buddy` untouched and returns no pins, and every positive
/// target gives the same layout.
///
/// Returns the pinned frames, sorted, so the caller can later release
/// them if the scenario requires. Deterministic for a given `rng` state;
/// the state `rng` is left in is unspecified, so callers pass a stream
/// of its own.
///
/// The layout equals this procedure: grab every frame with repeated
/// `alloc(0)`, group the frames by huge region (keeping grab order), pin
/// the frame at a uniform position of each region, Fisher–Yates-shuffle
/// the released rest, pin frames off its end up to the hold fraction and
/// free the others. It is built without that work: each region's pin is
/// drawn with the same call, the released sequence is computed by region
/// arithmetic instead of stored, and only the shuffle steps that settle
/// the popped positions run — the skipped steps only permute frames that
/// are freed anyway. The allocator is then built from the sorted pins
/// in one pass ([`BuddyAllocator::pin_sorted`]), in O(regions + pins +
/// runs) overall.
///
/// # Panics
///
/// Panics if `buddy` is not fully free.
pub fn fragment_to(
    buddy: &mut BuddyAllocator,
    target_fmfi: f64,
    hold_fraction: f64,
    rng: &mut DetRng,
) -> Vec<u64> {
    let total = buddy.total_frames();
    assert_eq!(
        buddy.free_frames(),
        total,
        "fragment_to needs a fully free allocator"
    );
    if target_fmfi <= 0.0 {
        return Vec::new();
    }
    let want_hold = ((total as f64) * hold_fraction) as u64;
    let regions = total.div_ceil(PAGES_PER_HUGE_PAGE);
    let region_len = |r: u64| PAGES_PER_HUGE_PAGE.min(total - r * PAGES_PER_HUGE_PAGE);
    // One pin per region, at a uniform position of its grab order.
    let keep: Vec<u64> = (0..regions).map(|r| rng.below(region_len(r))).collect();
    let mut pins: Vec<u64> = keep
        .iter()
        .zip(0..)
        .map(|(&k, r)| grab_order_frame(r, region_len(r), k))
        .collect();
    // The released sequence: every region's frames in grab order, minus
    // its pin — `PAGES_PER_HUGE_PAGE - 1` per region (the last may hold
    // fewer).
    let released_len = total - regions;
    let released_at = |i: u64| {
        let r = i / (PAGES_PER_HUGE_PAGE - 1);
        let pos = i % (PAGES_PER_HUGE_PAGE - 1);
        grab_order_frame(r, region_len(r), pos + u64::from(pos >= keep[r as usize]))
    };
    // Fisher–Yates step `i` swaps position `i` with a uniform `j <= i`
    // and never touches `i` again, so the steps from the top settle the
    // tail that the extra pins are popped from, one step per pin.
    // `moved` holds the positions whose frame a step has replaced.
    let extra = want_hold.saturating_sub(regions).min(released_len);
    let mut moved: FxHashMap<u64, u64> =
        FxHashMap::with_capacity_and_hasher(extra as usize, Default::default());
    for i in (released_len - extra..released_len).rev() {
        let j = if i == 0 { 0 } else { rng.below(i + 1) };
        let at_i = moved.remove(&i).unwrap_or_else(|| released_at(i));
        let at_j = if j == i {
            at_i
        } else {
            moved.insert(j, at_i).unwrap_or_else(|| released_at(j))
        };
        pins.push(at_j);
    }
    pins.sort_unstable();
    buddy
        .pin_sorted(&pins)
        .expect("pins are distinct in-range frames of a fully free allocator");
    pins
}

/// The frame at position `pos` of huge region `region` (holding `len`
/// frames) in the order repeated `alloc(0)` calls take a fully free
/// allocator's frames: smallest block first, each block ascending. A
/// whole region is one block; the last region of a range that is not a
/// multiple of the region size holds one block per set bit of `len`,
/// largest at the lowest address.
fn grab_order_frame(region: u64, len: u64, mut pos: u64) -> u64 {
    let mut sizes = len;
    loop {
        let size = sizes & sizes.wrapping_neg();
        if pos < size {
            // The larger blocks lie below this one.
            return region * PAGES_PER_HUGE_PAGE + (len & !(2 * size - 1)) + pos;
        }
        pos -= size;
        sizes &= sizes - 1;
    }
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
    use gemini_sim_core::HUGE_PAGE_ORDER;

    /// The fragmenter's defining procedure, with public calls only: the
    /// oracle [`fragment_to`]'s construction must reproduce exactly.
    /// Returns the fragmented allocator and its sorted pins.
    fn fragment_by_procedure(
        total: u64,
        hold_fraction: f64,
        rng: &mut DetRng,
    ) -> (BuddyAllocator, Vec<u64>) {
        let mut b = BuddyAllocator::new(total);
        let mut grabbed = Vec::new();
        while let Ok(f) = b.alloc(0) {
            grabbed.push(f);
        }
        // Stable: frames keep their grab order within a region.
        grabbed.sort_by_key(|&f| f >> HUGE_PAGE_ORDER);
        let mut pinned = Vec::new();
        let mut released = Vec::new();
        let mut rest = grabbed.as_slice();
        while let Some(&first) = rest.first() {
            let n = rest.partition_point(|&f| f >> HUGE_PAGE_ORDER == first >> HUGE_PAGE_ORDER);
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
        rng.shuffle(&mut released);
        let want_hold = ((total as f64) * hold_fraction) as u64;
        while (pinned.len() as u64) < want_hold {
            match released.pop() {
                Some(f) => pinned.push(f),
                None => break,
            }
        }
        for &f in &released {
            b.free(f, 0).unwrap();
        }
        pinned.sort_unstable();
        (b, pinned)
    }

    #[test]
    fn construction_matches_the_defining_procedure() {
        let sizes = [300, 1_000, 4_097, 16_384 + 300, 1 << 16];
        for total in sizes {
            for hold in [0.0, 0.05, 0.12, 0.3, 1.0] {
                for seed in [1, 7, 0xF4A6] {
                    let (want, want_pins) =
                        fragment_by_procedure(total, hold, &mut DetRng::new(seed));
                    let mut got = BuddyAllocator::new(total);
                    got.take_work_counters();
                    let pins = fragment_to(&mut got, 0.9, hold, &mut DetRng::new(seed));
                    let case = format!("{total} frames, hold {hold}, seed {seed}");
                    assert_eq!(pins, want_pins, "{case}");
                    assert_eq!(got.free_runs(), want.free_runs(), "{case}");
                    assert_eq!(got.free_area_counts(), want.free_area_counts(), "{case}");
                    assert_eq!(got.free_frames(), want.free_frames(), "{case}");
                    got.check_invariants().unwrap();
                    // One run-index update per free run, no probes.
                    let runs = got.free_runs().len() as u64;
                    assert_eq!(got.take_work_counters(), (0, runs), "{case}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "fragment_to needs a fully free allocator")]
    fn partly_allocated_allocator_is_refused() {
        let mut b = BuddyAllocator::new(4096);
        b.alloc(0).unwrap();
        fragment_to(&mut b, 0.9, 0.1, &mut DetRng::new(1));
    }

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
