//! A binary buddy page-frame allocator modeled on Linux's `page_alloc`.
//!
//! Free memory is grouped into order-*x* free lists, where an order-*x*
//! block holds 2^x contiguous, 2^x-aligned base frames. Allocation splits
//! larger blocks; freeing eagerly merges buddies back together, so a fully
//! free, naturally aligned 2^x range is always represented by a single block
//! of order ≥ x — an invariant this crate's targeted allocation relies on
//! and the property tests check.
//!
//! Beyond the classic interface, the allocator supports what Gemini's
//! mechanisms need:
//!
//! - [`BuddyAllocator::alloc_at`] — targeted allocation of a specific
//!   aligned block, used by the enhanced memory allocator (EMA) to place a
//!   page at `GVA - GuestOffset`, and by huge booking to reserve the region
//!   under a mis-aligned huge page;
//! - a persistent **free-run index** — the maximal free contiguous runs,
//!   kept as two frame-indexed bitsets (first and last frame of every
//!   run) plus a run-length histogram, updated in O(1) bit flips by every
//!   alloc/free. Placement queries
//!   ([`BuddyAllocator::first_run_fitting`],
//!   [`BuddyAllocator::first_congruent_run`],
//!   [`BuddyAllocator::largest_free_run`]) walk the index run by run
//!   instead of rescanning memory, feeding the Gemini contiguity list and
//!   CA-paging's offset establishment;
//! - [`BuddyAllocator::free_sorted`] — release of a sorted frame set (a
//!   departing VM's footprint) in time proportional to the set, not to
//!   the managed range;
//! - [`BuddyAllocator::pin_sorted`] — the fragmented starting layout: a
//!   sorted set of single frames taken out of a fully free allocator,
//!   built in one pass over the gaps between them, so fragmenting a host
//!   costs time proportional to the pins, not to its size;
//! - [`BuddyAllocator::free_area_counts`] — per-order free-block counts for
//!   the fragmentation index (FMFI) that Ingens and Algorithm 1 consume;
//! - [`BuddyAllocator::check_invariants`] — the full consistency check
//!   every VM teardown ends with. Because eager merging makes the block
//!   decomposition of a free-frame set unique (the greedy aligned carve
//!   of each maximal run), a healthy allocator is certified from its run
//!   index: carve the indexed runs and compare the result with the
//!   block markers in one slice compare. A byte-by-byte scan of the
//!   markers runs only when that fails, to name the violation.
//!
//! All addresses here are *frame numbers* (base-page indices); callers
//! convert to/from [`gemini_sim_core::Gpa`]/[`gemini_sim_core::Hpa`].
//!
//! # Examples
//!
//! ```
//! use gemini_buddy::BuddyAllocator;
//! use gemini_sim_core::HUGE_PAGE_ORDER;
//!
//! let mut buddy = BuddyAllocator::new(4096);
//! // A 2 MiB huge page is an aligned order-9 block.
//! let huge = buddy.alloc(HUGE_PAGE_ORDER)?;
//! assert_eq!(huge % 512, 0);
//! // Targeted allocation: reserve the specific region a booking needs.
//! buddy.alloc_at(1024, HUGE_PAGE_ORDER)?;
//! buddy.free(huge, HUGE_PAGE_ORDER)?;
//! buddy.free(1024, HUGE_PAGE_ORDER)?;
//! assert_eq!(buddy.free_frames(), 4096);
//! # Ok::<(), gemini_sim_core::SimError>(())
//! ```

use gemini_sim_core::{
    FreeAreaCounts, FxHashMap, Hpa, SimError, HUGE_PAGE_ORDER, PAGES_PER_HUGE_PAGE,
};
use std::cell::Cell;
use std::collections::BTreeMap;

/// Largest allocatable order (inclusive): order-10 blocks are 4 MiB, the
/// Linux `MAX_ORDER` limit the paper cites when explaining why the stock
/// buddy allocator cannot hand out arbitrarily large contiguous regions.
pub const MAX_ORDER: u32 = 10;

/// Marks a frame that is not the start of a free block in
/// [`BuddyAllocator::order_of`].
const NO_BLOCK: u8 = u8::MAX;

/// Number of block orders, `0..=MAX_ORDER`.
const ORDERS: usize = MAX_ORDER as usize + 1;

/// Run lengths below this are counted in a dense array when the run
/// index is certified; a fragmented layout has almost no longer runs,
/// since one frame per huge region is pinned.
const SHORT_RUNS: usize = 2 * PAGES_PER_HUGE_PAGE as usize;

/// A binary buddy allocator over a contiguous range of page frames.
///
/// Free blocks are tracked in one flat byte array indexed by frame:
/// `order_of[f]` is the order of the free block starting at `f`, or a
/// `NO_BLOCK` sentinel. Because a block of order `o` can only start at an
/// `o`-aligned frame, "which free block contains frame `f`" is answered by
/// probing the 11 aligned predecessors of `f` — no tree walk — and the
/// buddy-merge step in [`BuddyAllocator::free`] is a single array read.
/// Address-ordered allocation keeps a per-order minimum-start hint that
/// insertions lower and scans advance, so finding the lowest free block of
/// an order amortizes to a moving cursor.
/// On top of the block storage, the allocator keeps a persistent **free-run
/// index**: the maximal runs of abutting free frames, held as run-start and
/// run-end bitsets (`RunBits`) mirrored by a size histogram
/// (`len → count`). Every `alloc`/`alloc_at`/`free` updates the index at
/// the *net-effect* level — internal block splits and buddy merges never
/// move a run boundary, so each operation is one range carve or one
/// adjacency merge: a few bit flips plus at most three histogram updates.
/// Run queries ([`BuddyAllocator::first_run_fitting`],
/// [`BuddyAllocator::first_congruent_run`],
/// [`BuddyAllocator::largest_free_run`]) read the index instead of
/// rescanning `order_of`, which turns every run-consuming policy pass from
/// O(frames) into O(runs examined).
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    /// Per-frame free-block-start marker (see type docs).
    order_of: Vec<u8>,
    /// Number of free blocks per order `0..=MAX_ORDER`.
    counts: Vec<u64>,
    /// Lower bound on the lowest start of a free block per order; never
    /// above the true minimum (insertions lower it, removals leave it).
    min_start: Vec<u64>,
    /// Total frames managed.
    total_frames: u64,
    /// Currently free frames.
    free_frames: u64,
    /// Free-run index in address order: the first and last frame of
    /// every maximal free run. The single source the run iterators and
    /// queries read.
    runs: RunBits,
    /// Free-run index, size-ordered: histogram `len → number of runs of
    /// that length`, giving O(log lens) largest-run and fit guards.
    /// Fragmented memory has many runs but few distinct lengths, so this
    /// tree stays small.
    runs_by_size: BTreeMap<u64, u64>,
    /// Work counter: runs examined by index queries since the last
    /// [`BuddyAllocator::take_work_counters`]. `Cell` because queries
    /// take `&self`; the allocator is `Send` (moved whole between
    /// worker threads), never shared across threads.
    run_probes: Cell<u64>,
    /// Work counter: indexed runs inserted, removed or resized since the
    /// last [`BuddyAllocator::take_work_counters`].
    index_updates: Cell<u64>,
}

impl BuddyAllocator {
    /// Creates an allocator managing frames `[0, num_frames)`, all free.
    pub fn new(num_frames: u64) -> Self {
        let mut alloc = Self {
            order_of: vec![NO_BLOCK; num_frames as usize],
            counts: vec![0; (MAX_ORDER + 1) as usize],
            min_start: vec![0; (MAX_ORDER + 1) as usize],
            total_frames: num_frames,
            free_frames: num_frames,
            runs: RunBits::new(num_frames),
            runs_by_size: BTreeMap::new(),
            run_probes: Cell::new(0),
            index_updates: Cell::new(0),
        };
        for (start, order) in aligned_blocks(0, num_frames) {
            alloc.insert_free(start, order);
        }
        // The carved blocks all abut: the whole range is one free run.
        if num_frames > 0 {
            alloc.index_insert(0, num_frames);
        }
        alloc
    }

    /// Total number of frames managed.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// Number of currently free frames.
    pub fn free_frames(&self) -> u64 {
        self.free_frames
    }

    /// Number of currently allocated frames.
    pub fn used_frames(&self) -> u64 {
        self.total_frames - self.free_frames
    }

    /// Allocates a block of `order`, returning its start frame.
    ///
    /// Splits the smallest sufficient block at the lowest address, like
    /// Linux's allocator under the "address-ordered" heuristic.
    pub fn alloc(&mut self, order: u32) -> Result<u64, SimError> {
        if order > MAX_ORDER {
            return Err(SimError::OutOfMemory { order });
        }
        let mut found = None;
        for o in order..=MAX_ORDER {
            if self.counts[o as usize] > 0 {
                found = Some((self.lowest_block_of_order(o), o));
                break;
            }
        }
        let (start, mut o) = found.ok_or(SimError::OutOfMemory { order })?;
        self.remove_free(start, o);
        // Split down, freeing the upper halves.
        while o > order {
            o -= 1;
            self.insert_free(start + (1 << o), o);
        }
        self.free_frames -= 1 << order;
        // Net effect on runs: exactly the allocated range left them.
        self.index_allocate_range(start, 1 << order);
        Ok(start)
    }

    /// Allocates the single frames `pins` — strictly ascending — out of a
    /// fully free allocator, in one pass over the gaps between them.
    ///
    /// Each gap becomes one free run: carved into aligned blocks (the
    /// unique eagerly-merged decomposition, see
    /// [`BuddyAllocator::free_sorted`]) and entered into the run index
    /// with one update. The size histogram is counted in a hash map and
    /// built once at the end, which halves the cost against one ordered
    /// map update per run. The cost is O(pins + blocks), whatever the
    /// size of the managed range — the fragmenter's construction, which
    /// pins one frame per huge region plus a small fraction of the rest.
    ///
    /// Fails with [`SimError::RangeBusy`] unless every frame is free, and
    /// with [`SimError::OutOfRange`] on a pin that is out of range or out
    /// of order; the allocator is unchanged on failure.
    pub fn pin_sorted(&mut self, pins: &[u64]) -> Result<(), SimError> {
        if self.free_frames != self.total_frames {
            return Err(SimError::RangeBusy);
        }
        let ascending = pins.windows(2).all(|w| w[0] < w[1]);
        if !ascending || pins.last().is_some_and(|&f| f >= self.total_frames) {
            return Err(SimError::OutOfRange);
        }
        // Unindex the one run and drop the blocks of the fully free
        // layout, which is the greedy carve of the whole range.
        let n = self.total_frames;
        if n > 0 {
            self.runs.clear_start(0);
            self.runs.clear_end(n - 1);
        }
        for (start, order) in aligned_blocks(0, n) {
            self.remove_free(start, order);
        }
        let mut by_len: FxHashMap<u64, u64> = FxHashMap::default();
        let mut gap_start = 0;
        for &end in pins.iter().chain(std::iter::once(&n)) {
            if end > gap_start {
                for (start, order) in aligned_blocks(gap_start, end) {
                    self.insert_free(start, order);
                }
                self.runs.set_start(gap_start);
                self.runs.set_end(end - 1);
                *by_len.entry(end - gap_start).or_insert(0) += 1;
            }
            gap_start = end + 1;
        }
        self.count_index_updates(by_len.values().sum());
        self.runs_by_size = by_len.into_iter().collect();
        self.free_frames -= pins.len() as u64;
        Ok(())
    }

    /// Frees `frames` — allocated single frames in strictly ascending
    /// order — through the live index, in time proportional to
    /// `frames.len()` rather than to the managed range.
    ///
    /// Each maximal stretch of consecutive frames is released as one
    /// range: carved into aligned blocks that merge with their buddies
    /// exactly as [`BuddyAllocator::free`] merges, then one index update.
    /// The end state equals freeing the same frames one at a time, in
    /// any order: eager merging makes the block decomposition of a
    /// free-frame set unique (two same-order free buddies never coexist,
    /// which forces every free frame into the largest aligned block that
    /// is entirely free). Fails with [`SimError::BadFree`] on a frame
    /// that is already free, out of range, or out of order; stretches
    /// before the failing one stay freed.
    pub fn free_sorted(&mut self, frames: &[u64]) -> Result<(), SimError> {
        let mut rest = frames;
        while let Some(&start) = rest.first() {
            let len = rest
                .iter()
                .zip(start..)
                .take_while(|&(&f, want)| f == want)
                .count();
            rest = &rest[len..];
            if let Some(&next) = rest.first().filter(|&&f| f < start + len as u64) {
                return Err(bad_free(next));
            }
            self.free_range(start, len as u64)?;
        }
        Ok(())
    }

    /// Allocates the specific block `[start, start + 2^order)`.
    ///
    /// Fails with [`SimError::Unaligned`] if `start` is not order-aligned,
    /// [`SimError::OutOfRange`] if the block exceeds the managed range, and
    /// [`SimError::RangeBusy`] if any frame in the block is allocated.
    pub fn alloc_at(&mut self, start: u64, order: u32) -> Result<(), SimError> {
        if order > MAX_ORDER {
            return Err(SimError::OutOfRange);
        }
        if start & ((1 << order) - 1) != 0 {
            return Err(SimError::Unaligned);
        }
        if start + (1 << order) > self.total_frames {
            return Err(SimError::OutOfRange);
        }
        // Eager merging guarantees a fully free aligned range lives inside
        // a single free block of order >= `order`.
        let (block_start, block_order) = self
            .containing_free_block(start)
            .ok_or(SimError::RangeBusy)?;
        if block_start + (1 << block_order) < start + (1 << order) {
            return Err(SimError::RangeBusy);
        }
        self.remove_free(block_start, block_order);
        // Descend toward the target, freeing the sibling half each split.
        let (mut cur_start, mut cur_order) = (block_start, block_order);
        while cur_order > order {
            cur_order -= 1;
            let half = 1u64 << cur_order;
            if start >= cur_start + half {
                self.insert_free(cur_start, cur_order);
                cur_start += half;
            } else {
                self.insert_free(cur_start + half, cur_order);
            }
        }
        debug_assert_eq!(cur_start, start);
        self.free_frames -= 1 << order;
        self.index_allocate_range(start, 1 << order);
        Ok(())
    }

    /// Frees the block `[start, start + 2^order)`, merging buddies eagerly.
    ///
    /// Fails with [`SimError::BadFree`] when any frame of the block is
    /// already free (double free) or out of range.
    pub fn free(&mut self, start: u64, order: u32) -> Result<(), SimError> {
        if order > MAX_ORDER || start & ((1 << order) - 1) != 0 {
            return Err(bad_free(start));
        }
        self.free_range(start, 1 << order)
    }

    /// Frees the allocated range `[start, start + len)`: carves it into
    /// aligned blocks, merges each with its free buddies, and joins the
    /// range to the free runs in one index update. Buddy merging happens
    /// strictly inside already-free ground, so the net effect on runs is
    /// just the range joining them.
    fn free_range(&mut self, start: u64, len: u64) -> Result<(), SimError> {
        if start + len > self.total_frames || self.range_overlaps_free(start, len) {
            return Err(bad_free(start));
        }
        for (block, order) in aligned_blocks(start, start + len) {
            self.merge_free(block, order);
        }
        self.free_frames += len;
        self.index_free_range(start, len);
        Ok(())
    }

    /// Inserts the free block `(start, order)`, first merging it with its
    /// free buddy at each order for as long as one exists.
    fn merge_free(&mut self, start: u64, order: u32) {
        let (mut cur, mut o) = (start, order);
        while o < MAX_ORDER {
            let buddy = cur ^ (1 << o);
            if buddy + (1 << o) <= self.total_frames && self.order_of[buddy as usize] == o as u8 {
                self.order_of[buddy as usize] = NO_BLOCK;
                self.counts[o as usize] -= 1;
                cur = cur.min(buddy);
                o += 1;
            } else {
                break;
            }
        }
        self.insert_free(cur, o);
    }

    /// Returns true when every frame of `[start, start + len)` is free.
    pub fn is_range_free(&self, start: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        if start + len > self.total_frames {
            return false;
        }
        let mut cursor = start;
        // Walk free blocks covering the range.
        while cursor < start + len {
            match self.containing_free_block(cursor) {
                Some((bs, bo)) => cursor = bs + (1 << bo),
                None => return false,
            }
        }
        true
    }

    /// Returns true when frame `frame` is free.
    pub fn is_frame_free(&self, frame: u64) -> bool {
        self.containing_free_block(frame).is_some()
    }

    /// Per-order free block counts, for FMFI computation.
    pub fn free_area_counts(&self) -> FreeAreaCounts {
        FreeAreaCounts::new(&self.counts)
    }

    /// Current fragmentation index at `order` (see [`gemini_sim_core::fmfi`]).
    pub fn fragmentation_index(&self, order: u32) -> f64 {
        gemini_sim_core::fragmentation_index(&self.free_area_counts(), order)
    }

    /// Enumerates maximal runs of free frames as `(start, len)` pairs in
    /// address order, merging adjacent free blocks that are not buddies.
    ///
    /// **Test-only convenience**: materialises the whole index into a
    /// `Vec` for assertions. Production consumers use the lazy
    /// [`BuddyAllocator::free_runs_iter`]/[`BuddyAllocator::free_runs_from`]
    /// or the indexed queries ([`BuddyAllocator::first_run_fitting`],
    /// [`BuddyAllocator::first_congruent_run`]), which touch only the
    /// runs they answer with.
    pub fn free_runs(&self) -> Vec<(u64, u64)> {
        self.free_runs_iter().collect()
    }

    /// Lazy iterator over the maximal free runs in address order, read
    /// straight from the persistent run index — no `order_of` scan, no
    /// `Vec`, so searches that stop at the first fit (next-fit placement)
    /// touch only the runs they examine.
    pub fn free_runs_iter(&self) -> FreeRuns<'_> {
        self.free_runs_from(0)
    }

    /// Like [`BuddyAllocator::free_runs_iter`], but yields only the maximal
    /// runs whose *start* is `>= frame` — exactly the suffix a next-fit
    /// cursor scan wants. A run that merely straddles `frame` (it began
    /// below it) is excluded, matching
    /// `free_runs().filter(|r| r.0 >= frame)`.
    pub fn free_runs_from(&self, frame: u64) -> FreeRuns<'_> {
        self.runs.runs_from(frame)
    }

    /// Re-derives the maximal free runs by scanning `order_of` from
    /// scratch, in O(frames managed): the reference the property tests
    /// hold the incremental index to.
    pub fn free_runs_rescan(&self) -> Vec<(u64, u64)> {
        let n = self.total_frames;
        let mut runs = Vec::new();
        let mut pos = 0u64;
        while pos < n {
            if self.order_of[pos as usize] == NO_BLOCK {
                pos += 1;
                continue;
            }
            // Accumulate the chain of abutting free blocks.
            let start = pos;
            while pos < n && self.order_of[pos as usize] != NO_BLOCK {
                pos += 1u64 << self.order_of[pos as usize];
            }
            runs.push((start, pos - start));
        }
        runs
    }

    /// Length of the largest maximal free run, in frames. O(log lens)
    /// off the size-ordered index.
    pub fn largest_free_run(&self) -> u64 {
        self.runs_by_size
            .last_key_value()
            .map(|(&len, _)| len)
            .unwrap_or(0)
    }

    /// First free run with start `>= cursor` holding at least `len`
    /// frames, as `(start, len)`. Next-fit leg of a cursor scan;
    /// rejects in O(log lens) when no run anywhere is long enough.
    pub fn first_run_fitting(&self, cursor: u64, len: u64) -> Option<(u64, u64)> {
        if self.largest_free_run() < len {
            return None;
        }
        for (start, rlen) in self.free_runs_from(cursor) {
            self.run_probes.set(self.run_probes.get() + 1);
            if rlen >= len {
                return Some((start, rlen));
            }
        }
        None
    }

    /// First free run with start `>= cursor` that can place `len` frames
    /// at a position congruent to `in0` modulo the huge page size: the
    /// run `(start, rlen)` fits iff
    /// `congruent_start(start, in0) + len <= start + rlen`.
    ///
    /// This is the core query of contiguity-aware placement (CA-paging's
    /// `establish_offset`, Gemini's contiguity list). Two fast
    /// rejections make the fragmented case cheap: no run is `len`
    /// long, or — when the anchor is region-aligned and a whole region
    /// is needed — no free block of huge-page order exists (by eager
    /// merging, a congruent fit of `>= 512` aligned frames *is* such a
    /// block).
    pub fn first_congruent_run(&self, cursor: u64, in0: u64, len: u64) -> Option<(u64, u64)> {
        if !self.congruent_fit_possible(in0, len) {
            return None;
        }
        for (start, rlen) in self.free_runs_from(cursor) {
            self.run_probes.set(self.run_probes.get() + 1);
            if congruent_start(start, in0) + len <= start + rlen {
                return Some((start, rlen));
            }
        }
        None
    }

    /// Wrap-around leg of [`BuddyAllocator::first_congruent_run`]: the
    /// first fitting run whose start is strictly `< below`, scanning from
    /// address zero. After the at-cursor leg missed, any remaining fit
    /// necessarily starts before the cursor, so the two legs together
    /// cover the full wrapped next-fit order.
    pub fn first_congruent_run_below(&self, below: u64, in0: u64, len: u64) -> Option<(u64, u64)> {
        if !self.congruent_fit_possible(in0, len) {
            return None;
        }
        for (start, rlen) in self
            .free_runs_iter()
            .take_while(|&(start, _)| start < below)
        {
            self.run_probes.set(self.run_probes.get() + 1);
            if congruent_start(start, in0) + len <= start + rlen {
                return Some((start, rlen));
            }
        }
        None
    }

    /// Number of free runs holding at least `min_len` frames. O(answers)
    /// off the size-ordered index.
    pub fn count_runs_at_least(&self, min_len: u64) -> u64 {
        self.runs_by_size.range(min_len..).map(|(_, &c)| c).sum()
    }

    /// The `n`-th (0-based) free run in *address order* among those
    /// holding at least `min_len` frames — the indexed replacement for
    /// collecting a filtered `Vec` and subscripting it.
    pub fn nth_run_at_least(&self, min_len: u64, n: u64) -> Option<(u64, u64)> {
        let mut seen = 0u64;
        for (start, rlen) in self.free_runs_iter() {
            self.run_probes.set(self.run_probes.get() + 1);
            if rlen >= min_len {
                if seen == n {
                    return Some((start, rlen));
                }
                seen += 1;
            }
        }
        None
    }

    /// Drains the deterministic work counters accumulated since the last
    /// call, as `(run_probes, index_updates)`. The engine feeds these
    /// into the obs registry after each fault/daemon step.
    pub fn take_work_counters(&self) -> (u64, u64) {
        (self.run_probes.take(), self.index_updates.take())
    }

    /// Runs examined by index queries since the last counter drain.
    pub fn run_probes(&self) -> u64 {
        self.run_probes.get()
    }

    /// Indexed runs inserted, removed or resized since the last counter
    /// drain.
    pub fn index_updates(&self) -> u64 {
        self.index_updates.get()
    }

    /// True when some run could place `len` congruent-to-`in0` frames;
    /// see [`BuddyAllocator::first_congruent_run`] for the reasoning.
    fn congruent_fit_possible(&self, in0: u64, len: u64) -> bool {
        if self.largest_free_run() < len {
            return false;
        }
        // A region-aligned anchor needing a whole region places it on a
        // 512-aligned, fully free range — by eager merging, an order-9
        // free block. No such block, no fit, O(orders) to know.
        if in0 % PAGES_PER_HUGE_PAGE == 0
            && len >= PAGES_PER_HUGE_PAGE
            && !self.has_suitable_block(HUGE_PAGE_ORDER)
        {
            return false;
        }
        true
    }

    /// True when any free block of order `>= order` exists — an O(orders)
    /// check with no allocation. By eager merging this is equivalent to
    /// "some naturally aligned, fully free `2^order` range exists", which
    /// lets callers reject whole-region searches before walking runs.
    pub fn has_suitable_block(&self, order: u32) -> bool {
        self.counts[order.min(MAX_ORDER) as usize..]
            .iter()
            .any(|&c| c > 0)
    }

    /// Count of free blocks of exactly `order`.
    pub fn free_blocks_of_order(&self, order: u32) -> usize {
        self.counts
            .get(order as usize)
            .map(|&c| c as usize)
            .unwrap_or(0)
    }

    /// The free block containing `frame`, if any, as `(start, order)`.
    ///
    /// A block of order `o` can only start at the `2^o`-aligned frame at or
    /// below `frame`, so eleven probes cover every possibility.
    fn containing_free_block(&self, frame: u64) -> Option<(u64, u32)> {
        if frame >= self.total_frames {
            return None;
        }
        for o in 0..=MAX_ORDER {
            let start = frame & !((1u64 << o) - 1);
            if self.order_of[start as usize] == o as u8 {
                return Some((start, o));
            }
        }
        None
    }

    /// The lowest start frame among free blocks of exactly `order`.
    ///
    /// Callers must ensure `counts[order] > 0`. Starts the scan at the
    /// order's min-start hint and advances it past exhausted ground.
    fn lowest_block_of_order(&mut self, order: u32) -> u64 {
        debug_assert!(self.counts[order as usize] > 0);
        let step = 1u64 << order;
        let mut s = self.min_start[order as usize];
        while self.order_of[s as usize] != order as u8 {
            s += step;
        }
        self.min_start[order as usize] = s;
        s
    }

    /// True when `[start, start+len)` intersects any free block. A block
    /// intersecting the range either contains `start` or begins inside
    /// the range, so the cost is eleven probes plus `len` byte reads.
    fn range_overlaps_free(&self, start: u64, len: u64) -> bool {
        if self.containing_free_block(start).is_some() {
            return true;
        }
        self.order_of[start as usize + 1..(start + len) as usize]
            .iter()
            .any(|&o| o != NO_BLOCK)
    }

    fn insert_free(&mut self, start: u64, order: u32) {
        self.order_of[start as usize] = order as u8;
        self.counts[order as usize] += 1;
        if start < self.min_start[order as usize] {
            self.min_start[order as usize] = start;
        }
    }

    fn remove_free(&mut self, start: u64, order: u32) {
        debug_assert_eq!(self.order_of[start as usize], order as u8);
        self.order_of[start as usize] = NO_BLOCK;
        self.counts[order as usize] -= 1;
    }

    /// Adds run `(start, len)` to the index.
    fn index_insert(&mut self, start: u64, len: u64) {
        self.count_index_updates(1);
        self.runs.set_start(start);
        self.runs.set_end(start + len - 1);
        self.size_inc(len);
    }

    /// Adds `n` to the index-update work counter.
    fn count_index_updates(&self, n: u64) {
        self.index_updates.set(self.index_updates.get() + n);
    }

    /// Counts one more run of length `len` in the size histogram.
    fn size_inc(&mut self, len: u64) {
        *self.runs_by_size.entry(len).or_insert(0) += 1;
    }

    /// Counts one fewer run of length `len` in the size histogram.
    fn size_dec(&mut self, len: u64) {
        match self.runs_by_size.get_mut(&len) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                self.runs_by_size.remove(&len);
            }
            None => debug_assert!(false, "size histogram missing length {len}"),
        }
    }

    /// Index update for an allocation: carve `[start, start + len)` out of
    /// the run containing it, leaving up to two remainder runs. The range
    /// was fully free, so exactly one indexed run covers it: the last run
    /// start at or before `start` and the first run end at or after the
    /// range's last frame bound it. A remainder keeps the run's outer
    /// boundary bit and gains one new bit at the carve; counted as one
    /// run removed or resized plus one inserted when a right remainder
    /// exists.
    fn index_allocate_range(&mut self, start: u64, len: u64) {
        let last = start + len - 1;
        let run_start = self
            .runs
            .start_at_or_before(start)
            .expect("allocated range must lie inside an indexed run");
        let run_last = self
            .runs
            .end_at_or_after(last)
            .expect("allocated range must lie inside an indexed run");
        self.size_dec(run_last + 1 - run_start);
        if run_start < start {
            self.runs.set_end(start - 1);
            self.size_inc(start - run_start);
        } else {
            self.runs.clear_start(start);
        }
        if run_last > last {
            self.runs.set_start(last + 1);
            self.size_inc(run_last - last);
        } else {
            self.runs.clear_end(last);
        }
        self.count_index_updates(1 + u64::from(run_last > last));
    }

    /// Index update for a free: the range `[start, start + len)` joins the
    /// free runs, merging with the run ending exactly at `start - 1`
    /// and/or the run starting exactly at `start + len`. (A neighbouring
    /// free frame always terminates its run exactly at the boundary,
    /// because the range itself was allocated ground.) A merged
    /// neighbour loses its inner boundary bit; an unmatched side gains
    /// one. Counted as one run inserted or grown, plus one removed when
    /// a right neighbour is absorbed.
    fn index_free_range(&mut self, start: u64, len: u64) {
        let last = start + len - 1;
        let mut run_start = start;
        if start > 0 && self.runs.is_end(start - 1) {
            run_start = self
                .runs
                .start_at_or_before(start - 1)
                .expect("a run end has a run start");
            self.runs.clear_end(start - 1);
            self.size_dec(start - run_start);
        } else {
            self.runs.set_start(start);
        }
        let mut run_last = last;
        let right = last + 1 < self.total_frames && self.runs.is_start(last + 1);
        if right {
            run_last = self
                .runs
                .end_at_or_after(last + 1)
                .expect("a run start has a run end");
            self.runs.clear_start(last + 1);
            self.size_dec(run_last - last);
        } else {
            self.runs.set_end(last);
        }
        self.size_inc(run_last + 1 - run_start);
        self.count_index_updates(1 + u64::from(right));
    }

    /// Verifies every internal invariant: that blocks are in range,
    /// aligned, disjoint and merged with their buddies; that the
    /// per-order counts, min-start hints and free-frame count match the
    /// blocks; and that the run index — both bitsets, their summary and
    /// the size histogram — equals the maximal runs the blocks form.
    /// Each violation is reported by its own [`SimError::Invariant`].
    ///
    /// Not only for tests: it runs after every leak-checked VM teardown
    /// (`Machine::remove_vm`). A healthy allocator is certified from its
    /// run index (`certify`): eager merging makes the block
    /// decomposition of a free-frame set unique — the greedy carve of
    /// each maximal run into aligned blocks — so `order_of` must equal
    /// the carve of the indexed runs, which one slice compare settles.
    /// The cost is one step per run and per block plus a byte compare
    /// per frame. Only when that certificate fails does the one-pass
    /// scan over `order_of` run, to name the violation; it accepts
    /// exactly the states the certifier accepts.
    pub fn check_invariants(&self) -> Result<(), SimError> {
        if self.certify() {
            return Ok(());
        }
        self.scan_invariants()
    }

    /// True when the allocator is healthy, decided from the run index.
    ///
    /// Walks the run-start and run-end bitsets in address order, word by
    /// word rather than through the summary levels, which are under
    /// check themselves. It pairs the k-th start with the k-th end and
    /// requires the runs in range, disjoint and separated by at least
    /// one allocated frame (so each is maximal). Each run is carved into
    /// its greedy aligned blocks ([`aligned_blocks`]), written into a
    /// marker image, and counted per order, per lowest start, in frames
    /// and by length. The carved blocks are in range, aligned and
    /// disjoint by construction, and merged because a run is maximal:
    /// two free same-order buddies form an aligned block the greedy
    /// carve would have taken whole. So `order_of` equal to the image
    /// means the blocks satisfy every block invariant and form exactly
    /// the indexed runs; the counts, hints, free-frame total, histogram
    /// and summary levels are then held against the same walk.
    /// Conversely, a state [`Self::scan_invariants`] accepts has the
    /// carve as its unique decomposition, so the two accept the same
    /// states.
    fn certify(&self) -> bool {
        let mut image = vec![NO_BLOCK; self.total_frames as usize];
        let mut per_order = [0u64; ORDERS];
        let mut lowest = [u64::MAX; ORDERS];
        let mut counted = 0u64;
        let mut runs = 0u64;
        // Runs per length: dense below `SHORT_RUNS`, listed above it.
        // (A map here would share the histogram's `BTreeMap` entry code
        // and change how it is inlined into every alloc and free.)
        let mut short = [0u64; SHORT_RUNS];
        let mut long = Vec::new();
        // The lowest frame the next run may start at.
        let mut next_start = 0u64;
        for (start, last) in set_bits(&self.runs.starts).zip(set_bits(&self.runs.ends)) {
            if start < next_start || last < start || last >= self.total_frames {
                return false;
            }
            for (block, order) in aligned_blocks(start, last + 1) {
                image[block as usize] = order as u8;
                per_order[order as usize] += 1;
                lowest[order as usize] = lowest[order as usize].min(block);
            }
            let len = last + 1 - start;
            match short.get_mut(len as usize) {
                Some(count) => *count += 1,
                None => long.push(len),
            }
            counted += len;
            runs += 1;
            next_start = last + 2;
        }
        // Lengths in ascending order with their counts, as the
        // histogram lists them.
        long.sort_unstable();
        let mut long_counts: Vec<(u64, u64)> = Vec::new();
        for len in long {
            match long_counts.last_mut() {
                Some((last, count)) if *last == len => *count += 1,
                _ => long_counts.push((len, 1)),
            }
        }
        let lens = short
            .iter()
            .zip(0u64..)
            .filter(|&(&count, _)| count > 0)
            .map(|(&count, len)| (len, count))
            .chain(long_counts);
        image == self.order_of
            && per_order[..] == self.counts[..]
            && (0..ORDERS).all(|o| per_order[o] == 0 || self.min_start[o] <= lowest[o])
            && counted == self.free_frames
            && lens.eq(self.runs_by_size.iter().map(|(&len, &count)| (len, count)))
            && self.runs.consistent_with(runs)
    }

    /// Verifies every invariant in one pass over `order_of`, reporting
    /// the first violation found by its own message: the explainer
    /// [`Self::check_invariants`] falls back to when the certificate
    /// fails, and the oracle the certifier is tested against.
    fn scan_invariants(&self) -> Result<(), SimError> {
        let n = self.total_frames;
        let mut per_order = [0u64; (MAX_ORDER + 1) as usize];
        let mut lowest = [u64::MAX; (MAX_ORDER + 1) as usize];
        let mut counted = 0u64;
        // Runs per length, to hold the size histogram against.
        let mut by_len: FxHashMap<u64, u64> = FxHashMap::default();
        let mut runs = 0u64;
        // The run being accumulated: its start; it ends at `prev_end`.
        let mut open: Option<u64> = None;
        let mut prev_end = 0u64;
        let mut close_run = |start: u64, end: u64| {
            if !self.runs.is_start(start) || !self.runs.is_end(end - 1) {
                return Err(SimError::Invariant("run index out of sync with order_of"));
            }
            *by_len.entry(end - start).or_insert(0) += 1;
            runs += 1;
            Ok(())
        };
        for (f, &marker) in self.order_of.iter().enumerate() {
            if marker == NO_BLOCK {
                continue;
            }
            let (start, order) = (f as u64, marker as u32);
            if order > MAX_ORDER {
                return Err(SimError::Invariant("free block order out of range"));
            }
            if start & ((1 << order) - 1) != 0 {
                return Err(SimError::Invariant("free block misaligned"));
            }
            if start < prev_end {
                return Err(SimError::Invariant("free blocks overlap"));
            }
            // A block abutting the previous one extends its run.
            if open.is_none() || start != prev_end {
                if let Some(run_start) = open {
                    close_run(run_start, prev_end)?;
                }
                open = Some(start);
            }
            prev_end = start + (1 << order);
            if prev_end > n {
                return Err(SimError::Invariant("free block out of range"));
            }
            counted += 1 << order;
            per_order[order as usize] += 1;
            if lowest[order as usize] == u64::MAX {
                lowest[order as usize] = start;
            }
            if order < MAX_ORDER {
                let buddy = start ^ (1u64 << order);
                if buddy < n && self.order_of[buddy as usize] == order as u8 {
                    return Err(SimError::Invariant("unmerged free buddies"));
                }
            }
        }
        if let Some(run_start) = open {
            close_run(run_start, prev_end)?;
        }
        if per_order[..] != self.counts[..] {
            return Err(SimError::Invariant("per-order block counts out of sync"));
        }
        if (0..=MAX_ORDER as usize).any(|o| per_order[o] > 0 && self.min_start[o] > lowest[o]) {
            return Err(SimError::Invariant("min-start hint above true minimum"));
        }
        let listed: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(o, &c)| c << o as u64)
            .sum();
        if counted != self.free_frames || listed != self.free_frames {
            return Err(SimError::Invariant("free frame accounting mismatch"));
        }
        // Every run's two bits are set; the index matches exactly when no
        // other bit is, and the summary marks exactly the non-empty words.
        if !self.runs.consistent_with(runs) {
            return Err(SimError::Invariant("run index out of sync with order_of"));
        }
        if by_len.len() != self.runs_by_size.len()
            || self
                .runs_by_size
                .iter()
                .any(|(len, count)| by_len.get(len) != Some(count))
        {
            return Err(SimError::Invariant("size index out of sync with run map"));
        }
        Ok(())
    }
}

/// The `SimError` for a bad free at `frame`.
fn bad_free(frame: u64) -> SimError {
    SimError::BadFree(Hpa::from_frame(frame))
}

/// Maximal aligned blocks covering `[start, end)`, in address order: the
/// greedy carve behind [`BuddyAllocator::new`] and every range release.
/// On a maximal free run it yields exactly the unique eagerly-merged
/// block decomposition.
fn aligned_blocks(start: u64, end: u64) -> impl Iterator<Item = (u64, u32)> {
    let mut pos = start;
    std::iter::from_fn(move || {
        if pos >= end {
            return None;
        }
        // As aligned as `pos` allows, as large as what is left allows.
        let order = pos.trailing_zeros().min((end - pos).ilog2()).min(MAX_ORDER);
        let block = (pos, order);
        pos += 1 << order;
        Some(block)
    })
}

/// First frame `>= start` congruent to `in0` modulo the huge page size —
/// the placement anchor of contiguity-aware paging.
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

/// The free-run index: one bitset marking the first frame of every
/// maximal free run, one marking the last, and a two-level summary of
/// which bitset words are non-zero.
///
/// Runs are disjoint, so in address order the marks alternate start,
/// end, start, end (a one-frame run carries both on one frame), and the
/// k-th start pairs with the k-th end. Moving a run boundary is a bit
/// flip plus summary upkeep; finding the run around a frame is a search
/// for the nearest start before it and end after it, which the summary
/// keeps to a few word reads however much empty or fully free ground
/// lies in between (its top level is scanned linearly, one word per
/// 2^18 frames).
#[derive(Debug, Clone)]
struct RunBits {
    starts: Vec<u64>,
    ends: Vec<u64>,
    /// Bit `w` set while word `w` of `starts` or `ends` is non-zero.
    summary: Vec<u64>,
    /// Bit `s` set while `summary[s]` is non-zero.
    top: Vec<u64>,
}

/// The bitset word holding frame `f`.
fn word_of(f: u64) -> usize {
    (f / 64) as usize
}

/// Frame `f`'s bit inside its word.
fn bit_of(f: u64) -> u64 {
    1 << (f % 64)
}

/// Every set bit of `bits`, in ascending order.
fn set_bits(bits: &[u64]) -> impl Iterator<Item = u64> + '_ {
    std::iter::successors(next_one(bits, 0), |&i| next_one(bits, i + 1)).map(|i| i as u64)
}

/// The lowest set bit of `bits` at or after bit `i`.
fn next_one(bits: &[u64], i: usize) -> Option<usize> {
    let mut w = i / 64;
    let mut word = bits.get(w)? & (!0u64 << (i % 64));
    while word == 0 {
        w += 1;
        word = *bits.get(w)?;
    }
    Some(w * 64 + word.trailing_zeros() as usize)
}

/// The highest set bit of `bits` at or before bit `i`.
fn prev_one(bits: &[u64], i: usize) -> Option<usize> {
    let mut w = i / 64;
    let mut word = bits[w] & (!0u64 >> (63 - i % 64));
    while word == 0 {
        w = w.checked_sub(1)?;
        word = bits[w];
    }
    Some(w * 64 + 63 - word.leading_zeros() as usize)
}

impl RunBits {
    fn new(frames: u64) -> Self {
        let words = frames.div_ceil(64) as usize;
        let summary_words = words.div_ceil(64);
        Self {
            starts: vec![0; words],
            ends: vec![0; words],
            summary: vec![0; summary_words],
            top: vec![0; summary_words.div_ceil(64)],
        }
    }

    fn is_start(&self, f: u64) -> bool {
        self.starts[word_of(f)] & bit_of(f) != 0
    }

    fn is_end(&self, f: u64) -> bool {
        self.ends[word_of(f)] & bit_of(f) != 0
    }

    fn set_start(&mut self, f: u64) {
        self.starts[word_of(f)] |= bit_of(f);
        self.mark(word_of(f));
    }

    fn set_end(&mut self, f: u64) {
        self.ends[word_of(f)] |= bit_of(f);
        self.mark(word_of(f));
    }

    fn clear_start(&mut self, f: u64) {
        self.starts[word_of(f)] &= !bit_of(f);
        self.unmark_if_empty(word_of(f));
    }

    fn clear_end(&mut self, f: u64) {
        self.ends[word_of(f)] &= !bit_of(f);
        self.unmark_if_empty(word_of(f));
    }

    fn mark(&mut self, w: usize) {
        let s = w / 64;
        self.summary[s] |= 1 << (w % 64);
        self.top[s / 64] |= 1 << (s % 64);
    }

    fn unmark_if_empty(&mut self, w: usize) {
        if self.starts[w] | self.ends[w] == 0 {
            let s = w / 64;
            self.summary[s] &= !(1 << (w % 64));
            if self.summary[s] == 0 {
                self.top[s / 64] &= !(1 << (s % 64));
            }
        }
    }

    /// The first non-empty word after word `w`.
    #[inline]
    fn next_word(&self, w: usize) -> Option<usize> {
        let w = w + 1;
        let s = w / 64;
        let here = self.summary.get(s)? & (!0u64 << (w % 64));
        let (s, bits) = if here != 0 {
            (s, here)
        } else {
            let s = next_one(&self.top, s + 1)?;
            (s, self.summary[s])
        };
        Some(s * 64 + bits.trailing_zeros() as usize)
    }

    /// The last non-empty word before word `w`.
    fn prev_word(&self, w: usize) -> Option<usize> {
        let w = w.checked_sub(1)?;
        let s = w / 64;
        let here = self.summary[s] & (!0u64 >> (63 - w % 64));
        let (s, bits) = if here != 0 {
            (s, here)
        } else {
            let s = prev_one(&self.top, s.checked_sub(1)?)?;
            (s, self.summary[s])
        };
        Some(s * 64 + 63 - bits.leading_zeros() as usize)
    }

    /// The last run start at or before frame `f`.
    fn start_at_or_before(&self, f: u64) -> Option<u64> {
        let mut w = word_of(f);
        let mut bits = self.starts[w] & (!0u64 >> (63 - f % 64));
        while bits == 0 {
            w = self.prev_word(w)?;
            bits = self.starts[w];
        }
        Some(w as u64 * 64 + 63 - bits.leading_zeros() as u64)
    }

    /// The first mark of `bits` (the starts or the ends) at or after
    /// frame `f`.
    fn first_at_or_after(&self, bits: &[u64], f: u64) -> Option<u64> {
        let mut w = word_of(f);
        let mut word = bits.get(w)? & (!0u64 << (f % 64));
        while word == 0 {
            w = self.next_word(w)?;
            word = bits[w];
        }
        Some(w as u64 * 64 + word.trailing_zeros() as u64)
    }

    /// The first run end at or after frame `f`.
    fn end_at_or_after(&self, f: u64) -> Option<u64> {
        self.first_at_or_after(&self.ends, f)
    }

    /// A cursor over the runs whose start is at or after frame `f`.
    fn runs_from(&self, f: u64) -> FreeRuns<'_> {
        let mut cursor = FreeRuns {
            runs: self,
            word: self.starts.len(),
            starts: 0,
            ends: 0,
        };
        if let Some(start) = self.first_at_or_after(&self.starts, f) {
            // Marks below the first start belong to runs that began
            // before `f`.
            let keep = !0u64 << (start % 64);
            cursor.word = word_of(start);
            cursor.starts = self.starts[cursor.word] & keep;
            cursor.ends = self.ends[cursor.word] & keep;
        }
        cursor
    }

    /// True when the bitsets hold exactly `runs` starts and `runs` ends
    /// and both summary levels mark exactly the non-empty words below.
    fn consistent_with(&self, runs: u64) -> bool {
        let ones = |bits: &[u64]| bits.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        if ones(&self.starts) != runs || ones(&self.ends) != runs {
            return false;
        }
        let mut rebuilt = RunBits {
            starts: Vec::new(),
            ends: Vec::new(),
            summary: vec![0; self.summary.len()],
            top: vec![0; self.top.len()],
        };
        for (w, (s, e)) in self.starts.iter().zip(&self.ends).enumerate() {
            if s | e != 0 {
                rebuilt.mark(w);
            }
        }
        rebuilt.summary == self.summary && rebuilt.top == self.top
    }
}

/// Lazy iterator over maximal free runs; see
/// [`BuddyAllocator::free_runs_iter`]. A word cursor over the run index:
/// it pops the next start and then the next end off the current pair of
/// bitset words, and jumps over empty words through the summary — a few
/// bit operations per run, however much allocated ground separates the
/// runs.
#[derive(Debug)]
pub struct FreeRuns<'a> {
    runs: &'a RunBits,
    /// The bitset word under the cursor.
    word: usize,
    /// Starts of `word` not yet yielded.
    starts: u64,
    /// Ends of `word` not yet yielded.
    ends: u64,
}

impl FreeRuns<'_> {
    /// Moves the cursor to the next non-empty word: on dense layouts
    /// the adjacent one, read directly; otherwise found through the
    /// summary.
    #[inline]
    fn advance(&mut self) -> Option<()> {
        let mut next = self.word + 1;
        let (mut starts, mut ends) = (*self.runs.starts.get(next)?, self.runs.ends[next]);
        if starts | ends == 0 {
            next = self.runs.next_word(next)?;
            (starts, ends) = (self.runs.starts[next], self.runs.ends[next]);
        }
        (self.word, self.starts, self.ends) = (next, starts, ends);
        Some(())
    }
}

impl Iterator for FreeRuns<'_> {
    type Item = (u64, u64);

    #[inline]
    fn next(&mut self) -> Option<(u64, u64)> {
        // Every end before the cursor's next start was yielded with its
        // run, so the next start opens a run and the next end closes it.
        while self.starts == 0 {
            self.advance()?;
        }
        let start = self.word as u64 * 64 + self.starts.trailing_zeros() as u64;
        self.starts &= self.starts - 1;
        while self.ends == 0 {
            self.advance()?;
        }
        let last = self.word as u64 * 64 + self.ends.trailing_zeros() as u64;
        self.ends &= self.ends - 1;
        Some((start, last + 1 - start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemini_sim_core::{DetRng, HUGE_PAGE_ORDER};

    #[test]
    fn new_allocator_is_fully_free_and_coalesced() {
        let a = BuddyAllocator::new(4096);
        assert_eq!(a.free_frames(), 4096);
        assert_eq!(a.used_frames(), 0);
        assert_eq!(a.free_blocks_of_order(MAX_ORDER), 4);
        a.check_invariants().unwrap();
        assert_eq!(a.free_runs(), vec![(0, 4096)]);
        assert_eq!(a.largest_free_run(), 4096);
    }

    #[test]
    fn pin_sorted_carves_the_gaps_and_refuses_bad_input() {
        // 1000 frames: the fully free layout ends in a partial region.
        let mut a = BuddyAllocator::new(1000);
        a.take_work_counters();
        a.pin_sorted(&[0, 3, 4, 600, 999]).unwrap();
        a.check_invariants().unwrap();
        assert_eq!(a.free_runs(), vec![(1, 2), (5, 595), (601, 398)]);
        assert_eq!(a.free_frames(), 995);
        // One index update per run; unindexing the fully free run is
        // not counted.
        assert_eq!(a.take_work_counters(), (0, 3));
        let mut none = BuddyAllocator::new(64);
        none.pin_sorted(&[]).unwrap();
        assert_eq!(none.free_runs(), vec![(0, 64)]);
        none.check_invariants().unwrap();
        // Only a fully free allocator, only ascending in-range pins.
        assert_eq!(a.pin_sorted(&[1]), Err(SimError::RangeBusy));
        let mut b = BuddyAllocator::new(64);
        assert_eq!(b.pin_sorted(&[5, 5]), Err(SimError::OutOfRange));
        assert_eq!(b.pin_sorted(&[7, 5]), Err(SimError::OutOfRange));
        assert_eq!(b.pin_sorted(&[64]), Err(SimError::OutOfRange));
        assert_eq!(b.free_runs(), vec![(0, 64)]);
        b.check_invariants().unwrap();
    }

    #[test]
    fn odd_sized_memory_is_carved_correctly() {
        // 1000 frames: not a power of two.
        let a = BuddyAllocator::new(1000);
        assert_eq!(a.free_frames(), 1000);
        a.check_invariants().unwrap();
        assert_eq!(a.free_runs(), vec![(0, 1000)]);
    }

    #[test]
    fn alloc_splits_and_free_merges() {
        let mut a = BuddyAllocator::new(1024);
        let f = a.alloc(0).unwrap();
        assert_eq!(f, 0);
        assert_eq!(a.free_frames(), 1023);
        a.check_invariants().unwrap();
        a.free(f, 0).unwrap();
        assert_eq!(a.free_frames(), 1024);
        // Fully merged back into one max-order block.
        assert_eq!(a.free_blocks_of_order(MAX_ORDER), 1);
        a.check_invariants().unwrap();
    }

    #[test]
    fn alloc_prefers_low_addresses() {
        let mut a = BuddyAllocator::new(2048);
        let f1 = a.alloc(0).unwrap();
        let f2 = a.alloc(0).unwrap();
        assert!(f1 < f2);
        assert_eq!(f2, 1);
    }

    #[test]
    fn huge_order_allocation() {
        let mut a = BuddyAllocator::new(2048);
        let h = a.alloc(HUGE_PAGE_ORDER).unwrap();
        assert_eq!(h % 512, 0);
        assert_eq!(a.free_frames(), 2048 - 512);
        a.free(h, HUGE_PAGE_ORDER).unwrap();
        assert_eq!(a.free_frames(), 2048);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut a = BuddyAllocator::new(4);
        assert!(a.alloc(9).is_err());
        for _ in 0..4 {
            a.alloc(0).unwrap();
        }
        assert_eq!(a.alloc(0), Err(SimError::OutOfMemory { order: 0 }));
    }

    #[test]
    fn alloc_at_carves_the_exact_block() {
        let mut a = BuddyAllocator::new(4096);
        a.alloc_at(512, HUGE_PAGE_ORDER).unwrap();
        assert!(!a.is_frame_free(512));
        assert!(!a.is_frame_free(1023));
        assert!(a.is_frame_free(511));
        assert!(a.is_frame_free(1024));
        assert_eq!(a.free_frames(), 4096 - 512);
        a.check_invariants().unwrap();
        a.free(512, HUGE_PAGE_ORDER).unwrap();
        a.check_invariants().unwrap();
        assert_eq!(a.free_runs(), vec![(0, 4096)]);
    }

    #[test]
    fn alloc_at_rejects_busy_and_misaligned() {
        let mut a = BuddyAllocator::new(1024);
        a.alloc_at(0, 9).unwrap();
        assert_eq!(a.alloc_at(0, 9), Err(SimError::RangeBusy));
        assert_eq!(a.alloc_at(0, 0), Err(SimError::RangeBusy));
        assert_eq!(a.alloc_at(3, 9), Err(SimError::Unaligned));
        assert_eq!(a.alloc_at(1024, 0), Err(SimError::OutOfRange));
        // Partially busy huge range.
        assert_eq!(a.alloc_at(512, 9), Ok(()));
        assert_eq!(a.alloc_at(512, 9), Err(SimError::RangeBusy));
    }

    #[test]
    fn double_free_detected() {
        let mut a = BuddyAllocator::new(64);
        let f = a.alloc(2).unwrap();
        a.free(f, 2).unwrap();
        assert!(matches!(a.free(f, 2), Err(SimError::BadFree(_))));
        // Freeing a sub-block of a free block is also a bad free.
        assert!(matches!(a.free(f, 0), Err(SimError::BadFree(_))));
    }

    #[test]
    fn partial_free_of_targeted_block() {
        // EMA books an order-9 block, allocates pages inside it, then the
        // booking times out and the *unused* pages return one by one.
        let mut a = BuddyAllocator::new(1024);
        a.alloc_at(0, 9).unwrap();
        // Return frames 10..512 individually.
        for f in 10..512 {
            a.free(f, 0).unwrap();
        }
        assert_eq!(a.free_frames(), 1024 - 10);
        a.check_invariants().unwrap();
        // Frames 0..10 are still allocated.
        assert!(!a.is_frame_free(0));
        assert!(!a.is_frame_free(9));
        assert!(a.is_frame_free(10));
        // Now free the head; everything must merge back.
        for f in 0..10 {
            a.free(f, 0).unwrap();
        }
        assert_eq!(a.free_runs(), vec![(0, 1024)]);
        a.check_invariants().unwrap();
    }

    #[test]
    fn is_range_free_spans_blocks() {
        let mut a = BuddyAllocator::new(2048);
        assert!(a.is_range_free(0, 2048));
        assert!(a.is_range_free(0, 0));
        assert!(!a.is_range_free(0, 4096));
        a.alloc_at(100, 0).unwrap();
        assert!(!a.is_range_free(0, 512));
        assert!(a.is_range_free(0, 100));
        assert!(a.is_range_free(101, 512));
    }

    #[test]
    fn fragmentation_index_reflects_layout() {
        let mut a = BuddyAllocator::new(1024);
        assert_eq!(a.fragmentation_index(9), 0.0);
        // Allocate everything, then free every other frame: classic
        // checkerboard fragmentation.
        let mut frames = Vec::new();
        while let Ok(f) = a.alloc(0) {
            frames.push(f);
        }
        for &f in frames.iter().step_by(2) {
            a.free(f, 0).unwrap();
        }
        let idx = a.fragmentation_index(9);
        assert!(idx > 0.9, "checkerboard should be highly fragmented: {idx}");
        a.check_invariants().unwrap();
    }

    #[test]
    fn free_runs_merge_non_buddy_neighbors() {
        let mut a = BuddyAllocator::new(1024);
        // Allocate frames 0 and 3; frees leave runs [1,2] and [4..1024)
        // where 1,2 are adjacent but not buddies (1 is odd).
        a.alloc_at(0, 0).unwrap();
        a.alloc_at(3, 0).unwrap();
        let runs = a.free_runs();
        assert_eq!(runs, vec![(1, 2), (4, 1020)]);
        assert_eq!(a.largest_free_run(), 1020);
    }

    /// Reference semantics `free_runs_from` must reproduce: full
    /// enumeration filtered on run start.
    fn runs_from_reference(a: &BuddyAllocator, frame: u64) -> Vec<(u64, u64)> {
        a.free_runs().into_iter().filter(|r| r.0 >= frame).collect()
    }

    #[test]
    fn free_runs_iter_matches_eager_enumeration() {
        let mut a = BuddyAllocator::new(1024);
        for f in [0, 3, 100, 513, 700] {
            a.alloc_at(f, 0).unwrap();
        }
        assert_eq!(a.free_runs_iter().collect::<Vec<_>>(), a.free_runs());
    }

    #[test]
    fn free_runs_from_skips_straddling_run() {
        let mut a = BuddyAllocator::new(2048);
        a.alloc_at(100, 0).unwrap();
        a.alloc_at(1000, 0).unwrap();
        // Runs: (0,100), (101,899), (1001,1047).
        for cursor in [0, 1, 100, 101, 102, 500, 999, 1000, 1001, 1002, 2047, 2048] {
            assert_eq!(
                a.free_runs_from(cursor).collect::<Vec<_>>(),
                runs_from_reference(&a, cursor),
                "cursor {cursor}"
            );
        }
    }

    #[test]
    fn free_runs_from_with_abutting_block_boundary() {
        // Craft a run whose interior contains a block boundary exactly at
        // the cursor: blocks (1,len 1) and (2,len 2) chain into run (1,3);
        // a cursor of 2 sits on the second block's start and must still
        // skip the whole run.
        let mut a = BuddyAllocator::new(64);
        a.alloc_at(0, 0).unwrap();
        a.alloc_at(4, 0).unwrap();
        assert_eq!(a.free_runs(), vec![(1, 3), (5, 59)]);
        for cursor in 0..=8 {
            assert_eq!(
                a.free_runs_from(cursor).collect::<Vec<_>>(),
                runs_from_reference(&a, cursor),
                "cursor {cursor}"
            );
        }
    }

    #[test]
    fn free_runs_from_on_empty_allocator() {
        let mut a = BuddyAllocator::new(8);
        for _ in 0..8 {
            a.alloc(0).unwrap();
        }
        assert_eq!(a.free_runs_from(0).next(), None);
        assert_eq!(a.free_runs_iter().next(), None);
    }

    #[test]
    fn index_tracks_rescan_through_alloc_free() {
        let mut a = BuddyAllocator::new(2048);
        a.alloc_at(100, 0).unwrap();
        a.alloc_at(512, 9).unwrap();
        let f = a.alloc(3).unwrap();
        assert_eq!(a.free_runs(), a.free_runs_rescan());
        a.free(f, 3).unwrap();
        a.free(100, 0).unwrap();
        assert_eq!(a.free_runs(), a.free_runs_rescan());
        a.check_invariants().unwrap();
        a.free(512, 9).unwrap();
        assert_eq!(a.free_runs(), vec![(0, 2048)]);
        a.check_invariants().unwrap();
    }

    #[test]
    fn first_run_fitting_is_next_fit() {
        let mut a = BuddyAllocator::new(2048);
        a.alloc_at(100, 0).unwrap();
        a.alloc_at(1000, 0).unwrap();
        // Runs: (0,100), (101,899), (1001,1047).
        assert_eq!(a.first_run_fitting(0, 50), Some((0, 100)));
        assert_eq!(a.first_run_fitting(0, 200), Some((101, 899)));
        assert_eq!(a.first_run_fitting(102, 200), Some((1001, 1047)));
        assert_eq!(a.first_run_fitting(0, 2000), None);
        assert_eq!(a.first_run_fitting(2000, 10), None);
    }

    #[test]
    fn congruent_queries_match_filtered_scans() {
        let mut a = BuddyAllocator::new(4096);
        for f in [3, 700, 1500, 2600] {
            a.alloc_at(f, 0).unwrap();
        }
        let fits = |(s, l): (u64, u64), in0: u64, len: u64| {
            let want = in0 % 512;
            let base = s - s % 512;
            let cand = if base + want >= s {
                base + want
            } else {
                base + want + 512
            };
            cand + len <= s + l
        };
        for in0 in [0u64, 512, 515, 1027] {
            for len in [1u64, 64, 512, 700, 1024] {
                for cursor in [0u64, 1, 701, 1501, 4095] {
                    let naive_at = a
                        .free_runs_rescan()
                        .into_iter()
                        .find(|&r| r.0 >= cursor && fits(r, in0, len));
                    assert_eq!(
                        a.first_congruent_run(cursor, in0, len),
                        naive_at,
                        "at cursor={cursor} in0={in0} len={len}"
                    );
                    let naive_below = a
                        .free_runs_rescan()
                        .into_iter()
                        .find(|&r| r.0 < cursor && fits(r, in0, len));
                    assert_eq!(
                        a.first_congruent_run_below(cursor, in0, len),
                        naive_below,
                        "below cursor={cursor} in0={in0} len={len}"
                    );
                }
            }
        }
    }

    #[test]
    fn fragmented_congruent_query_rejects_without_probing() {
        // One pinned frame per huge region: no order-9 block survives, so
        // a region-aligned whole-region query must reject via the guards
        // without examining a single run.
        let mut a = BuddyAllocator::new(4096);
        let mut held = Vec::new();
        while let Ok(f) = a.alloc(0) {
            held.push(f);
        }
        for &f in &held {
            if f % 512 != 0 {
                a.free(f, 0).unwrap();
            }
        }
        assert!(!a.has_suitable_block(HUGE_PAGE_ORDER));
        a.take_work_counters();
        assert_eq!(a.first_congruent_run(0, 0, 512), None);
        assert_eq!(a.first_congruent_run_below(4096, 1024, 600), None);
        assert_eq!(a.run_probes(), 0, "guards must reject before any probe");
    }

    #[test]
    fn nth_run_matches_filtered_vec_indexing() {
        let mut a = BuddyAllocator::new(4096);
        for f in [300, 900, 1200, 3000] {
            a.alloc_at(f, 0).unwrap();
        }
        let candidates: Vec<(u64, u64)> = a.free_runs_iter().filter(|&(_, l)| l >= 256).collect();
        assert_eq!(a.count_runs_at_least(256), candidates.len() as u64);
        for (i, &c) in candidates.iter().enumerate() {
            assert_eq!(a.nth_run_at_least(256, i as u64), Some(c));
        }
        assert_eq!(a.nth_run_at_least(256, candidates.len() as u64), None);
    }

    #[test]
    fn check_invariants_names_each_corruption() {
        // A valid base with two runs, (1, 39) and (41, 23): blocks
        // 1(o0) 2(o1) 4(o2) 8(o3) 16(o4) 32(o3) 41(o0) 42(o1) 44(o2)
        // 48(o4). Each case breaks exactly one invariant and must be
        // reported by that invariant's message.
        let base = || {
            let mut a = BuddyAllocator::new(64);
            a.alloc_at(0, 0).unwrap();
            a.alloc_at(40, 0).unwrap();
            a.check_invariants().unwrap();
            assert_eq!(a.free_runs(), vec![(1, 39), (41, 23)]);
            a
        };
        // Drops run `(start, len)` from the index, bits and histogram,
        // leaving the blocks alone.
        fn unindex(a: &mut BuddyAllocator, start: u64, len: u64) {
            a.runs.clear_start(start);
            a.runs.clear_end(start + len - 1);
            a.size_dec(len);
        }
        type Corruption = fn(&mut BuddyAllocator);
        let cases: [(&str, Corruption); 17] = [
            ("free block order out of range", |a| a.order_of[2] = 11),
            ("free block misaligned", |a| a.order_of[1] = 1),
            ("free blocks overlap", |a| a.order_of[3] = 0),
            ("free block out of range", |a| a.order_of[0] = 7),
            ("unmerged free buddies", |a| {
                // Split 48(o4) into two order-3 buddies left unmerged.
                a.order_of[48] = 3;
                a.order_of[56] = 3;
                a.counts[4] -= 1;
                a.counts[3] += 2;
            }),
            ("per-order block counts out of sync", |a| a.counts[3] += 1),
            ("min-start hint above true minimum", |a| a.min_start[0] = 2),
            ("free frame accounting mismatch", |a| a.free_frames -= 1),
            ("run index out of sync with order_of", |a| {
                unindex(a, 41, 23)
            }),
            ("run index out of sync with order_of", |a| {
                a.index_insert(40, 1)
            }),
            ("run index out of sync with order_of", |a| {
                unindex(a, 41, 23);
                a.index_insert(41, 22);
            }),
            ("run index out of sync with order_of", |a| {
                unindex(a, 1, 39);
                a.index_insert(1, 40);
            }),
            // A stray run-end bit inside a run.
            ("run index out of sync with order_of", |a| {
                a.runs.set_end(20)
            }),
            // A summary level forgets a non-empty word, or marks a
            // missing one.
            ("run index out of sync with order_of", |a| {
                a.runs.summary[0] = 0
            }),
            ("run index out of sync with order_of", |a| {
                a.runs.summary[0] |= 2
            }),
            ("run index out of sync with order_of", |a| a.runs.top[0] = 0),
            ("size index out of sync with run map", |a| a.size_inc(5)),
        ];
        for (want, corrupt) in cases {
            let mut a = base();
            corrupt(&mut a);
            assert_eq!(a.check_invariants(), Err(SimError::Invariant(want)));
        }
    }

    /// A healthy allocator of a random size — a multiple of 512, of 64
    /// only, or anything — that is clean, pinned by `pin_sorted`, or
    /// driven by a random `alloc`/`alloc_at`/`free`/`free_sorted`
    /// history with orders up to `MAX_ORDER`.
    fn random_valid_allocator(rng: &mut DetRng) -> BuddyAllocator {
        let frames = match rng.below(3) {
            0 => 512 * rng.range(1, 9),
            1 => 64 * rng.range(1, 80),
            _ => rng.range(1, 5000),
        };
        let mut a = BuddyAllocator::new(frames);
        match rng.below(3) {
            0 => {}
            1 => {
                let every = rng.range(1, 64);
                let pins: Vec<u64> = (0..frames).filter(|_| rng.below(every) == 0).collect();
                a.pin_sorted(&pins).unwrap();
            }
            _ => {
                let mut live: Vec<(u64, u32)> = Vec::new();
                for _ in 0..rng.range(1, 120) {
                    let order = rng.below(u64::from(MAX_ORDER) + 1) as u32;
                    match rng.below(4) {
                        0 => {
                            if let Ok(start) = a.alloc(order) {
                                live.push((start, order));
                            }
                        }
                        1 => {
                            let start = rng.below(frames) & !((1u64 << order) - 1);
                            if a.alloc_at(start, order).is_ok() {
                                live.push((start, order));
                            }
                        }
                        2 if !live.is_empty() => {
                            let (start, order) =
                                live.swap_remove(rng.below(live.len() as u64) as usize);
                            a.free(start, order).unwrap();
                        }
                        _ if !live.is_empty() => {
                            // Release a random subset of a few blocks'
                            // frames at once; the rest stay allocated as
                            // single frames.
                            let mut taken: Vec<u64> = Vec::new();
                            for _ in 0..rng.range(1, 4).min(live.len() as u64) {
                                let (start, order) =
                                    live.swap_remove(rng.below(live.len() as u64) as usize);
                                taken.extend(start..start + (1 << order));
                            }
                            taken.sort_unstable();
                            let (freed, kept): (Vec<u64>, Vec<u64>) =
                                taken.into_iter().partition(|_| rng.below(2) == 0);
                            a.free_sorted(&freed).unwrap();
                            live.extend(kept.into_iter().map(|f| (f, 0)));
                        }
                        _ => {}
                    }
                }
            }
        }
        a
    }

    /// Corrupts one field `check_invariants` reads, at a random place.
    fn corrupt_one_field(a: &mut BuddyAllocator, rng: &mut DetRng) {
        let flip = |bits: &mut [u64], rng: &mut DetRng| {
            let bit = rng.below(bits.len() as u64 * 64);
            bits[(bit / 64) as usize] ^= 1 << (bit % 64);
        };
        let order = rng.below(ORDERS as u64) as usize;
        match rng.below(9) {
            0 => {
                let f = rng.below(a.total_frames) as usize;
                a.order_of[f] = match rng.below(3) {
                    0 => NO_BLOCK,
                    1 => rng.below(u64::from(MAX_ORDER) + 2) as u8,
                    _ => a.order_of[f].wrapping_add(1),
                };
            }
            1 if a.counts[order] > 0 && rng.below(2) == 0 => a.counts[order] -= 1,
            1 => a.counts[order] += 1,
            2 => a.min_start[order] = rng.below(a.total_frames + 2),
            3 if a.free_frames > 0 && rng.below(2) == 0 => a.free_frames -= 1,
            3 => a.free_frames += 1,
            4 => flip(&mut a.runs.starts, rng),
            5 => flip(&mut a.runs.ends, rng),
            6 => flip(&mut a.runs.summary, rng),
            7 => flip(&mut a.runs.top, rng),
            _ => {
                let lens: Vec<u64> = a.runs_by_size.keys().copied().collect();
                let len = match rng.below(2) {
                    0 if !lens.is_empty() => lens[rng.below(lens.len() as u64) as usize],
                    _ => rng.range(1, a.total_frames + 2),
                };
                let count = a.runs_by_size.entry(len).or_insert(0);
                match rng.below(3) {
                    0 => *count += 1,
                    // May leave an entry counting zero runs.
                    1 => *count = count.saturating_sub(1),
                    _ => {
                        a.runs_by_size.remove(&len);
                    }
                }
            }
        }
    }

    /// Indexes one run of `a` that holds several blocks as two abutting
    /// runs, split at a random block boundary, with bits, summary and
    /// histogram kept consistent. Any such split leaves the greedy carve
    /// unchanged, so only the runs' maximality tells it apart. Returns
    /// false when no run holds two blocks.
    fn split_indexed_run(a: &mut BuddyAllocator, rng: &mut DetRng) -> bool {
        let splits: Vec<(u64, u64, u64)> = a
            .free_runs()
            .into_iter()
            .flat_map(|(start, len)| {
                aligned_blocks(start, start + len)
                    .skip(1)
                    .map(move |(at, _)| (start, len, at))
            })
            .collect();
        if splits.is_empty() {
            return false;
        }
        let (start, len, at) = splits[rng.below(splits.len() as u64) as usize];
        a.runs.set_end(at - 1);
        a.runs.set_start(at);
        a.size_dec(len);
        a.size_inc(at - start);
        a.size_inc(start + len - at);
        true
    }

    #[test]
    fn certifier_accepts_exactly_what_the_scan_accepts() {
        // The certifier must accept every healthy allocator, never
        // accept a state the scan rejects, and `check_invariants` must
        // return the scan's verdict, message included, on every state.
        // The check must not count as allocator work either.
        let mut seeds = DetRng::new(0xCE27_1F1E);
        let mut rejected = 0;
        for _ in 0..400 {
            let mut rng = seeds.fork();
            let valid = random_valid_allocator(&mut rng);
            valid.take_work_counters();
            assert!(valid.certify(), "certifier rejected a healthy allocator");
            assert_eq!(valid.scan_invariants(), Ok(()));
            assert_eq!(valid.check_invariants(), Ok(()));
            assert_eq!(valid.take_work_counters(), (0, 0));
            let mut split = valid.clone();
            if split_indexed_run(&mut split, &mut rng) {
                let want = Err(SimError::Invariant("run index out of sync with order_of"));
                assert_eq!(split.scan_invariants(), want);
                assert!(!split.certify(), "certifier accepted abutting runs");
                assert_eq!(split.check_invariants(), want);
            }
            for _ in 0..20 {
                let mut a = valid.clone();
                corrupt_one_field(&mut a, &mut rng);
                let scan = a.scan_invariants();
                assert_eq!(
                    a.certify(),
                    scan.is_ok(),
                    "certifier and scan disagree: {scan:?}"
                );
                assert_eq!(a.check_invariants(), scan);
                rejected += u32::from(scan.is_err());
            }
        }
        // Most single-field corruptions break an invariant.
        assert!(rejected > 4000, "only {rejected} corrupted states rejected");
    }

    #[test]
    fn work_counters_drain_and_accumulate() {
        let mut a = BuddyAllocator::new(1024);
        a.take_work_counters();
        let f = a.alloc(0).unwrap();
        a.free(f, 0).unwrap();
        assert!(a.index_updates() > 0, "alloc+free must touch the index");
        assert_eq!(a.run_probes(), 0);
        a.first_run_fitting(0, 1);
        assert_eq!(a.run_probes(), 1);
        let (probes, updates) = a.take_work_counters();
        assert_eq!(probes, 1);
        assert!(updates > 0);
        assert_eq!(a.take_work_counters(), (0, 0));
    }
}
