//! Hierarchical wall-clock span profiler.
//!
//! The simulator's deterministic exports answer *what happened* in
//! simulated time; this module answers *where the wall-clock goes* —
//! which phases of a cell (workload generation, the fault path, daemon
//! passes, promotions, TLB shootdowns, ...) dominate its runtime, so a
//! perf PR can prove it moved the right needle and didn't shift cost
//! elsewhere.
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero cost when off.** [`Profiler::span`] on a disabled
//!    profiler is one branch; no clock read, no lock, no allocation.
//!    Every subsystem can hold a (cheaply clonable) handle permanently.
//! 2. **Deterministic merging.** Like the `Recorder`, per-cell
//!    profilers fold into one via [`Profiler::merge_from`] in
//!    submission order, so a merged report is identical however cells
//!    were scheduled. Accumulators add; captured span events append.
//! 3. **Hierarchical attribution.** Spans nest via RAII guards; each
//!    phase accumulates both *cumulative* time (span enter→exit) and
//!    *self* time (cumulative minus time spent in child spans), so a
//!    promotion inside a daemon pass is charged to `promotion`, not
//!    double-counted into `daemon_pass`'s self time.
//! 4. **Testable.** The clock is pluggable: [`Profiler::deterministic`]
//!    replaces the wall clock with a monotone tick counter, making span
//!    timelines — and the Chrome trace export built from them —
//!    byte-identical across runs for a fixed seed.
//!
//! One profiler state is single-threaded (one machine is driven by one
//! thread at a time, exactly like the `Recorder`'s ring). Parallel
//! grids give each worker/cell its own [fork](Profiler::fork) sharing
//! the parent's clock epoch and calibration, then merge after the
//! barrier.

use crate::json::{json_f64, json_str};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// The static phases the simulator attributes wall-clock time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Machine construction, VM registration, fragmentation seeding.
    Setup,
    /// Pulling events out of the workload generator.
    WorkloadGen,
    /// Foreground event processing (translations, data-access cost,
    /// touch sampling); faults and shootdowns nest inside.
    Access,
    /// Demand-fault resolution at either layer (guest fault or EPT
    /// violation), policy decision included.
    FaultPath,
    /// Background daemon passes (khugepaged analogue, compaction,
    /// tenant churn); decision scans and promotions nest inside.
    DaemonPass,
    /// Policy daemon decision scans (Gemini/CA-paging contiguity
    /// passes over the buddy run index, Ingens/HawkEye region scans)
    /// and MHPS page-table scans.
    ContiguityScan,
    /// Executing a promotion (in-place, fill or copy).
    Promotion,
    /// Executing a demotion (huge-page split).
    Demotion,
    /// Applying TLB invalidations and shootdown accounting to the MMU
    /// model.
    TlbShootdown,
    /// Parallel-executor bookkeeping (queue pops, result stores) —
    /// everything a worker does that is not the cell itself.
    Executor,
}

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; 10] = [
        Phase::Setup,
        Phase::WorkloadGen,
        Phase::Access,
        Phase::FaultPath,
        Phase::DaemonPass,
        Phase::ContiguityScan,
        Phase::Promotion,
        Phase::Demotion,
        Phase::TlbShootdown,
        Phase::Executor,
    ];

    /// Stable snake_case name used in reports, bench JSON and traces.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::WorkloadGen => "workload_gen",
            Phase::Access => "access",
            Phase::FaultPath => "fault_path",
            Phase::DaemonPass => "daemon_pass",
            Phase::ContiguityScan => "contiguity_scan",
            Phase::Promotion => "promotion",
            Phase::Demotion => "demotion",
            Phase::TlbShootdown => "tlb_shootdown",
            Phase::Executor => "executor",
        }
    }

    /// Whether spans of this phase are captured as individual timeline
    /// rectangles when event capture is on. Per-operation phases (one
    /// span per fault, shootdown, promotion or demotion) fire thousands
    /// of times per cell at sub-microsecond durations — useless to look
    /// at in a trace viewer and enough volume to push a quick-scale
    /// grid trace past 50 MB. Only pass-level phases make the timeline;
    /// every phase still accumulates into the phase table
    /// (self/cum/count) regardless.
    pub fn in_timeline(self) -> bool {
        !matches!(
            self,
            Phase::FaultPath | Phase::TlbShootdown | Phase::Promotion | Phase::Demotion
        )
    }

    fn idx(self) -> usize {
        Phase::ALL.iter().position(|&p| p == self).expect("in ALL")
    }
}

/// Time source for span timestamps.
#[derive(Debug)]
enum Clock {
    /// Real time, in nanoseconds since the profiler's creation. Forks
    /// share the epoch, so timestamps from different workers lie on one
    /// timeline.
    Wall(Instant),
    /// Deterministic monotone counter: every read advances by 1 µs.
    /// Two identical runs produce identical timelines (tests).
    Ticks(AtomicU64),
}

impl Clock {
    fn now_ns(&self) -> u64 {
        match self {
            Clock::Wall(epoch) => epoch.elapsed().as_nanos() as u64,
            Clock::Ticks(t) => t.fetch_add(1_000, Ordering::Relaxed),
        }
    }
}

/// State shared by a profiler and all its forks.
#[derive(Debug)]
struct ProfShared {
    clock: Clock,
    /// Calibrated cost of one recorded span in nanoseconds (enter +
    /// exit), measured once at construction; 0 for tick clocks.
    ns_per_span: u64,
    /// Whether completed spans are kept as timeline events (the Chrome
    /// trace input) in addition to the accumulators.
    capture_events: bool,
}

/// Open span on the stack.
#[derive(Debug)]
struct Frame {
    phase: Phase,
    start_ns: u64,
    child_ns: u64,
}

/// Accumulated totals for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Completed spans of this phase.
    pub count: u64,
    /// Cumulative nanoseconds (span enter → exit, children included).
    pub cum_ns: u64,
    /// Self nanoseconds (cumulative minus time inside child spans).
    pub self_ns: u64,
}

/// One completed span on the timeline (captured only when event
/// capture is on).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// The phase the span timed.
    pub phase: Phase,
    /// Start, nanoseconds on the profiler's shared timeline.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth at entry (0 = top level).
    pub depth: u32,
    /// Track id: the executor worker (or fork tag) that recorded it.
    pub tid: u32,
}

#[derive(Debug, Default)]
struct ProfState {
    stack: Vec<Frame>,
    accum: [PhaseStat; Phase::ALL.len()],
    events: Vec<SpanEvent>,
    tid: u32,
    spans_recorded: u64,
}

/// Cheap-clone handle over one span-profiling state.
///
/// Clones share state (like `Recorder`); [forks](Profiler::fork) get
/// fresh state on the same clock. The [off](Profiler::off) profiler
/// records nothing and costs one branch per span site.
#[derive(Debug, Clone)]
pub struct Profiler {
    enabled: bool,
    shared: Arc<ProfShared>,
    state: Arc<Mutex<ProfState>>,
}

// Machines (and their profiler handles) move across executor worker
// threads whole; keep that property from regressing silently.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Profiler>();
};

impl Default for Profiler {
    fn default() -> Self {
        Self::off()
    }
}

impl Profiler {
    fn with_clock(clock: Clock, ns_per_span: u64, capture_events: bool) -> Self {
        Self {
            enabled: true,
            shared: Arc::new(ProfShared {
                clock,
                ns_per_span,
                capture_events,
            }),
            state: Arc::new(Mutex::new(ProfState::default())),
        }
    }

    /// A disabled profiler: every span site is one branch, nothing is
    /// recorded. This is what subsystems hold by default.
    pub fn off() -> Self {
        Self {
            enabled: false,
            shared: Arc::new(ProfShared {
                clock: Clock::Ticks(AtomicU64::new(0)),
                ns_per_span: 0,
                capture_events: false,
            }),
            state: Arc::new(Mutex::new(ProfState::default())),
        }
    }

    /// A wall-clock profiler. Calibrates the per-span recording cost on
    /// construction (a few thousand empty spans against scratch state)
    /// so reports can carry an overhead estimate.
    pub fn wall(capture_events: bool) -> Self {
        let prof = Self::with_clock(Clock::Wall(Instant::now()), 0, capture_events);
        let ns_per_span = prof.calibrate();
        Self {
            shared: Arc::new(ProfShared {
                clock: Clock::Wall(Instant::now()),
                ns_per_span,
                capture_events,
            }),
            ..prof
        }
    }

    /// A deterministic profiler: timestamps come from a monotone tick
    /// counter (1 µs per read), so identical call sequences produce
    /// byte-identical timelines. For tests and golden traces.
    pub fn deterministic(capture_events: bool) -> Self {
        Self::with_clock(Clock::Ticks(AtomicU64::new(0)), 0, capture_events)
    }

    /// Measures the cost of one recorded span (enter + exit) in
    /// nanoseconds, by timing batches of empty spans against this
    /// profiler's own state (discarded afterwards). The *minimum*
    /// across batches is the estimate: a single batch on a shared
    /// one-core host is routinely inflated several-fold by preemption
    /// mid-loop, and steal time only ever adds, so the floor is the
    /// honest per-span cost.
    fn calibrate(&self) -> u64 {
        const BATCHES: u32 = 8;
        const N: u32 = 512;
        let mut best = u64::MAX;
        for _ in 0..BATCHES {
            let started = Instant::now();
            for _ in 0..N {
                let _g = self.span(Phase::Executor);
            }
            best = best.min(started.elapsed().as_nanos() as u64 / N as u64);
        }
        // Reset the scratch accumulation so reports start clean.
        *self.lock() = ProfState::default();
        best.max(1)
    }

    /// True when spans are being recorded.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.enabled
    }

    fn lock(&self) -> MutexGuard<'_, ProfState> {
        self.state.lock().expect("profiler lock poisoned")
    }

    /// A fork: fresh accumulators and span stack on the *same* clock
    /// and calibration, tagged with `tid` (the executor worker index or
    /// cell slot). Forks are what parallel workers record into; merge
    /// them back in submission order for deterministic totals.
    pub fn fork(&self, tid: u32) -> Profiler {
        Self {
            enabled: self.enabled,
            shared: Arc::clone(&self.shared),
            state: Arc::new(Mutex::new(ProfState {
                tid,
                ..ProfState::default()
            })),
        }
    }

    /// The track id this profiler records under: the fork tag (worker
    /// index), or 0 for a root profiler.
    pub fn tid(&self) -> u32 {
        self.lock().tid
    }

    /// Reads the profiler's clock (nanoseconds on the shared timeline).
    /// Callers use this to place non-span marks (e.g. cell boundaries)
    /// on the same timeline as captured span events.
    pub fn now_ns(&self) -> u64 {
        self.shared.clock.now_ns()
    }

    /// Opens a span of `phase`; the returned guard closes it on drop.
    /// Guards are strictly nested (RAII), which is what makes self-time
    /// attribution a simple stack walk.
    #[inline]
    pub fn span(&self, phase: Phase) -> Span {
        if !self.enabled {
            return Span { prof: None };
        }
        let start_ns = self.shared.clock.now_ns();
        self.lock().stack.push(Frame {
            phase,
            start_ns,
            child_ns: 0,
        });
        Span {
            prof: Some(self.clone()),
        }
    }

    fn end_span(&self) {
        let now = self.shared.clock.now_ns();
        let mut st = self.lock();
        let frame = st.stack.pop().expect("span guards are strictly nested");
        let elapsed = now.saturating_sub(frame.start_ns);
        let self_ns = elapsed.saturating_sub(frame.child_ns);
        let depth = st.stack.len() as u32;
        if let Some(parent) = st.stack.last_mut() {
            parent.child_ns += elapsed;
        }
        let a = &mut st.accum[frame.phase.idx()];
        a.count += 1;
        a.cum_ns += elapsed;
        a.self_ns += self_ns;
        st.spans_recorded += 1;
        if self.shared.capture_events && frame.phase.in_timeline() {
            let tid = st.tid;
            st.events.push(SpanEvent {
                phase: frame.phase,
                start_ns: frame.start_ns,
                dur_ns: elapsed,
                depth,
                tid,
            });
        }
    }

    /// Folds another profiler's recorded state into this one:
    /// accumulators and span counts add, captured events append. Call
    /// in submission order after a parallel grid for deterministic
    /// totals (the same discipline as `Recorder::merge_from`).
    pub fn merge_from(&self, other: &Profiler) {
        if Arc::ptr_eq(&self.state, &other.state) {
            return;
        }
        let (accum, events, spans) = {
            let o = other.lock();
            (o.accum, o.events.clone(), o.spans_recorded)
        };
        let mut st = self.lock();
        for (mine, theirs) in st.accum.iter_mut().zip(accum.iter()) {
            mine.count += theirs.count;
            mine.cum_ns += theirs.cum_ns;
            mine.self_ns += theirs.self_ns;
        }
        st.events.extend(events);
        st.spans_recorded += spans;
    }

    /// Snapshot of the per-phase accumulators and overhead estimate.
    pub fn report(&self) -> ProfileReport {
        let st = self.lock();
        ProfileReport {
            phases: Phase::ALL
                .iter()
                .map(|&p| (p, st.accum[p.idx()]))
                .filter(|(_, s)| s.count > 0)
                .collect(),
            spans_recorded: st.spans_recorded,
            overhead_est_ns: st.spans_recorded * self.shared.ns_per_span,
        }
    }

    /// Snapshot of the captured timeline events, in recording order.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.lock().events.clone()
    }
}

/// RAII span guard; closes its span when dropped.
#[derive(Debug)]
#[must_use = "a span measures the scope it lives in; binding it to _ drops it immediately"]
pub struct Span {
    prof: Option<Profiler>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(prof) = self.prof.take() {
            prof.end_span();
        }
    }
}

/// Per-phase totals plus the overhead estimate of recording them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// Phases with at least one span, in [`Phase::ALL`] order.
    pub phases: Vec<(Phase, PhaseStat)>,
    /// Total spans recorded.
    pub spans_recorded: u64,
    /// Estimated profiler overhead: spans recorded × calibrated
    /// per-span cost. 0 for deterministic (tick-clock) profilers.
    pub overhead_est_ns: u64,
}

impl ProfileReport {
    /// Sum of self-time across all phases — the covered wall time.
    pub fn total_self_ns(&self) -> u64 {
        self.phases.iter().map(|(_, s)| s.self_ns).sum()
    }
}

/// One rectangle on a Chrome-trace timeline: a cell or a phase span.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    /// Display name (`workload/system` for cells, the phase name for
    /// phase spans).
    pub name: String,
    /// Trace category (`"cell"` or `"phase"`).
    pub cat: &'static str,
    /// Start on the shared timeline, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Worker track.
    pub tid: u32,
}

impl From<&SpanEvent> for TraceSpan {
    fn from(e: &SpanEvent) -> Self {
        TraceSpan {
            name: e.phase.name().to_string(),
            cat: "phase",
            start_ns: e.start_ns,
            dur_ns: e.dur_ns,
            tid: e.tid,
        }
    }
}

/// Hard ceiling on phase rectangles in one rendered trace. A
/// quick-scale grid records ~600k per-batch spans (~57 MB of JSON) —
/// far more than a viewer can usefully render. Over the cap, the
/// *widest* phase spans are kept (the ones visible at any practical
/// zoom), cells and metadata always survive, and a `trace_capped`
/// metadata row records the drop count so the truncation is never
/// silent.
pub const MAX_TIMELINE_EVENTS: usize = 50_000;

/// Renders spans as a Chrome-trace-event JSON object (the
/// `traceEvents` format Perfetto and `chrome://tracing` open
/// directly): one complete (`"ph":"X"`) event per span, preceded by
/// process/thread-name metadata so every worker gets a labelled track.
///
/// `workers` names the tracks (index = tid); emit one entry per worker
/// even if a worker recorded nothing, so track structure is stable
/// across runs. Spans are sorted by `(tid, start, longest-first,
/// name)` — a total order on deterministic timelines, making the
/// rendered trace byte-identical for byte-identical span sets. Phase
/// rows beyond [`MAX_TIMELINE_EVENTS`] are dropped widest-first-kept
/// by the same deterministic ordering.
pub fn chrome_trace_json(process_name: &str, workers: &[String], spans: &[TraceSpan]) -> String {
    chrome_trace_json_with_counters(process_name, workers, spans, &[])
}

/// Like [`chrome_trace_json`], but additionally renders named counters
/// as Chrome counter-track events (`"ph":"C"` at `ts` 0 on the
/// metadata track), so run-level totals — e.g. the TLB's
/// `tlb.batch_runs` / `tlb.batched_hits` / `tlb.batch_breaks` from the
/// closed-form hit-run fast path — appear as labelled counter tracks
/// next to the timeline in Perfetto. Counters are emitted in the order
/// given; pass them pre-sorted for byte-stable output.
pub fn chrome_trace_json_with_counters(
    process_name: &str,
    workers: &[String],
    spans: &[TraceSpan],
    counters: &[(String, u64)],
) -> String {
    let mut sorted: Vec<&TraceSpan> = spans.iter().collect();
    let phase_count = sorted.iter().filter(|s| s.cat == "phase").count();
    let dropped = phase_count.saturating_sub(MAX_TIMELINE_EVENTS);
    if dropped > 0 {
        let mut phases: Vec<&TraceSpan> = sorted
            .iter()
            .copied()
            .filter(|s| s.cat == "phase")
            .collect();
        phases.sort_by(|a, b| {
            (std::cmp::Reverse(a.dur_ns), a.tid, a.start_ns, &a.name).cmp(&(
                std::cmp::Reverse(b.dur_ns),
                b.tid,
                b.start_ns,
                &b.name,
            ))
        });
        phases.truncate(MAX_TIMELINE_EVENTS);
        let keep: std::collections::HashSet<*const TraceSpan> =
            phases.iter().map(|s| *s as *const TraceSpan).collect();
        sorted.retain(|s| s.cat != "phase" || keep.contains(&(*s as *const TraceSpan)));
    }
    sorted.sort_by(|a, b| {
        (a.tid, a.start_ns, std::cmp::Reverse(a.dur_ns), &a.name).cmp(&(
            b.tid,
            b.start_ns,
            std::cmp::Reverse(b.dur_ns),
            &b.name,
        ))
    });
    let mut out = String::from("{\n\"traceEvents\": [\n");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":{}}}}}",
        json_str(process_name)
    ));
    for (tid, name) in workers.iter().enumerate() {
        out.push_str(&format!(
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
            json_str(name)
        ));
    }
    if dropped > 0 {
        out.push_str(&format!(
            ",\n{{\"name\":\"trace_capped\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"kept\":{MAX_TIMELINE_EVENTS},\"dropped\":{dropped}}}}}",
        ));
    }
    for (name, value) in counters {
        out.push_str(&format!(
            ",\n{{\"name\":{},\"ph\":\"C\",\"ts\":0,\"pid\":1,\"tid\":0,\"args\":{{\"value\":{value}}}}}",
            json_str(name)
        ));
    }
    for s in sorted {
        out.push_str(&format!(
            ",\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
            json_str(&s.name),
            json_str(s.cat),
            json_f64(s.start_ns as f64 / 1_000.0),
            json_f64(s.dur_ns as f64 / 1_000.0),
            s.tid
        ));
    }
    out.push_str("\n]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_rows_render_as_chrome_counter_events() {
        let spans = vec![TraceSpan {
            name: "access".into(),
            cat: "phase",
            start_ns: 0,
            dur_ns: 10,
            tid: 0,
        }];
        let counters = vec![
            ("tlb.batch_runs".to_string(), 12u64),
            ("tlb.batched_hits".to_string(), 340u64),
        ];
        let workers = vec!["w".to_string()];
        let json = chrome_trace_json_with_counters("p", &workers, &spans, &counters);
        assert!(json.contains("\"name\":\"tlb.batch_runs\",\"ph\":\"C\""));
        assert!(json.contains("\"name\":\"tlb.batched_hits\",\"ph\":\"C\""));
        assert!(json.contains("\"args\":{\"value\":340}"));
        // The plain exporter is exactly the zero-counter case.
        assert_eq!(
            chrome_trace_json("p", &workers, &spans),
            chrome_trace_json_with_counters("p", &workers, &spans, &[])
        );
    }

    #[test]
    fn off_profiler_records_nothing() {
        let p = Profiler::off();
        {
            let _a = p.span(Phase::Access);
            let _b = p.span(Phase::FaultPath);
        }
        assert!(!p.is_on());
        let r = p.report();
        assert!(r.phases.is_empty());
        assert_eq!(r.spans_recorded, 0);
        assert_eq!(r.overhead_est_ns, 0);
    }

    #[test]
    fn nested_spans_split_self_and_cumulative() {
        // Tick clock: every now() is +1µs, so spans have exact widths.
        let p = Profiler::deterministic(true);
        {
            let _outer = p.span(Phase::DaemonPass); // t=0
            {
                let _inner = p.span(Phase::ContiguityScan); // t=1
            } // t=2: inner cum = 1µs
        } // t=3: outer cum = 3µs, self = 2µs
        let r = p.report();
        let get = |ph: Phase| {
            r.phases
                .iter()
                .find(|(p, _)| *p == ph)
                .map(|(_, s)| *s)
                .unwrap()
        };
        let outer = get(Phase::DaemonPass);
        let inner = get(Phase::ContiguityScan);
        assert_eq!(inner.cum_ns, 1_000);
        assert_eq!(inner.self_ns, 1_000);
        assert_eq!(outer.cum_ns, 3_000);
        assert_eq!(outer.self_ns, 2_000);
        assert_eq!(r.total_self_ns(), 3_000);
        // Events captured with depths.
        let ev = p.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].phase, Phase::ContiguityScan);
        assert_eq!(ev[0].depth, 1);
        assert_eq!(ev[1].phase, Phase::DaemonPass);
        assert_eq!(ev[1].depth, 0);
    }

    #[test]
    fn trace_render_caps_phase_rows_and_reports_drops() {
        let mut spans: Vec<TraceSpan> = (0..MAX_TIMELINE_EVENTS + 10)
            .map(|i| TraceSpan {
                name: "access".to_string(),
                cat: "phase",
                start_ns: i as u64 * 10,
                dur_ns: 5,
                tid: 0,
            })
            .collect();
        spans.push(TraceSpan {
            name: "cell".to_string(),
            cat: "cell",
            start_ns: 0,
            dur_ns: 1 << 40,
            tid: 0,
        });
        let json = chrome_trace_json("p", &["w".to_string()], &spans);
        assert!(json.contains("\"trace_capped\""));
        assert!(json.contains("\"dropped\":10"));
        // Capped phase rows plus the always-kept cell.
        assert_eq!(
            json.matches("\"ph\":\"X\"").count(),
            MAX_TIMELINE_EVENTS + 1
        );
        // Under the cap nothing is dropped or annotated.
        let small = chrome_trace_json("p", &["w".to_string()], &spans[..5]);
        assert!(!small.contains("trace_capped"));
        assert_eq!(small.matches("\"ph\":\"X\"").count(), 5);
    }

    #[test]
    fn per_fault_phases_accumulate_but_skip_the_timeline() {
        let p = Profiler::deterministic(true);
        {
            let _a = p.span(Phase::Access);
            let _f = p.span(Phase::FaultPath);
            let _t = p.span(Phase::TlbShootdown);
            let _pr = p.span(Phase::Promotion);
            let _d = p.span(Phase::Demotion);
        }
        let r = p.report();
        for ph in [
            Phase::FaultPath,
            Phase::TlbShootdown,
            Phase::Promotion,
            Phase::Demotion,
        ] {
            let stat = r.phases.iter().find(|(p, _)| *p == ph).unwrap().1;
            assert_eq!(stat.count, 1, "{} still accumulates", ph.name());
        }
        let ev = p.events();
        assert_eq!(ev.len(), 1, "only the access span is a timeline event");
        assert_eq!(ev[0].phase, Phase::Access);
    }

    #[test]
    fn merge_adds_accumulators_and_appends_events() {
        let a = Profiler::deterministic(true);
        let b = a.fork(1);
        {
            let _g = a.span(Phase::Access);
        }
        {
            let _g = b.span(Phase::Access);
        }
        {
            let _g = b.span(Phase::Setup);
        }
        a.merge_from(&b);
        let r = a.report();
        let access = r
            .phases
            .iter()
            .find(|(p, _)| *p == Phase::Access)
            .unwrap()
            .1;
        assert_eq!(access.count, 2);
        assert_eq!(r.spans_recorded, 3);
        assert_eq!(a.events().len(), 3);
        assert_eq!(a.events()[1].tid, 1, "fork's tid rides along");
        // Self-merge is a no-op, not a deadlock or double count.
        a.merge_from(&a.clone());
        assert_eq!(a.report().spans_recorded, 3);
    }

    #[test]
    fn wall_profiler_calibrates_and_estimates_overhead() {
        let p = Profiler::wall(false);
        assert_eq!(p.report().spans_recorded, 0, "calibration is discarded");
        for _ in 0..10 {
            let _g = p.span(Phase::Access);
        }
        let r = p.report();
        assert_eq!(r.spans_recorded, 10);
        assert!(r.overhead_est_ns >= 10, "calibration is at least 1ns/span");
    }

    #[test]
    fn chrome_trace_is_stable_and_labelled() {
        let spans = vec![
            TraceSpan {
                name: "b".into(),
                cat: "phase",
                start_ns: 2_000,
                dur_ns: 1_000,
                tid: 1,
            },
            TraceSpan {
                name: "a".into(),
                cat: "cell",
                start_ns: 0,
                dur_ns: 5_000,
                tid: 0,
            },
        ];
        let workers = vec!["worker-0".to_string(), "worker-1".to_string()];
        let json = chrome_trace_json("demo", &workers, &spans);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"worker-1\""));
        // Sorted by tid: cell on track 0 precedes phase on track 1.
        let cell = json.find("\"cat\":\"cell\"").unwrap();
        let phase = json.find("\"cat\":\"phase\"").unwrap();
        assert!(cell < phase);
        // Reordering the input does not change the output.
        let rev: Vec<TraceSpan> = spans.iter().rev().cloned().collect();
        assert_eq!(json, chrome_trace_json("demo", &workers, &rev));
    }
}
