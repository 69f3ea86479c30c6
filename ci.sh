#!/usr/bin/env bash
# Repo CI gate: formatting, lints (warnings are errors), full test suite.
# Runs fully offline; the bench crate is a standalone workspace and is
# covered only when its registry dependencies are available.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, -D warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test (workspace) =="
# Tier-1 time is an end-to-end number too: print it for the record.
start=$(date +%s%N)
cargo test --workspace --offline -q
end=$(date +%s%N)
echo "timing: tier-1 wall_ms=$(( (end - start) / 1000000 ))"

echo "== parallel determinism (GEMINI_JOBS=2) =="
# The determinism suite compares jobs=1 against jobs=4 by default; run it
# once more pinned to two workers so CI exercises a distinct jobs count.
GEMINI_JOBS=2 cargo test --offline -q -p gemini-harness --test parallel_determinism

echo "== layer parity + golden byte-identity (GEMINI_JOBS=2) =="
# Same policy through the guest and host LayerEngine instantiations, and
# the fig. 3 and fig. 8 grids, the fig. 17/18 collocation grid and the
# fleet hosts against their goldens (tests/golden/), at two worker
# counts.
GEMINI_JOBS=2 cargo test --offline -q -p gemini-harness --test layer_parity

echo "== fast-forward + batching parity: single, fleet and collocated runs (GEMINI_JOBS=2) =="
# DESIGN.md §13 and §16: every registry scenario with fast-forward on
# vs off AND with hit-run batching on vs off, the reused-VM chain, the
# seed × workload sweep, the fleet lifecycle hosts and grid, a
# collocated pair under every evaluated system, and a recorded-trace
# replay through both batch settings — all must produce byte-identical
# RunResults. Pinned to two workers so the fleet grid's executor runs
# concurrent cells in CI.
GEMINI_JOBS=2 cargo test --offline -q -p gemini-harness --test ff_parity

echo "== VM lifecycle churn properties (GEMINI_JOBS=2) =="
# DESIGN.md §14: DetRng-seeded create/run/destroy interleavings — every
# departure leaves the buddy invariants (index == rescan) intact, a
# drained host is byte-identical to a fresh one, and the fleet driver's
# reclaimed-frame accounting matches the teardowns.
GEMINI_JOBS=2 cargo test --offline -q -p gemini-harness --test fleet_lifecycle

echo "== benchmark build + tests (perfbench, quick scale) =="
# The benchmark is a package of its own, outside the workspace, and its
# probes call gemini_buddy and Machine::remove_vm directly: build and
# test it so an API change cannot break it unnoticed.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== cargo doc (workspace, no-deps, -D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline -q

echo "== demo-scale timing (bench trajectory) =="
# Wall-clock of one demo-scale compare per jobs count. Parse the
# "timing:" lines into BENCH_*.json to track the executor's speedup.
BIN=target/release/gemini-sim
cargo build --release --offline -q -p gemini-harness --bin gemini-sim
for jobs in 1 0; do
    start=$(date +%s%N)
    "$BIN" compare --workload Redis --scale demo --fragmented --jobs "$jobs" \
        > /dev/null
    end=$(date +%s%N)
    echo "timing: demo compare jobs=$jobs wall_ms=$(( (end - start) / 1000000 ))"
done

echo "== end-to-end fast-path parity (gemini-sim parity, GEMINI_JOBS=2) =="
# The CLI parity mode runs the default (fast-forward + batching),
# --no-batch and --no-ff paths back-to-back and diffs the results — a
# user-facing smoke test on top of the ff_parity suite.
GEMINI_JOBS=2 "$BIN" parity --workload Redis --scale quick --fragmented --jobs 2 > /dev/null
echo "parity: default / --no-batch / --no-ff identical (registry + fleet hosts + collocated pair)"

echo "== fleet lifecycle smoke (demo scale, GEMINI_JOBS=2) =="
# The long-horizon arrival/departure scenario end to end: >= 100 VM
# lifecycles per system at demo scale, first-fit packed over four
# hosts, every VM torn down through the leak-checked remove_vm path.
# Each teardown ends in a full buddy invariant check, so the smoke's
# wall time tracks that path: print it like the tier-1 line.
start=$(date +%s%N)
GEMINI_JOBS=2 "$BIN" fleet --scale demo --jobs 2 > /dev/null
end=$(date +%s%N)
echo "timing: fleet demo jobs=2 wall_ms=$(( (end - start) / 1000000 ))"
echo "fleet: demo-scale lifecycle grid drained leak-free"

echo "== record/replay smoke (quick scale, GEMINI_JOBS=2) =="
# DESIGN.md §15 end to end through the CLI: record a quick fragmented
# Redis run to a gemini-trace-v1 file, replay it through the same
# scenario, and require the two --json exports byte-identical. All
# three filenames match the ignored *.jsonl pattern, so nothing leaks
# into the tree.
GEMINI_JOBS=2 "$BIN" record --workload Redis --scale quick --fragmented \
    --trace smoke_trace.jsonl --json smoke_record.jsonl > /dev/null
GEMINI_JOBS=2 "$BIN" replay --trace smoke_trace.jsonl --system GEMINI \
    --json smoke_replay.jsonl > /dev/null 2> /dev/null
cmp smoke_record.jsonl smoke_replay.jsonl
rm -f smoke_trace.jsonl smoke_record.jsonl smoke_replay.jsonl
echo "record/replay: replayed run byte-identical to the recorded one"

echo "== bench report + perf gate (quick scale, bench_quick.json) =="
# The full bench harness at quick scale: reference-cell speedup vs the
# recorded pre-PR-4 baseline, per-cell fig3 timings with phase
# breakdowns and a jobs sweep; then the perf-regression gate. The report
# and the Perfetto trace go to fixed, git-ignored names. The gate diffs
# the new report against the previous run's when one exists, and
# otherwise against the newest committed BENCH_pr*.json (demo scale:
# the absolute walls differ by design, so that first diff is
# informational). Warn-only: this container is small and noisy, so
# regressions are reported, not fatal — on a quiet benchmarking host
# drop --warn-only to make it a hard gate. The diff matches cells by
# label, so comparing against older reports stays valid.
if [ -f bench_quick.json ]; then
    mv bench_quick.json bench_prev_quick.json
    baseline=bench_prev_quick.json
else
    baseline=$(printf '%s\n' BENCH_pr*.json | grep -v '_quick\.json$' | sort -V | tail -n 1)
fi
"$BIN" bench --scale quick --jobs 2 --json bench_quick.json \
    --profile bench_trace.json --compare "$baseline" --warn-only
rm -f bench_prev_quick.json
echo "bench report written to bench_quick.json (compared against $baseline)"

# The committed demo-scale BENCH_pr<N>.json trajectory files are
# regenerated out of band:
#   gemini-sim bench --scale demo --jobs 2 --json BENCH_pr<N>.json \
#       --compare <newest BENCH_pr*.json> --warn-only
# A same-host A/B of two commits is the benchmark's own parent-vs-change
# run (perfbench/README.md), interleaved in one window — see DESIGN.md
# §13 on host drift.

echo "== profile smoke check (bench_trace.json) =="
# The Perfetto trace must exist, be non-empty, look like a
# Chrome-trace-event document, and carry the batch counter tracks.
test -s bench_trace.json
grep -q '"traceEvents"' bench_trace.json
grep -q '"tlb.batched_hits"' bench_trace.json
echo "trace written to bench_trace.json ($(wc -c < bench_trace.json) bytes)"

echo "CI gate passed."
