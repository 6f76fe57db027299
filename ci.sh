#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, doc links, build, a run of every
# example (the root ones and the checker's), the full workspace test suite (which includes the paper-claims and
# cross-protocol differential suites), the benchmark crate's unit tests,
# the feature-off observability check, the P=1024 hot-block stress in release, and the model checker's
# default tier (every roster protocol —
# figure set, Dir2B, LimitLESS2 and LimitLESS1, update, adaptive, and the
# ternary-tree shapes — exhaustively explored at
# P=2 and P=3, plus as much of the P=4 roster as fits a one-minute
# wall-clock budget, with per-shape explored/deduped/sleep-pruned state
# counts printed, the P=2/P=3 lines compared with their golden at the
# default job count and again at one job), then the
# perf gates: golden byte-compares (including the sha256 of every file
# `dirtree-bench all` writes) and the
# benchmark's ledger gates (five workloads' digests and state counts
# against benchmark/expected.json, plus host_s and setup_s ratio checks
# for the workloads BENCH_layers.json's ci_gate names). Run from the
# repository root; fails fast on the first problem.
#
#   ./ci.sh          default gate (~2-3 min of model checking: P=2, P=3,
#                    and a time-budgeted P=4 slice)
#   ./ci.sh --deep   the full P=4 sweep (no time budget) plus the
#                    two-block P=2/P=3 shapes
set -euo pipefail

deep=0
if [[ "${1:-}" == "--deep" ]]; then
  deep=1
elif [[ -n "${1:-}" ]]; then
  echo "usage: $0 [--deep]" >&2
  exit 64
fi

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
# Every doc comment's intra-doc links must resolve (the message docs live
# inside the `msg_kinds!` table, so this is what checks they still do).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo build --release --workspace
# `cargo test` compiles the examples but never runs them; each must exit 0
# (under a second for all four on a 2-CPU host).
for example in examples/*.rs; do
  cargo run -q --release --example "$(basename "$example" .rs)" >/dev/null
done
# The checker's own example, the harness behind DESIGN.md §22's reduction
# numbers, on its smallest two-block shape (well under a second).
cargo run -q --release -p dirtree-check --example fourway -- 2 2 2 2 >/dev/null
# Workspace tests build with the `trace` feature unified in (dirtree-bench
# always enables it), so the observability layer is exercised end to end —
# including tests/paper_claims.rs and tests/protocol_differential.rs.
cargo test --workspace -q
# Feature-off path: without dirtree-bench in the graph the metrics sink
# must compile to a zero-sized no-op (pinned by `zero_sized_when_disabled`
# and `metrics_are_empty_when_trace_feature_is_off`).
cargo test -q -p dirtree-sim -p dirtree-net -p dirtree-machine
# The benchmark crate is a workspace of its own, so `--workspace` above
# never runs its unit tests (the harness's own digests, tables and
# statistics); here they run against its committed Cargo.lock.
cargo test --manifest-path benchmark/Cargo.toml --offline -q
# The hot-block stress at P=1024 (1000 sharers of one block, every
# protocol with an ownership record, witness on) is too slow for the
# debug suite above, which runs it at P=256; here it runs in release.
cargo test -q --release --test hot_block_stress -- --ignored
# The paper-claims suite by name, so a claim regression is called out
# directly even when some other workspace test fails first.
cargo test -q --test paper_claims

mkdir -p target
if (( deep )); then
  cargo run --release -p dirtree-check --bin check_all -- --deep | tee target/check_all.txt
else
  cargo run --release -p dirtree-check --bin check_all -- --budget 60 | tee target/check_all.txt
fi
# The checker's "same partition" bar, made mechanical: the P=2 and P=3
# one-block lines (every roster shape's states, depth and four counters;
# the deterministic part of the default tier) must match the committed
# golden byte for byte, at any --jobs. The trailing wall time is dropped.
check_golden() {  # check_all output file
  grep -E ' P=[23] B=1 ' "$1" | sed -E 's/  \[[^]]*\]$//' \
    | cmp - tests/golden/check_all_p2_p3.txt
}
check_golden target/check_all.txt
echo "check-golden: P=2/P=3 lines match tests/golden/check_all_p2_p3.txt"
# "At any --jobs", checked: the same lines from one worker, which expands
# every window on the calling thread (the run above uses all cores, so a
# window's states are split between threads). --budget 0 defers the whole
# P>=4 slice, so this pass is the P=2/P=3 roster alone (about 20 s).
cargo run -q --release -p dirtree-check --bin check_all -- --jobs 1 --budget 0 \
  > target/check_all_serial.txt
check_golden target/check_all_serial.txt
echo "check-golden: P=2/P=3 lines at --jobs 1 match tests/golden/check_all_p2_p3.txt"

# Perf smoke: the P=64 slice of the hot-path scaling study must finish
# inside a generous wall-clock budget (catches order-of-magnitude
# simulator regressions, not noise) and its records must stay
# byte-identical to the committed golden — the determinism gate for the
# whole record/replay + parallel-sweep pipeline, from simulation to the
# JSONL writer.
timeout 300 ./target/release/dirtree-bench scale_up \
  --filter P=64 --jobs 2 --out-dir target/perf_smoke >/dev/null
cmp target/perf_smoke/scale_up.jsonl tests/golden/scale_up_p64.jsonl
echo "perf-smoke: records match tests/golden/scale_up_p64.jsonl"
# The same slice on the virtual-channel machine (3 VCs, adaptive e-cube):
# pins the VC timing path and its extended record fields byte-for-byte,
# while the cmp above proves the default path never moved.
cmp target/perf_smoke/scale_up_vc.jsonl tests/golden/scale_up_p64_vc.jsonl
echo "perf-smoke: records match tests/golden/scale_up_p64_vc.jsonl"
# And the credit-bounded VC grid (vc_credits = 8): injection
# backpressure is part of the timing here, so this golden pins the
# credit accounting end to end.
cmp target/perf_smoke/scale_up_vc_credited.jsonl \
  tests/golden/scale_up_p64_vc_credited.jsonl
echo "perf-smoke: records match tests/golden/scale_up_p64_vc_credited.jsonl"

# Adaptive-ablation smoke: the P=16 slice of the update/invalidate
# ablation (DESIGN.md #24). The experiment itself asserts the acceptance
# criterion (adaptive within 1.05x of the best static policy per
# pattern workload); the cmp pins the records — including the detector
# counters and mode-flip counts — byte-for-byte.
timeout 300 ./target/release/dirtree-bench adaptive_ablation \
  --filter P=16 --jobs 2 --out-dir target/adaptive_smoke >/dev/null
cmp target/adaptive_smoke/adaptive_ablation.jsonl tests/golden/adaptive_p16.jsonl
echo "adaptive-smoke: records match tests/golden/adaptive_p16.jsonl"

# Front-end smoke: the whole one-command reproduction (every experiment
# of `all`, about 4 s) must exit 0 — a panicking experiment or a failed
# simulation fails it — and every file it writes (28 JSONL record files
# and 4 figure CSVs) must match the sha256 pinned in
# tests/golden/all_outputs.sha256, listed by path in byte order (a
# mismatch prints a unified diff, so the moved paths are named). Its
# report on stdout (every table of every experiment, no wall times) must
# match tests/golden/all_report.txt line for line. Files and report are
# the same at any --jobs. An unknown experiment name is a usage error
# (exit 64), not a run with defaults.
rm -rf target/all_smoke
./target/release/dirtree-bench all --jobs 2 --out-dir target/all_smoke \
  > target/all_report.txt
(cd target/all_smoke && find . -type f | sed 's|^\./||' | LC_ALL=C sort | xargs sha256sum) \
  | diff -u tests/golden/all_outputs.sha256 -
echo "all-smoke: \`dirtree-bench all\` outputs match tests/golden/all_outputs.sha256"
diff -u tests/golden/all_report.txt target/all_report.txt
echo "all-smoke: \`dirtree-bench all\` report matches tests/golden/all_report.txt"
status=0
./target/release/dirtree-bench no_such_experiment >/dev/null 2>&1 || status=$?
[[ $status -eq 64 ]]
echo "cli-smoke: unknown experiment name exits 64"

# Ledger gates (ROADMAP aim 1: "a 2x regression fails CI"). One
# end-to-end pass of a benchmark workload each; every config digest and
# state count must match benchmark/expected.json (`correct`, no failed
# operation).
#
# The host_s limits are fail_above_ratio x the level BENCH_layers.json's
# ci_gate commits (each the median of ten pinned runs in one block of
# alternating parent/change pairs); the setup_s limits are
# setup_fail_above_ratio x theirs.
ledger_gate() {  # workload; timed iff BENCH_layers.json's ci_gate names it
  python3 benchmark/run.py --workload "$1" --seed 1996 --seconds 10 --trace 0 \
    | tail -n 1 | python3 -c '
import json, sys
workload = sys.argv[1]
result = json.load(sys.stdin)
host_s = result["metrics"]["host_s"]["value"]
setup_s = result["metrics"]["setup_s"]["value"]
ok = result["correct"] and result["failed"] == 0
note = ""
gate = json.load(open("BENCH_layers.json"))["ci_gate"]
committed = gate["workloads"].get(workload)
if committed:
    limit = committed["host_s"] * gate["fail_above_ratio"]
    ok = ok and host_s <= limit
    note = " (committed %.2f s, limit %.2f s)" % (committed["host_s"], limit)
    if "setup_s" in committed:
        setup_limit = committed["setup_s"] * gate["setup_fail_above_ratio"]
        ok = ok and setup_s <= setup_limit
        note += (", setup_s = %.3f s (committed %.3f s, limit %.2f s)"
                 % (setup_s, committed["setup_s"], setup_limit))
print("ledger-gate: %s host_s = %.2f s%s, correct = %s, failed = %d/%d: %s"
      % (workload, host_s, note, result["correct"], result["failed"],
         result["attempted"], "ok" if ok else "FAILED"))
sys.exit(0 if ok else 1)
' "$1"
}
# The protocol-family workload also carries the time ratios. host_s may
# not exceed twice the value committed in BENCH_layers.json (2.14 s; an
# earlier level with 48-byte events and node lists out of line read
# 1.41 s on a quieter host, against 1.76 s with 64-byte events and 2.41 s
# with the binary heap event queue), wide enough for a noisy neighbour,
# tight enough to catch a handler going back to O(machine) per call (that
# was 3.4x). It does not catch the event queue going back to a heap: that
# is 1.47x, and shows as sim.queue_hold_ns (21-32 ns -> 77-102 ns) in a
# `--trace 1` pass and in the PR-21 ledger row, not here. setup_s
# (record LU(80x80) at P=32 by polling its 32 async programs on this
# thread, then build eight machines) gets ten times its committed value,
# not two: at a few hundredths of a second it doubles under a noisy
# neighbour, and the regression it guards — recording going back to one
# rendezvous per operation — is far above ten times (1.45 s pinned).
ledger_gate lu_p32_families
# The two workloads that run Dir_iTree_k's update and per-block write
# policies (lu_p32_families is static invalidate throughout): the twelve
# invalidate/update/adaptive digests at P=256 and the checker's pinned
# state counts for the update, adaptive and ternary shapes. policies_p256
# is timed at the same 2x ratio (7.06 s committed). Its setup_s (record
# four traces at P=256, ~490 k barrier arrivals) is gated at ten times
# 0.33 s: recording them on one OS thread per program took 2.7-4.7 s and
# fails on most runs; the clock-free guard against threads coming back is
# rendezvous::tests::programs_run_on_the_polling_thread. It sends the most
# messages per operation, so a message growing back to 56 bytes (an event
# to 64) shows there first, but at 1.21x on host_s, inside the gate: the
# compile-time size asserts beside Msg and Ev catch that one. check_mix
# is timed at the same 2x ratio since PR 24: the level
# is the one with windowed expand-and-merge over the flat CheckCtx (PR 25;
# 5.68 s committed); going back to whole-layer expansion over the
# map-and-deque context is 2.2x on host_s and fails here. Going back to
# relabeling every permutation of the group would not (1.5x in PR 24);
# what catches the canonicalization is the clock-free `tried`-per-call pin
# in crates/check/tests/exhaustive.rs.
ledger_gate policies_p256
ledger_gate check_mix
# The depth the VC send path is about: no step above takes the
# VC/adaptive branch of Network::send_vc over more than 6 dimensions (the
# goldens stop at P=64; the gates above run vcs = 1 or no network at all).
# Four digests at P=1024 — 3 VCs, adaptive routing, vc_credits 0 and 64 —
# pin every cycle count, wait counter and link/VC histogram the
# plan-driven hop walk and the record-once sampling produce over 10
# dimensions, and the credited pair pins the per-channel park queues.
# About half a minute. host_s is timed at the same 2x ratio (3.27 s
# committed, the level with routes read from the digit table). Putting
# the 2n divisions per send back reads 1.16x, inside the ratio, so this
# catches a hop walk gone badly wrong, not that; the per-send cost shows
# as net.send_ns_per_msg in a `--trace 1` pass.
ledger_gate floyd_p1024_vc
# The scale_up P=64 anchor: the one benchmark workload whose `correct`
# flag no step above read — its records were pinned only through the
# scale_up golden. Its digests against benchmark/expected.json, untimed
# (BENCH_layers.json's ci_gate does not name it).
ledger_gate floyd_p64
