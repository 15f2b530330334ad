#!/usr/bin/env bash
# Pre-commit gate: AddressSanitizer build + full test suite (including
# the hostile-input hardening suite, docs/robustness.md) + audit smoke +
# fuzz smoke over the seed corpus, then a ThreadSanitizer build running
# the concurrency suite (docs/concurrency.md) — the serve phase must be
# race-free, not merely passing — and finally per-request evaluate
# allocation ceilings (serve_hot, table1_scan) and a short
# oracle-checked run of every perfbench workload.
#
# Usage: scripts/check.sh [BUILD_DIR] [TSAN_BUILD_DIR]
#        (defaults: build-asan, build-tsan)
set -euo pipefail

BUILD_DIR="${1:-build-asan}"
TSAN_BUILD_DIR="${2:-build-tsan}"
JOBS="${JOBS:-2}"

cmake -B "$BUILD_DIR" -S . -DSECVIEW_SANITIZE=address -DSECVIEW_FUZZ=ON
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure

# The hardening suite is part of ctest above; rerun it alone so a
# hostile-input regression is called out by name in the gate output.
"$BUILD_DIR"/tests/hardening_test

# Likewise the optimizer suite: its golden hashes pin every optimizer
# decision, and its deep-chain case runs the containment test 2048
# levels deep under ASan.
"$BUILD_DIR"/tests/optimize_test

scripts/audit_smoke.sh "$BUILD_DIR"

# Live-telemetry smoke: `serve` on an ephemeral port, its endpoints
# scraped through the built-in client (/metrics grammar-validated, /memz
# in text and secview.mem.v2 JSON), then a SIGINT shutdown — under ASan,
# so the socket paths get leak-checked.
scripts/telemetry_smoke.sh "$BUILD_DIR"

# Request-tracing smoke: serve with --trace-sample 1, scrape /tracez in
# both renderings, and round-trip the secview.trace.v1 JSONL through
# `trace-export --validate` and `--chrome`.
scripts/trace_smoke.sh "$BUILD_DIR"

# Plan-profiling smoke: query --profile step tables, the /profilez
# rollup under serve --profile, a secview.profile.v2 JSONL round-trip
# through profile-top, and an off-mode throughput sanity A/B. Export
# SECVIEW_BASELINE_BIN=<pre-profiler secview> for a strict 2% gate.
scripts/profile_smoke.sh "$BUILD_DIR"

# Chaos smoke: serve with failpoints armed hard enough to drop every
# audit record and fail most evaluations, observe degraded /healthz and
# the /statusz fault sections from the outside, shut down cleanly, and
# check the disarmed fast path costs nothing (bench_summary-gated;
# export SECVIEW_BASELINE_BIN=<pre-failpoint secview> for a strict 2%
# micros/query gate). See docs/robustness.md.
scripts/chaos_smoke.sh "$BUILD_DIR"

# The randomized chaos suite is part of ctest above; rerun it alone
# under ASan so an injection-path regression (crash, leak, accounting
# drift between failpoint fires and the mirrored counters) is called
# out by name in the gate output.
echo "== chaos suite under ASan =="
"$BUILD_DIR"/tests/chaos_test

# The allocation tracker replaces global operator new/delete; run its
# unit suite under the ASan build by name to prove the hooks compose
# with the sanitizer's malloc interposition (forwarding to std::malloc
# keeps ASan's redzones and leak checking intact) and, through ASan's
# alloc-dealloc-mismatch check, that every delete the suite calls is
# one of ours.
echo "== alloc tracker under ASan =="
"$BUILD_DIR"/tests/common_test --gtest_filter='AllocTracker*'

# The compiled-plan differential harness (tests/plan_test.cc) is part
# of ctest above; rerun it alone under ASan so an answer that differs
# between the VM and the reference walk is called out by name, then
# replay the XPath seed corpus through the differential fuzzer (every
# accepted query runs on the VM plain, under a tight node budget and
# from caller-supplied contexts, and is compared with the reference
# walk's answer).
echo "== compiled-plan differential harness under ASan =="
"$BUILD_DIR"/tests/plan_test

# Fuzz smoke: replay the seed corpus (and, under the fallback driver,
# every truncation of each seed) through the ASan-instrumented parsers.
# With a clang toolchain these are real libFuzzer binaries; add
# `-runs=10000 tests/corpus/<kind>` for a deeper local session.
echo "== fuzz smoke =="
"$BUILD_DIR"/fuzz/fuzz_xml   tests/corpus/xml/*
"$BUILD_DIR"/fuzz/fuzz_dtd   tests/corpus/dtd/*
"$BUILD_DIR"/fuzz/fuzz_xpath tests/corpus/xpath/*
"$BUILD_DIR"/fuzz/fuzz_plan_diff tests/corpus/xpath/*

# TSan and ASan cannot share a build tree; the concurrent tests are the
# ones with real thread interleavings to check. net_test/telemetry_test
# cover the HTTP server's accept/worker handoff and scrape-while-serving
# against the sliding-window and slow-query-ring writers; chaos_test
# races randomized failpoint injection against the concurrent serving
# path (pool workers, audit sink, telemetry sockets).
cmake -B "$TSAN_BUILD_DIR" -S . -DSECVIEW_SANITIZE=thread
cmake --build "$TSAN_BUILD_DIR" -j "$JOBS" \
  --target concurrent_test net_test telemetry_test chaos_test heap_test
"$TSAN_BUILD_DIR"/tests/concurrent_test
"$TSAN_BUILD_DIR"/tests/net_test
"$TSAN_BUILD_DIR"/tests/telemetry_test
"$TSAN_BUILD_DIR"/tests/chaos_test
# heap_test races ledger charges, scratch-pool publication, and snapshot
# scrapes against each other, so this run proves the ledger and
# scratch-pool accounting is race-free.
"$TSAN_BUILD_DIR"/tests/heap_test

# End-to-end correctness gate: one short run of each perfbench workload
# through SecureQueryEngine::Execute (the path `serve` runs). run.py
# exits non-zero when any answer disagrees with the workload's oracle.
# One-second runs on a shared host are too noisy to gate speed on, so
# this checks answers only; perf claims come from full-length runs
# (perfbench/README.md).
# Evaluate-allocation gate: heap bytes the evaluate phase allocates per
# request on the serving path (Execute, as `serve` runs it), from a
# 1-second traced serve_hot run. The ceiling is 1.5x the 272.4 B/request
# measured at commit 4a6c150 (seed 1, stable to 0.1 B across runs), the
# same margin the bench_engine gate it replaces allowed over its own
# measurement (36604/23526 ~= 1.56). Allocation bytes do not depend on
# timing, so a one-second run gates them exactly enough.
echo "== evaluate allocation gate =="
evaluate_bytes=$(python3 perfbench/run.py --workload serve_hot --seed 1 \
  --seconds 1 --trace 1 | tail -n 1 | python3 -c 'import json, sys
print(json.load(sys.stdin)["metrics"]["common.evaluate_alloc_bytes_per_req"]["value"])')
echo "common.evaluate_alloc_bytes_per_req = $evaluate_bytes (ceiling 408)"
awk -v bytes="$evaluate_bytes" 'BEGIN { exit !(bytes <= 408) }'

# The same gate where filters are decided by semi-joins over the path
# summary: a 1-second traced table1_scan run. The ceiling is 1.5x the
# 216.9 B/request measured before semi-joins existed (seed 1, two runs,
# identical to 0.1 B), the margin of the serve_hot gate above. The
# semi-join's sets come from the scratch pool, so steady state adds
# nothing to it.
evaluate_bytes=$(python3 perfbench/run.py --workload table1_scan --seed 1 \
  --seconds 1 --trace 1 | tail -n 1 | python3 -c 'import json, sys
print(json.load(sys.stdin)["metrics"]["common.evaluate_alloc_bytes_per_req"]["value"])')
echo "table1_scan common.evaluate_alloc_bytes_per_req = $evaluate_bytes (ceiling 325)"
awk -v bytes="$evaluate_bytes" 'BEGIN { exit !(bytes <= 325) }'

echo "== perfbench oracle gate =="
for workload in serve_hot table1_scan prepare_cold recursive_height; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
    --trace 0 >/dev/null
done

echo "check: all green"
