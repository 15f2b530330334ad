#!/usr/bin/env bash
# End-to-end smoke test of the memory observatory: `serve --heap-sample`
# samples allocation sites; /heapz renders text (with the process RSS /
# peak-RSS line) and the secview.heap.v2 JSON that round-trips through
# `heap-export` (text, collapsed, JSON); /memz reports the process line
# and the subsystem ledger with the served document charged; and an
# off-mode A/B run of bench-serve checks that the profiler's detached
# observer hooks do not cost throughput.
#
# Overhead modes:
#   - With SECVIEW_BASELINE_BIN set to a pre-observatory secview binary,
#     compares this binary (sampling off) against it and fails above
#     SECVIEW_HEAP_BASELINE_PCT (default 2%).
#   - Otherwise compares sampling-off vs sampling-on in this binary and
#     fails if "off" is slower than "on" by more than
#     SECVIEW_HEAP_OVERHEAD_PCT (default 10%) — a sanity ceiling, not a
#     benchmark; sanitizer builds are noisy.
#
# Under sanitizer builds the profiler refuses to start (frame-pointer
# walks and an interposed malloc do not mix); serve prints a skip notice
# and this script degrades to checking the endpoints, the export
# round-trip on an empty profile, and the ledger.
#
# Usage: scripts/heap_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
SECVIEW="$BUILD_DIR/src/cli/secview"
if [[ ! -x "$SECVIEW" ]]; then
  # The CLI target location depends on the generator; fall back to a search.
  SECVIEW="$(find "$BUILD_DIR" -name secview -type f -perm -u+x | head -1)"
fi
if [[ -z "$SECVIEW" || ! -x "$SECVIEW" ]]; then
  echo "heap_smoke: no secview binary under $BUILD_DIR (build first)" >&2
  exit 1
fi
BENCH_SUMMARY="$BUILD_DIR/tools/bench_summary"
if [[ ! -x "$BENCH_SUMMARY" ]]; then
  echo "heap_smoke: no bench_summary under $BUILD_DIR (build first)" >&2
  exit 1
fi

WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  if [[ -n "$SERVE_PID" ]] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill -INT "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

cat > "$WORK/hospital.dtd" <<'EOF'
<!ELEMENT hospital (dept)*>
<!ELEMENT dept (clinicalTrial, patientInfo, staffInfo)>
<!ELEMENT clinicalTrial (patientInfo, test)>
<!ELEMENT patientInfo (patient)*>
<!ELEMENT patient (name, wardNo, treatment)>
<!ELEMENT treatment (trial | regular)>
<!ELEMENT trial (bill)>
<!ELEMENT regular (bill, medication)>
<!ELEMENT staffInfo (staff)*>
<!ELEMENT staff (doctor | nurse)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT wardNo (#PCDATA)>
<!ELEMENT test (#PCDATA)>
<!ELEMENT bill (#PCDATA)>
<!ELEMENT medication (#PCDATA)>
<!ELEMENT doctor (#PCDATA)>
<!ELEMENT nurse (#PCDATA)>
EOF

cat > "$WORK/nurse.spec" <<'EOF'
ann(hospital, dept) = [*/patient/wardNo = $wardNo]
ann(dept, clinicalTrial) = N
ann(clinicalTrial, patientInfo) = Y
ann(treatment, trial) = N
ann(treatment, regular) = N
ann(trial, bill) = Y
ann(regular, bill) = Y
ann(regular, medication) = Y
EOF

cat > "$WORK/doc.xml" <<'EOF'
<hospital><dept>
  <clinicalTrial>
    <patientInfo><patient><name>carol</name><wardNo>3</wardNo>
      <treatment><trial><bill>900</bill></trial></treatment>
    </patient></patientInfo>
    <test>blood</test>
  </clinicalTrial>
  <patientInfo><patient><name>dave</name><wardNo>3</wardNo>
    <treatment><regular><bill>120</bill><medication>m</medication></regular></treatment>
  </patient></patientInfo>
  <staffInfo/>
</dept></hospital>
EOF

cat > "$WORK/queries.txt" <<'EOF'
//patient//bill
//patient/name
//patient
EOF

PORT_FILE="$WORK/serve.port"
echo "== serve --heap-sample 4096 (ephemeral port) =="
"$SECVIEW" serve --dtd "$WORK/hospital.dtd" --spec "$WORK/nurse.spec" \
  --xml "$WORK/doc.xml" --queries "$WORK/queries.txt" --bind wardNo=3 \
  --replay-delay-ms 20 --heap-sample 4096 --max-seconds 60 \
  --port-file "$PORT_FILE" > "$WORK/serve.out" 2>&1 &
SERVE_PID=$!

PORT=""
for _ in $(seq 1 200); do
  if [[ -s "$PORT_FILE" ]]; then PORT="$(cat "$PORT_FILE")"; break; fi
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "heap_smoke: serve exited early:" >&2
    cat "$WORK/serve.out" >&2
    exit 1
  fi
  sleep 0.05
done
[[ -n "$PORT" ]] || { echo "heap_smoke: no port file" >&2; exit 1; }
echo "serving on 127.0.0.1:$PORT"

# The profiler notice is printed just before the port file is written;
# allow the stream a moment to flush, then branch on it. A sanitizer
# build refuses to sample (skip notice) — the endpoints still serve.
SAMPLING=""
for _ in $(seq 1 100); do
  if grep -q '# heap profiler: sampling' "$WORK/serve.out"; then
    SAMPLING=1; break
  fi
  if grep -q '# heap profiler skipped:' "$WORK/serve.out"; then
    SAMPLING=0; break
  fi
  sleep 0.05
done
[[ -n "$SAMPLING" ]] || {
  echo "heap_smoke: serve printed no heap-profiler notice:" >&2
  cat "$WORK/serve.out" >&2
  exit 1
}
if [[ "$SAMPLING" == 1 ]]; then
  echo "profiler sampling (see serve.out notice)"
else
  echo "profiler skipped (sanitizer build); degrading to endpoint checks"
fi

echo "== /heapz (text) =="
HEAPZ="$("$SECVIEW" scrape --port "$PORT" --retries 3 --path /heapz)"
echo "$HEAPZ" | grep -q 'heap profile:' || {
  echo "heap_smoke: /heapz missing site header" >&2; exit 1; }
echo "$HEAPZ" | grep -q 'process: rss [0-9]*B, peak rss [0-9]*B' || {
  echo "heap_smoke: /heapz missing process RSS line" >&2; exit 1; }

echo "== /heapz?format=json =="
if [[ "$SAMPLING" == 1 ]]; then
  # Let the replay loop trip a few samples before snapshotting.
  GOT_SITES=0
  for _ in $(seq 1 100); do
    "$SECVIEW" scrape --port "$PORT" --path '/heapz?format=json' \
      > "$WORK/heapz.json"
    if grep -q '"pcs"' "$WORK/heapz.json"; then GOT_SITES=1; break; fi
    sleep 0.05
  done
  [[ "$GOT_SITES" == 1 ]] || {
    echo "heap_smoke: sampling on but no allocation site ever recorded" >&2
    cat "$WORK/heapz.json" >&2
    exit 1
  }
else
  "$SECVIEW" scrape --port "$PORT" --retries 3 \
    --path '/heapz?format=json' > "$WORK/heapz.json"
fi
grep -q '"schema": "secview.heap.v2"' "$WORK/heapz.json" || {
  echo "heap_smoke: /heapz JSON missing schema tag" >&2; exit 1; }

echo "== heap-export round-trip (text, collapsed, JSON) =="
# Every heap-export run re-validates its input against secview.heap.v2.
"$SECVIEW" heap-export --in "$WORK/heapz.json" --k 5 > "$WORK/heap.txt"
grep -q 'heap profile:' "$WORK/heap.txt" || {
  echo "heap_smoke: heap-export text render missing header" >&2
  cat "$WORK/heap.txt" >&2; exit 1; }
# Collapsed output may legitimately be empty (sites whose live bytes
# drained to zero are skipped); the run itself must still validate.
"$SECVIEW" heap-export --in "$WORK/heapz.json" --collapsed \
  > "$WORK/heap.collapsed"
"$SECVIEW" heap-export --in "$WORK/heapz.json" --json \
  --out "$WORK/heap.rt.json"
"$SECVIEW" heap-export --in "$WORK/heap.rt.json" --k 5 > /dev/null || {
  echo "heap_smoke: re-exported JSON failed validation" >&2; exit 1; }

echo "== /memz (ledger) =="
MEMZ="$("$SECVIEW" scrape --port "$PORT" --retries 3 --path /memz)"
echo "$MEMZ" | grep -q 'process: rss [0-9]*B, peak rss [0-9]*B' || {
  echo "heap_smoke: /memz missing process RSS line" >&2; exit 1; }
echo "$MEMZ" | grep -q 'memory ledger' || {
  echo "heap_smoke: /memz missing ledger" >&2; exit 1; }
echo "$MEMZ" | grep -q 'xml.doc:' || {
  echo "heap_smoke: /memz missing the document account" >&2; exit 1; }
"$SECVIEW" scrape --port "$PORT" --retries 3 --path '/memz?format=json' \
  | grep -q '"schema": "secview.mem.v2"' || {
  echo "heap_smoke: /memz JSON missing schema tag" >&2; exit 1; }

echo "== graceful shutdown (SIGINT) =="
kill -INT "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
grep -q '# served' "$WORK/serve.out" || {
  echo "heap_smoke: serve summary missing:" >&2
  cat "$WORK/serve.out" >&2
  exit 1
}

bench_micros() {
  # bench_micros OUT.json BIN [extra flags...] -> writes a bench_summary
  # comparable {"metrics": {"counters": {"micros_per_query": X}}} file
  # from the median throughput of 3 bench-serve runs (micros/query is
  # less-is-better, which is the direction --fail-above gates).
  local out_json="$1" bin="$2"; shift 2
  local runs=()
  for _ in 1 2 3; do
    local out
    out="$("$bin" bench-serve --dtd "$WORK/hospital.dtd" \
      --spec "$WORK/nurse.spec" --xml "$WORK/doc.xml" \
      --queries "$WORK/queries.txt" --bind wardNo=3 \
      --threads 2 --repeat 200 "$@")"
    runs+=("$(echo "$out" | sed -n 's/^throughput: \([0-9.e+]*\) queries.*/\1/p')")
  done
  local median
  median="$(printf '%s\n' "${runs[@]}" | sort -g | sed -n 2p)"
  awk -v qps="$median" 'BEGIN {
    printf "{\"metrics\": {\"counters\": {\"micros_per_query\": %.3f}}}\n",
           1000000.0 / qps }' > "$out_json"
}

if [[ -n "${SECVIEW_BASELINE_BIN:-}" ]]; then
  echo "== off-mode overhead vs baseline binary =="
  LIMIT_PCT="${SECVIEW_HEAP_BASELINE_PCT:-2}"
  bench_micros "$WORK/base.json" "$SECVIEW_BASELINE_BIN"
  bench_micros "$WORK/off.json" "$SECVIEW"
  "$BENCH_SUMMARY" --fail-above "$LIMIT_PCT" \
    "$WORK/base.json" "$WORK/off.json" || {
    echo "heap_smoke: sampling-off run lost >${LIMIT_PCT}% vs baseline" >&2
    exit 1
  }
elif [[ "$SAMPLING" != 1 ]]; then
  # The profiler refused to start, so an on-vs-off A/B would compare two
  # identical off-mode runs and gate on pure sanitizer noise.
  echo "== off-mode sanity skipped (profiler unavailable in this build) =="
else
  echo "== off-mode sanity: sampling off must not be slower than on =="
  LIMIT_PCT="${SECVIEW_HEAP_OVERHEAD_PCT:-10}"
  bench_micros "$WORK/on.json" "$SECVIEW" --heap-sample 4096
  bench_micros "$WORK/off.json" "$SECVIEW"
  "$BENCH_SUMMARY" --fail-above "$LIMIT_PCT" \
    "$WORK/on.json" "$WORK/off.json" || {
    echo "heap_smoke: off-mode run slower than sampled run by >${LIMIT_PCT}%" >&2
    exit 1
  }
fi

echo "heap_smoke: OK (/heapz + /memz live, heap-export round-trip, off-mode cost in bounds)"
