#!/usr/bin/env bash
# End-to-end smoke test of plan profiling: `query --profile` prints a
# per-step table whose JSONL export validates and round-trips through
# `profile-top`; `serve --profile` exposes the lock-striped rollup on
# /profilez (text and secview.profile.v2 JSON); and an off-mode A/B run
# of bench-serve checks that a binary with the profiler compiled in but
# switched off does not lose throughput.
#
# Overhead modes:
#   - With SECVIEW_BASELINE_BIN set to a pre-profiler secview binary,
#     compares this binary (profiling off) against it and fails above
#     SECVIEW_PROFILE_BASELINE_PCT (default 2%).
#   - Otherwise compares profiling-on vs profiling-off in this binary
#     and fails if "off" is slower than "on" by more than
#     SECVIEW_PROFILE_OVERHEAD_PCT (default 10%) — a sanity ceiling,
#     not a benchmark; sanitizer builds are noisy.
#
# Usage: scripts/profile_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
SECVIEW="$BUILD_DIR/src/cli/secview"
if [[ ! -x "$SECVIEW" ]]; then
  # The CLI target location depends on the generator; fall back to a search.
  SECVIEW="$(find "$BUILD_DIR" -name secview -type f -perm -u+x | head -1)"
fi
if [[ -z "$SECVIEW" || ! -x "$SECVIEW" ]]; then
  echo "profile_smoke: no secview binary under $BUILD_DIR (build first)" >&2
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

echo "== query --profile (per-step table) =="
"$SECVIEW" query --dtd "$WORK/hospital.dtd" --spec "$WORK/nurse.spec" \
  --xml "$WORK/doc.xml" --query '//patient//bill' --bind wardNo=3 \
  --profile --profile-json "$WORK/profile.jsonl" > "$WORK/query.out"
grep -q 'plan profile (exclusive per-step costs' "$WORK/query.out" || {
  echo "profile_smoke: query --profile missing step table" >&2
  cat "$WORK/query.out" >&2; exit 1; }
grep -q 'hot step: .* nodes=' "$WORK/query.out" || {
  echo "profile_smoke: query --profile missing hot-step line" >&2; exit 1; }
grep -q 'secview.profile.v2' "$WORK/profile.jsonl" || {
  echo "profile_smoke: JSONL missing schema tag" >&2; exit 1; }

echo "== profile-top round-trip =="
"$SECVIEW" profile-top --in "$WORK/profile.jsonl" --k 5 > "$WORK/top.out"
grep -q 'plan profile: .* across 1 profiled query' "$WORK/top.out" || {
  echo "profile_smoke: profile-top did not aggregate the JSONL" >&2
  cat "$WORK/top.out" >&2; exit 1; }

PORT_FILE="$WORK/serve.port"
echo "== serve --profile (ephemeral port) =="
"$SECVIEW" serve --dtd "$WORK/hospital.dtd" --spec "$WORK/nurse.spec" \
  --xml "$WORK/doc.xml" --queries "$WORK/queries.txt" --bind wardNo=3 \
  --replay-delay-ms 20 --profile --max-seconds 60 \
  --port-file "$PORT_FILE" > "$WORK/serve.out" 2>&1 &
SERVE_PID=$!

PORT=""
for _ in $(seq 1 200); do
  if [[ -s "$PORT_FILE" ]]; then PORT="$(cat "$PORT_FILE")"; break; fi
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "profile_smoke: serve exited early:" >&2
    cat "$WORK/serve.out" >&2
    exit 1
  fi
  sleep 0.05
done
[[ -n "$PORT" ]] || { echo "profile_smoke: no port file" >&2; exit 1; }
echo "serving on 127.0.0.1:$PORT"

# Let the replay loop record a few profiled queries before scraping.
PROFILED=0
for _ in $(seq 1 100); do
  PROFILEZ="$("$SECVIEW" scrape --port "$PORT" --path /profilez)"
  PROFILED="$(echo "$PROFILEZ" | sed -n 's/^plan profile: .* across \([0-9]*\) profiled.*/\1/p')"
  [[ -n "$PROFILED" && "$PROFILED" -gt 0 ]] && break
  sleep 0.05
done
[[ -n "$PROFILED" && "$PROFILED" -gt 0 ]] || {
  echo "profile_smoke: /profilez never aggregated a query:" >&2
  echo "$PROFILEZ" >&2
  exit 1
}

echo "== /profilez ($PROFILED queries aggregated) =="
echo "$PROFILEZ" | grep -q 'child::' || {
  echo "profile_smoke: /profilez missing per-step rows" >&2; exit 1; }

echo "== /profilez?format=json =="
"$SECVIEW" scrape --port "$PORT" --path '/profilez?format=json' \
  > "$WORK/profilez.json"
grep -q '"schema": "secview.profile.v2"' "$WORK/profilez.json" || {
  echo "profile_smoke: /profilez JSON missing schema tag" >&2; exit 1; }
grep -q '"steps"' "$WORK/profilez.json" || {
  echo "profile_smoke: /profilez JSON missing steps array" >&2; exit 1; }

echo "== graceful shutdown (SIGINT) =="
kill -INT "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
grep -q '# served' "$WORK/serve.out" || {
  echo "profile_smoke: serve summary missing:" >&2
  cat "$WORK/serve.out" >&2
  exit 1
}

bench_qps() {
  # bench_qps BIN [extra flags...] -> median throughput of 3 runs
  local bin="$1"; shift
  local runs=()
  for _ in 1 2 3; do
    local out
    out="$("$bin" bench-serve --dtd "$WORK/hospital.dtd" \
      --spec "$WORK/nurse.spec" --xml "$WORK/doc.xml" \
      --queries "$WORK/queries.txt" --bind wardNo=3 \
      --threads 2 --repeat 200 "$@")"
    runs+=("$(echo "$out" | sed -n 's/^throughput: \([0-9.e+]*\) queries.*/\1/p')")
  done
  printf '%s\n' "${runs[@]}" | sort -g | sed -n 2p
}

if [[ -n "${SECVIEW_BASELINE_BIN:-}" ]]; then
  echo "== off-mode overhead vs baseline binary =="
  LIMIT_PCT="${SECVIEW_PROFILE_BASELINE_PCT:-2}"
  BASE_QPS="$(bench_qps "$SECVIEW_BASELINE_BIN")"
  OFF_QPS="$(bench_qps "$SECVIEW")"
  echo "baseline: $BASE_QPS qps, profiler-off: $OFF_QPS qps (limit ${LIMIT_PCT}%)"
  awk -v base="$BASE_QPS" -v off="$OFF_QPS" -v pct="$LIMIT_PCT" \
    'BEGIN { exit (off >= base * (1 - pct / 100)) ? 0 : 1 }' || {
    echo "profile_smoke: profiler-off run lost >${LIMIT_PCT}% vs baseline" >&2
    exit 1
  }
else
  echo "== off-mode sanity: profiling off must not be slower than on =="
  LIMIT_PCT="${SECVIEW_PROFILE_OVERHEAD_PCT:-10}"
  OFF_QPS="$(bench_qps "$SECVIEW")"
  ON_QPS="$(bench_qps "$SECVIEW" --profile)"
  echo "profiler-off: $OFF_QPS qps, profiler-on: $ON_QPS qps (ceiling ${LIMIT_PCT}%)"
  awk -v off="$OFF_QPS" -v on="$ON_QPS" -v pct="$LIMIT_PCT" \
    'BEGIN { exit (off >= on * (1 - pct / 100)) ? 0 : 1 }' || {
    echo "profile_smoke: off-mode run slower than profiled run by >${LIMIT_PCT}%" >&2
    exit 1
  }
fi

echo "profile_smoke: OK (per-step tables, /profilez rollup, off-mode cost in bounds)"
