#!/usr/bin/env bash
# End-to-end smoke test of the live telemetry endpoint: start `secview
# serve` on an ephemeral localhost port with a replayed workload, then
# scrape /healthz, /metrics (validated against the Prometheus text
# grammar by the CLI itself), /varz, /statusz, and /memz (the process
# RSS line and the subsystem ledger, in text and secview.mem.v2 JSON)
# through the built-in HTTP client, and finally let the server wind
# down cleanly.
#
# Usage: scripts/telemetry_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
SECVIEW="$BUILD_DIR/src/cli/secview"
if [[ ! -x "$SECVIEW" ]]; then
  # The CLI target location depends on the generator; fall back to a search.
  SECVIEW="$(find "$BUILD_DIR" -name secview -type f -perm -u+x | head -1)"
fi
if [[ -z "$SECVIEW" || ! -x "$SECVIEW" ]]; then
  echo "telemetry_smoke: no secview binary under $BUILD_DIR (build first)" >&2
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

echo "== starting serve (ephemeral port, replayed workload) =="
# --max-seconds caps the lifetime so a broken shutdown path cannot hang
# the gate; the normal exit is the SIGINT below.
"$SECVIEW" serve --dtd "$WORK/hospital.dtd" --spec "$WORK/nurse.spec" \
  --xml "$WORK/doc.xml" --queries "$WORK/queries.txt" --bind wardNo=3 \
  --replay-delay-ms 20 --slow-query-micros 0 --max-seconds 60 \
  --port-file "$PORT_FILE" > "$WORK/serve.out" 2>&1 &
SERVE_PID=$!

PORT=""
for _ in $(seq 1 200); do
  if [[ -s "$PORT_FILE" ]]; then PORT="$(cat "$PORT_FILE")"; break; fi
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "telemetry_smoke: serve exited early:" >&2
    cat "$WORK/serve.out" >&2
    exit 1
  fi
  sleep 0.05
done
[[ -n "$PORT" ]] || { echo "telemetry_smoke: no port file" >&2; exit 1; }
echo "serving on 127.0.0.1:$PORT"

echo "== /healthz =="
"$SECVIEW" scrape --port "$PORT" --retries 3 --path /healthz | grep -q '^ok$' || {
  echo "telemetry_smoke: /healthz not ready" >&2; exit 1; }

echo "== /metrics (validated) =="
METRICS="$("$SECVIEW" scrape --port "$PORT" --retries 3 --validate-prom)"
echo "$METRICS" | grep -q 'secview_engine_queries_total' || {
  echo "telemetry_smoke: /metrics missing engine series" >&2; exit 1; }
echo "$METRICS" | grep -q 'secview_build_info{' || {
  echo "telemetry_smoke: /metrics missing build info" >&2; exit 1; }

echo "== /varz =="
# Captured first, like /metrics and /statusz: piping scrape straight into
# `grep -q` lets grep exit before scrape finishes writing, and the
# scrape's SIGPIPE then fails the pipeline under pipefail.
VARZ="$("$SECVIEW" scrape --port "$PORT" --retries 3 --path /varz)"
echo "$VARZ" | grep -q '"schema": "secview.metrics.v1"' || {
  echo "telemetry_smoke: /varz schema mismatch" >&2; exit 1; }

echo "== /statusz =="
STATUSZ="$("$SECVIEW" scrape --port "$PORT" --retries 3 --path /statusz)"
echo "$STATUSZ" | grep -q 'ready: yes' || {
  echo "telemetry_smoke: /statusz not ready" >&2; exit 1; }
echo "$STATUSZ" | grep -q 'last 10s:' || {
  echo "telemetry_smoke: /statusz missing window stats" >&2; exit 1; }
echo "$STATUSZ" | grep -q 'query=//patient//bill' || {
  echo "telemetry_smoke: /statusz missing slow-query entries" >&2; exit 1; }

echo "== /memz =="
MEMZ="$("$SECVIEW" scrape --port "$PORT" --retries 3 --path /memz)"
echo "$MEMZ" | grep -q 'process: rss [0-9]*B, peak rss [0-9]*B' || {
  echo "telemetry_smoke: /memz missing process RSS line" >&2; exit 1; }
echo "$MEMZ" | grep -q 'memory ledger' || {
  echo "telemetry_smoke: /memz missing ledger" >&2; exit 1; }
echo "$MEMZ" | grep -q 'xml.doc:' || {
  echo "telemetry_smoke: /memz missing the document account" >&2; exit 1; }
MEMZ_JSON="$("$SECVIEW" scrape --port "$PORT" --retries 3 \
  --path '/memz?format=json')"
echo "$MEMZ_JSON" | grep -q '"schema": "secview.mem.v2"' || {
  echo "telemetry_smoke: /memz JSON missing schema tag" >&2; exit 1; }

echo "== graceful shutdown (SIGINT) =="
kill -INT "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
grep -q '# served' "$WORK/serve.out" || {
  echo "telemetry_smoke: serve summary missing:" >&2
  cat "$WORK/serve.out" >&2
  exit 1
}

echo "telemetry_smoke: OK (endpoints live, clean shutdown)"
