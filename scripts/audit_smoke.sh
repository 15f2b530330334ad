#!/usr/bin/env bash
# End-to-end smoke test of the audit trail: one allowed query and one
# denied query against the hospital fixture, then the allowed query
# again through a saved view (`derive --out`, `query --view`), must all
# land in the same JSONL log, pass `secview audit-verify`, and carry the
# right outcomes.
#
# Usage: scripts/audit_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
SECVIEW="$BUILD_DIR/src/cli/secview"
if [[ ! -x "$SECVIEW" ]]; then
  # The CLI target location depends on the generator; fall back to a search.
  SECVIEW="$(find "$BUILD_DIR" -name secview -type f -perm -u+x | head -1)"
fi
if [[ -z "$SECVIEW" || ! -x "$SECVIEW" ]]; then
  echo "audit_smoke: no secview binary under $BUILD_DIR (build first)" >&2
  exit 1
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

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

LOG="$WORK/audit.jsonl"

echo "== allowed query =="
"$SECVIEW" query --dtd "$WORK/hospital.dtd" --spec "$WORK/nurse.spec" \
  --xml "$WORK/doc.xml" --query '//patient/name' --bind wardNo=3 \
  --audit-log "$LOG"

echo "== denied query (unbound \$wardNo; non-zero exit expected) =="
if "$SECVIEW" query --dtd "$WORK/hospital.dtd" --spec "$WORK/nurse.spec" \
  --xml "$WORK/doc.xml" --query '//patient/name' --audit-log "$LOG"; then
  echo "audit_smoke: denied query unexpectedly succeeded" >&2
  exit 1
fi

echo "== saved view: derive --out, then the same query through --view =="
"$SECVIEW" derive --dtd "$WORK/hospital.dtd" --spec "$WORK/nurse.spec" \
  --out "$WORK/nurse.view" > /dev/null
"$SECVIEW" query --dtd "$WORK/hospital.dtd" --view "$WORK/nurse.view" \
  --xml "$WORK/doc.xml" --query '//patient/name' --bind wardNo=3 \
  --audit-log "$LOG"

echo "== verifying trail =="
"$SECVIEW" audit-verify --log "$LOG"

# Compact JSON: no spaces around ':'.
[[ "$(grep -c '"outcome":"ok"' "$LOG")" -eq 2 ]] || {
  echo "audit_smoke: expected 2 ok records (--spec and --view)" >&2; exit 1; }
grep -q '"outcome":"denied"' "$LOG" || {
  echo "audit_smoke: missing denied record" >&2; exit 1; }
[[ "$(wc -l < "$LOG")" -eq 3 ]] || {
  echo "audit_smoke: expected exactly 3 records" >&2; exit 1; }

echo "audit_smoke: OK (3 records incl. the saved view's, schema valid)"
