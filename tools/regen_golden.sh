#!/usr/bin/env bash
# Regenerates the report-gate goldens in tests/data/.
#
#   tools/regen_golden.sh [build_dir]     (default: build)
#
# The golden must be produced by EXACTLY the invocation tests/CMakeLists.txt
# uses for the report_gate fixture — same generator flags (default seed 42)
# and an audited gg simulate run with default options — so a fresh run on any
# machine reproduces the scores and gap fields bit-for-bit (timing fields
# differ, but `dasc_report diff` only gates on them when --latency-tol is
# given). Run this after an intentional quality or schema change, eyeball the
# diff, and commit both files:
#
#   golden_report.jsonl     the expected audited gg run
#   regressed_report.jsonl  the golden with score and approx_ratio degraded
#                           by 10% — proof the gate actually fires
#                           (report_gate_detects_regression, WILL_FAIL)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/build}
cli="$build/tools/dasc_cli"
data="$root/tests/data"
[[ -x "$cli" ]] || { echo "regen_golden: $cli not built" >&2; exit 1; }
mkdir -p "$data"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Relative paths keep the report's "instance" field (and so the committed
# golden) byte-identical no matter where the temp dir lands.
(cd "$tmp" &&
 "$cli" generate synthetic gate.dasc \
     --workers=30 --tasks=40 --skills=8 --dep-max=4 &&
 "$cli" simulate gate.dasc gg --audit --ledger \
     --metrics-out="$data/golden_report.jsonl" >/dev/null)

python3 - "$data/golden_report.jsonl" "$data/regressed_report.jsonl" <<'EOF'
import json, sys

src, dst = sys.argv[1], sys.argv[2]
with open(src, encoding="utf-8") as f, open(dst, "w", encoding="utf-8") as out:
    for line in f:
        obj = json.loads(line)
        if obj.get("type") == "stats":
            obj["score"] = int(obj["score"] * 0.9)
            obj["approx_ratio"] = round(obj["approx_ratio"] * 0.9, 6)
            obj["min_batch_gap"] = round(obj["min_batch_gap"] * 0.9, 6)
        out.write(json.dumps(obj) + "\n")
EOF

echo "regen_golden: wrote $data/golden_report.jsonl and regressed_report.jsonl"
