#!/usr/bin/env bash
# Nightly property-stress driver: the long conformance tier plus sanitizer
# sweeps, with a base seed derived from the date so every night covers a
# fresh seed window while any single night stays exactly reproducible.
#
#   tools/run_stress.sh [YYYY-MM-DD] [--seeds N] [--out DIR]
#                       [--skip-sanitizers]
#
# The date argument (default: today, UTC) determines the base seed:
# base_seed = days-since-epoch * 100000 + 1, so consecutive nights use
# disjoint windows as long as N <= 100000 / num-families. Repro files from
# any failing stage are collected ("uploaded") into the --out directory
# (default stress-artifacts/<date>), which CI publishes as the job artifact;
# the script exits nonzero so the nightly goes red.
#
# Stages:
#   1. release build  — dasc_stress --seeds N over all families and oracles
#   2. UBSan build    — same sweep at N/10 (sanitizer-throttled)
#   3. ASan build     — same sweep at N/10
# Sanitizer stages build into build-stress-{ubsan,asan} via DASC_SANITIZE
# and are skipped with --skip-sanitizers (or individually when the
# toolchain lacks the runtime; cmake configuration failure is treated as
# "unavailable", not an error).
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
date_arg=""
seeds=1000
out_dir=""
skip_sanitizers=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seeds) seeds=$2; shift 2 ;;
    --seeds=*) seeds=${1#*=}; shift ;;
    --out) out_dir=$2; shift 2 ;;
    --out=*) out_dir=${1#*=}; shift ;;
    --skip-sanitizers) skip_sanitizers=1; shift ;;
    -*) echo "run_stress: unknown option $1" >&2; exit 2 ;;
    *) date_arg=$1; shift ;;
  esac
done
date_arg=${date_arg:-$(date -u +%F)}
out_dir=${out_dir:-$root/stress-artifacts/$date_arg}

# Fixed seed derivation: days since the Unix epoch for the given date.
days=$(( $(date -u -d "$date_arg" +%s) / 86400 ))
base_seed=$(( days * 100000 + 1 ))
echo "run_stress: date=$date_arg base_seed=$base_seed seeds=$seeds"

failures=0

# run_stage <name> <build_dir> <stage_seeds> <stage_base_seed> <stress_args>
#           [extra cmake args...]
run_stage() {
  local name=$1 build=$2 stage_seeds=$3 stage_base=$4 stress_args=$5; shift 5
  if ! cmake -B "$build" -S "$root" "$@" >/dev/null 2>&1; then
    echo "run_stress: [$name] cmake configure failed; stage skipped"
    return 0
  fi
  cmake --build "$build" -j --target dasc_stress >/dev/null
  local repro_dir="$build/stress-repros-$name"
  rm -rf "$repro_dir"
  # shellcheck disable=SC2086  # stress_args is intentionally word-split
  if "$build/tools/dasc_stress" --seeds="$stage_seeds" \
        --base-seed="$stage_base" --repro-dir="$repro_dir" $stress_args; then
    echo "run_stress: [$name] OK"
  else
    echo "run_stress: [$name] FAILED; collecting repros"
    mkdir -p "$out_dir/$name"
    cp -v "$repro_dir"/*.txt "$out_dir/$name/" 2>/dev/null || true
    failures=$((failures + 1))
  fi
}

run_stage release "$root/build-stress" "$seeds" "$base_seed" "" \
    -DCMAKE_BUILD_TYPE=Release
if [[ $skip_sanitizers -eq 0 ]]; then
  sanitized_seeds=$(( seeds / 10 > 0 ? seeds / 10 : 1 ))
  run_stage ubsan "$root/build-stress-ubsan" "$sanitized_seeds" \
      "$base_seed" "" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDASC_SANITIZE=undefined
  run_stage asan "$root/build-stress-asan" "$sanitized_seeds" \
      "$base_seed" "" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDASC_SANITIZE=address
fi

if [[ $failures -gt 0 ]]; then
  echo "run_stress: $failures stage(s) failed; repros under $out_dir"
  exit 1
fi
echo "run_stress: all stages passed"
