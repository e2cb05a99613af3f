#!/usr/bin/env bash
# Jobs-determinism check: every table a suite writes must be
# byte-identical at --jobs 1 and at --jobs 4.
#
#   scripts/jobs_determinism.sh BENCH_BIN SUITES [OPTION...]
#
# Runs `BENCH_BIN --suite SUITES` (a topkmon_bench binary and a
# comma-separated suite list) once at --jobs 1 and once at --jobs 4,
# passing the remaining options through (e.g. --steps 100 --trials 2),
# each into its own temporary out-dir. Then it diffs the two directories
# recursively, every CSV/JSON table included, except the
# machine-dependent BENCH_*.json wall-clock records. Exits 0 when every
# table matches, 1 on any difference or when the suites wrote no table,
# 2 on a usage error.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 BENCH_BIN SUITES [OPTION...]" >&2
  exit 2
fi
BIN="$1"
SUITES="$2"
shift 2

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

for jobs in 1 4; do
  "$BIN" --suite "$SUITES" --jobs "$jobs" "$@" --out-dir "$WORK/j$jobs"
done

count=$(find "$WORK/j1" -type f ! -name 'BENCH_*.json' | wc -l)
if ((count == 0)); then
  echo "jobs_determinism: $SUITES wrote no tables" >&2
  exit 1
fi
if diff -r -x 'BENCH_*.json' "$WORK/j1" "$WORK/j4"; then
  echo "jobs_determinism: $SUITES: $count tables identical at --jobs 1 and 4"
else
  echo "jobs_determinism: $SUITES: tables differ between --jobs 1 and 4" >&2
  exit 1
fi
