#!/usr/bin/env bash
# Fingerprint check: the experiment suites must write byte-identical
# CSV/JSON tables before and after a change at equal seeds.
#
#   scripts/fingerprint_diff.sh BASE_REF
#
# Builds BASE_REF (in a temporary git worktree) and the current working
# tree, runs e1-e20 plus the perf suite on both with the same small
# settings, and diffs every CSV/JSON they write except the
# machine-dependent BENCH_*.json wall-clock records. Exits 0 when all
# fingerprints match, 1 on any difference. Takes ~6 min per tree on one
# core; set CMAKE_CXX_COMPILER_LAUNCHER=ccache to reuse compiler output.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BASE_REF" >&2
  exit 2
fi
BASE_REF="$1"
ROOT=$(git rev-parse --show-toplevel)
SUITES=e1,e2,e3,e4,e5,e6,e7,e8,e9,e10,e12,e13,e14,e15,e16,e18_shards,e19_churn,e20_adversarial,perf

WORK=$(mktemp -d)
cleanup() {
  git -C "$ROOT" worktree remove --force "$WORK/base" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

git -C "$ROOT" worktree add --detach --quiet "$WORK/base" "$BASE_REF"

generator=()
if command -v ninja >/dev/null; then generator=(-G Ninja); fi

# fingerprints SOURCE_DIR NAME: builds the CLI from SOURCE_DIR and writes
# the suite tables to $WORK/NAME-out.
fingerprints() {
  local src="$1" name="$2"
  cmake -S "$src" -B "$WORK/$name-build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release -DTOPKMON_BUILD_TESTS=OFF \
    -DTOPKMON_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$WORK/$name-build" --target topkmon_bench \
    -j "$(nproc)" >/dev/null
  echo "fingerprint_diff: running suites on $name" >&2
  "$WORK/$name-build/topkmon_bench" --suite "$SUITES" --steps 60 \
    --trials 2 --seed 1 --jobs 1 --out-dir "$WORK/$name-out" >/dev/null
}

fingerprints "$WORK/base" base
fingerprints "$ROOT" head

if diff -r -x 'BENCH_*.json' "$WORK/base-out" "$WORK/head-out"; then
  count=$(find "$WORK/head-out" \( -name '*.csv' -o -name '*.json' \) \
            ! -name 'BENCH_*.json' | wc -l)
  echo "fingerprint_diff: $count tables byte-identical to $BASE_REF"
else
  echo "fingerprint_diff: tables differ from $BASE_REF" >&2
  exit 1
fi
