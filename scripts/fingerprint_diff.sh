#!/usr/bin/env bash
# Fingerprint check: the experiment suites must write byte-identical
# CSV/JSON tables before and after a change at equal seeds.
#
#   scripts/fingerprint_diff.sh BASE_REF
#
# Exports BASE_REF (git archive, into a temporary directory) and builds
# it and the current working tree. The suites run are every suite both
# CLIs list (`topkmon_bench --list`) except `micro`; a suite listed on
# one side only is printed and skipped. Both trees run them with the
# same small settings, then every CSV/JSON they write is diffed except
# the machine-dependent BENCH_*.json wall-clock records. Exits 0 when
# all fingerprints match, 1 on any difference. The suites run at
# `--jobs $(nproc)` (capped at 256, the CLI's limit): every suite's
# tables are byte-identical at any --jobs, so the parallel grain changes
# only the wall time. The suites take ~8 CPU-minutes per tree, ~3.5 min
# of wall time on four cores (the longest suites bound it), plus the
# builds; set CMAKE_CXX_COMPILER_LAUNCHER=ccache to reuse compiler
# output.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BASE_REF" >&2
  exit 2
fi
BASE_REF="$1"
ROOT=$(git rev-parse --show-toplevel)

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

mkdir "$WORK/base"
git -C "$ROOT" archive "$BASE_REF" | tar -x -C "$WORK/base"

generator=()
if command -v ninja >/dev/null; then generator=(-G Ninja); fi

# build SOURCE_DIR NAME: builds the CLI from SOURCE_DIR into
# $WORK/NAME-build and writes its suite names to $WORK/NAME-suites.
build() {
  local src="$1" name="$2"
  cmake -S "$src" -B "$WORK/$name-build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release -DTOPKMON_BUILD_TESTS=OFF \
    -DTOPKMON_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$WORK/$name-build" --target topkmon_bench \
    -j "$(nproc)" >/dev/null
  "$WORK/$name-build/topkmon_bench" --list |
    awk '/^  [A-Za-z0-9_]+ / { print $1 }' | sort >"$WORK/$name-suites"
}

build "$WORK/base" base
build "$ROOT" head

only=$(comm -3 "$WORK/base-suites" "$WORK/head-suites" | tr -d '\t')
if [[ -n "$only" ]]; then
  echo "fingerprint_diff: skipping suites listed on one side only:" \
    $only >&2
fi
SUITES=$(comm -12 "$WORK/base-suites" "$WORK/head-suites" |
  grep -vx micro | paste -sd, -)
JOBS=$(nproc)
if ((JOBS > 256)); then JOBS=256; fi

for name in base head; do
  echo "fingerprint_diff: running $SUITES on $name" >&2
  "$WORK/$name-build/topkmon_bench" --suite "$SUITES" --steps 60 \
    --trials 2 --seed 1 --jobs "$JOBS" --out-dir "$WORK/$name-out" >/dev/null
done

if diff -r -x 'BENCH_*.json' "$WORK/base-out" "$WORK/head-out"; then
  count=$(find "$WORK/head-out" \( -name '*.csv' -o -name '*.json' \) \
            ! -name 'BENCH_*.json' | wc -l)
  echo "fingerprint_diff: $count tables byte-identical to $BASE_REF"
else
  echo "fingerprint_diff: tables differ from $BASE_REF" >&2
  exit 1
fi
