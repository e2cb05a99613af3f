#!/usr/bin/env bash
# Interleaved perfbench pairs of two commits, judged against layout noise.
#
#   scripts/perf_pairs.sh BASE_REF CHANGE_REF WORKLOAD [SEED [SECONDS [ROUNDS]]]
#
# Exports BASE_REF and CHANGE_REF (git archive, into a temporary
# directory) and builds perfbench from each at three code layouts: a pad
# of 0, 16 and 32 bytes appended to the cold `.text.unlikely` section.
# GNU ld places that section before every other function, so the pad
# shifts each hot function by exactly that many bytes without changing
# any instruction. The script prints the address of one hot function per
# build to show the shift.
#
# It then runs ROUNDS rounds (default 2). Each round runs, for every pad,
# one base/change pair of `perfbench_run --workload WORKLOAD --seed SEED
# --seconds SECONDS --trace 0` (defaults: seed 1, 10 s), the two sides in
# alternating order from round to round. Per metric it prints the base
# and change medians over every run, the change's delta, the number of
# pairs the change won, the base's run-to-run spread (interquartile range
# of all its runs over their median) and each side's layout spread (the
# range of the per-pad medians over the median of all runs). A delta
# smaller than either base spread is indistinguishable from noise or
# from moving code by a few bytes.
#
# Set TMPDIR to keep the work tree (six builds) off /tmp. Exits non-zero
# when a build fails or any run reports a wrong answer.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 6 ]]; then
  echo "usage: $0 BASE_REF CHANGE_REF WORKLOAD [SEED [SECONDS [ROUNDS]]]" >&2
  exit 2
fi
BASE_REF="$1"
CHANGE_REF="$2"
WORKLOAD="$3"
SEED="${4:-1}"
SECONDS_PER_RUN="${5:-10}"
ROUNDS="${6:-2}"
PADS=(0 16 32)
ROOT=$(git rev-parse --show-toplevel)

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

generator=()
if command -v ninja >/dev/null; then generator=(-G Ninja); fi
JOBS=$(nproc)
if ((JOBS > 4)); then JOBS=4; fi

# build NAME REF: one perfbench tree per ref, relinked once per pad into
# $WORK/bin/NAME-padP. Only the padded object recompiles between pads.
build() {
  local name="$1" ref="$2" src="$WORK/$1-src"
  mkdir -p "$src" "$WORK/bin"
  git -C "$ROOT" archive "$ref" | tar -x -C "$src"
  local padded="$src/src/sim/network.cpp"
  cp "$padded" "$WORK/$name-network.cpp"
  cmake -S "$src/perfbench" -B "$WORK/$name-build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >/dev/null
  for pad in "${PADS[@]}"; do
    cp "$WORK/$name-network.cpp" "$padded"
    if ((pad > 0)); then
      printf '%s\n' '' \
        'asm(".pushsection .text.unlikely,\"ax\",@progbits\n"' \
        "    \".fill $pad,1,0xcc\\n.popsection\");" >>"$padded"
    fi
    cmake --build "$WORK/$name-build" -j "$JOBS" >/dev/null
    cp "$WORK/$name-build/perfbench_run" "$WORK/bin/$name-pad$pad"
    local addr
    addr=$(nm -C "$WORK/bin/$name-pad$pad" |
      awk '/ T topkmon::SimDriver::run_tick\(\)$/ { print $1 }')
    echo "perf_pairs: built $name ($ref) pad $pad: SimDriver::run_tick at" \
      "0x${addr:-?}" >&2
  done
}

build base "$BASE_REF"
build change "$CHANGE_REF"

# run NAME PAD ROUND: one perfbench run; its JSON line lands in
# $WORK/runs/NAME-padPAD-rROUND.json.
mkdir -p "$WORK/runs"
run() {
  local out="$WORK/runs/$1-pad$2-r$3.json"
  "$WORK/bin/$1-pad$2" --workload "$WORKLOAD" --seed "$SEED" \
    --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 1 >"$out"
}

for ((r = 0; r < ROUNDS; r++)); do
  for pad in "${PADS[@]}"; do
    if ((r % 2 == 0)); then
      run base "$pad" "$r"
      run change "$pad" "$r"
    else
      run change "$pad" "$r"
      run base "$pad" "$r"
    fi
    echo "perf_pairs: round $((r + 1))/$ROUNDS pad $pad done" >&2
  done
done

python3 - "$WORK/runs" "$ROOT/BENCHMARK.json" "$WORKLOAD" "$SEED" \
  "$ROUNDS" "${PADS[@]}" <<'EOF'
import json
import os
import statistics
import sys

runs_dir, bench_path, workload, seed, rounds = sys.argv[1:6]
pads = [int(p) for p in sys.argv[6:]]
rounds = int(rounds)

with open(bench_path) as f:
    bench = json.load(f)
better = {m["name"]: m["better"] for m in bench["end_to_end"]}

def load(side, pad, r):
    with open(os.path.join(runs_dir, f"{side}-pad{pad}-r{r}.json")) as f:
        result = json.loads(f.read())
    if not result.get("correct", False):
        sys.exit(f"perf_pairs: {side} pad {pad} round {r}: wrong answers")
    return {k: v["value"] for k, v in result["metrics"].items()}

runs = {(side, pad, r): load(side, pad, r)
        for side in ("base", "change") for pad in pads for r in range(rounds)}

def spread(side, name):
    values = [runs[(side, p, r)][name] for p in pads for r in range(rounds)]
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    per_pad = [statistics.median(runs[(side, p, r)][name]
                                 for r in range(rounds)) for p in pads]
    iqr = (q3 - q1) / abs(med) if med else 0.0
    lay = (max(per_pad) - min(per_pad)) / abs(med) if med else 0.0
    return med, iqr, lay

names = [m["name"] for m in bench["end_to_end"]]
print(f"workload {workload}, seed {seed}, {rounds} round(s) x pads "
      f"{pads} = {rounds * len(pads)} pairs")
print(f"{'metric':<24} {'base':>12} {'change':>12} {'delta':>8} "
      f"{'won':>6} {'base iqr':>9} {'base lay':>9} {'chg lay':>9}")
for name in names:
    if not all(name in v for v in runs.values()):
        continue
    base_med, base_iqr, base_lay = spread("base", name)
    chg_med, _, chg_lay = spread("change", name)
    delta = (chg_med - base_med) / abs(base_med) if base_med else 0.0
    direction = better.get(name)
    won = "-"
    if direction in ("higher", "lower"):
        wins = 0
        for p in pads:
            for r in range(rounds):
                b = runs[("base", p, r)][name]
                c = runs[("change", p, r)][name]
                wins += (c > b) if direction == "higher" else (c < b)
        won = f"{wins}/{len(pads) * rounds}"
    print(f"{name:<24} {base_med:>12.6g} {chg_med:>12.6g} {delta:>+8.1%} "
          f"{won:>6} {base_iqr:>9.1%} {base_lay:>9.1%} {chg_lay:>9.1%}")
EOF
