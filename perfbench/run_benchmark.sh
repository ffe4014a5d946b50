#!/usr/bin/env bash
# Runs every benchmark workload for N rounds and keeps one JSON per run.
#
#   perfbench/run_benchmark.sh OUT_DIR ROUNDS SEED
#
# Run from the repository root. The workloads are those BENCHMARK.json
# lists. Round r uses seed SEED + r, so two sets made with the same SEED
# see the same inputs run for run; the workload order reverses on odd
# seeds so no workload always runs first. Each run lands in
# OUT_DIR/<workload>.s<seed>.json as
#   {"workload": ..., "seed": ..., "result": <run.py result line>}
# (null when the run printed none), and OUT_DIR/host.json
# records the host and the commit. Compare two sets with
# perfbench/compare.py.
set -euo pipefail

if [[ $# -ne 3 ]]; then
  echo "usage: $0 OUT_DIR ROUNDS SEED" >&2
  exit 2
fi
out=$1
rounds=$2
seed=$3
mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
mkdir -p "$out"

flag() { grep -qw "$1" /proc/cpuinfo && echo true || echo false; }
cat > "$out/host.json" <<EOF
{"nproc": $(nproc), "avx2": $(flag avx2), "avx512f": $(flag avx512f),
 "git_sha": "$(git rev-parse HEAD 2>/dev/null || echo unknown)",
 "compiler": "$(c++ --version | head -n 1)"}
EOF

for ((r = 0; r < rounds; r++)); do
  s=$((seed + r))
  order=("${workloads[@]}")
  if ((s % 2 == 1)); then
    order=()
    for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do order+=("${workloads[i]}"); done
  fi
  for w in "${order[@]}"; do
    echo "seed $s: $w" >&2
    status=0
    result=$(python3 perfbench/run.py --workload "$w" --seed "$s" --trace 0 | tail -n 1) || status=$?
    if [[ $status -ne 0 ]]; then
      echo "run failed: $w seed $s (exit $status)" >&2
    fi
    printf '{"workload": "%s", "seed": %d, "result": %s}\n' \
      "$w" "$s" "${result:-null}" > "$out/$w.s$s.json"
  done
done
