#!/usr/bin/env bash
# Runs every workload of the pipeline benchmark and writes bench/out/results.json.
#
#   bench/run.sh                 one set: each workload once untraced (end-to-end
#                                metrics) and once traced (per-layer metrics)
#   bench/run.sh --smoke         a tenth of the transactions, one round per run,
#                                correctness checks on, no bounds: < 30 s in all
#   bench/run.sh --repeat N      N sets on seeds S, S+1, …; prints per-metric
#                                median and quartiles and whether every set lies
#                                within the bound BENCHMARK.json fixes
#   bench/run.sh --seed S        first seed (default 1)
#   bench/run.sh --seconds T     seconds per run (default: BENCHMARK.json's)
#
# A failed correctness check fails the script. BENCH_ledger.json and
# scripts/bench_snapshot.sh stay the micro-figure snapshot; they are not this gate.
set -euo pipefail
cd "$(dirname "$0")/.."
# One malloc arena, as in BENCHMARK.json's command: with glibc's default of one
# arena per thread, which arena a thread lands in moves tcp_durable's throughput
# and resident memory by ±15 % from run to run.
export MALLOC_ARENA_MAX=1

smoke=""
repeat=1
seed=1
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
while [ $# -gt 0 ]; do
    case "$1" in
        --smoke) smoke="--smoke" ;;
        --repeat) repeat="$2"; shift ;;
        --seed) seed="$2"; shift ;;
        --seconds) seconds="$2"; shift ;;
        *) echo "unknown argument $1" >&2; exit 2 ;;
    esac
    shift
done

cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
bin="${CARGO_TARGET_DIR:-bench/target}/release/pipeline"
out=bench/out
mkdir -p "$out"
rm -f "$out"/run-*.json

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for set in $(seq 0 $((repeat - 1))); do
    for workload in $workloads; do
        for trace in 0 1; do
            echo "== set $set: $workload --trace $trace (seed $((seed + set)))" >&2
            "$bin" --workload "$workload" --seed $((seed + set)) --seconds "$seconds" \
                --trace "$trace" $smoke | tail -n 1 > "$out/run-$set-$workload-$trace.json"
        done
    done
done

python3 - "$out" "$repeat" "$smoke" <<'EOF'
import json, os, platform, statistics, subprocess, sys

out, repeat, smoke = sys.argv[1], int(sys.argv[2]), sys.argv[3] != ""
spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]

def sh(*cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()
    except OSError:
        return ""

flags = ""
for line in open("/proc/cpuinfo"):
    if line.startswith("flags"):
        flags = line
        break
host = {
    "nproc": os.cpu_count(),
    "sha_ni": " sha_ni" in flags,
    "avx2": " avx2" in flags,
    "rustc": sh("rustc", "-V"),
    "kernel": platform.release(),
    "datadir_filesystem": sh("stat", "-f", "-c", "%T", out),
}

sets = []
for s in range(repeat):
    row = {}
    for w in workloads:
        row[w] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            run = json.load(open(f"{out}/run-{s}-{w}-{trace}.json"))
            if not run["correct"]:
                sys.exit(f"{w} --trace {trace}: correctness check failed")
            row[w][key] = {name: m["value"] for name, m in run["metrics"].items()}
    sets.append(row)
json.dump({"host": host, "smoke": smoke, "sets": sets}, open(f"{out}/results.json", "w"), indent=1)
print(f"host: {host}")

agree = True
for w in workloads:
    print(f"\n{w}")
    for metric in spec["end_to_end"]:
        values = [s[w]["end_to_end"][metric["name"]] for s in sets]
        median = statistics.median(values)
        line = f"  {metric['name']:<18} {median:>14.4f} {metric['unit']:<5}"
        if repeat >= 2:
            quartiles = statistics.quantiles(values, n=4) if repeat >= 4 else (min(values), median, max(values))
            worst = max(abs(v - median) / median for v in values) if median else 0.0
            inside = worst <= metric["bound"]
            agree &= inside or smoke
            line += f"  q1 {quartiles[0]:.4f} q3 {quartiles[2]:.4f}  off-median {worst*100:5.1f} % of {metric['bound']*100:.0f} %"
            line += "" if inside else "  OUTSIDE"
        print(line)
if repeat >= 2 and not smoke:
    print("\nsets agree within the bounds" if agree else "\nsets DISAGREE beyond the bounds")
    sys.exit(0 if agree else 1)
EOF
echo "results -> $out/results.json" >&2
