#!/usr/bin/env bash
# Repeatability check, from the root of a checkout:
#
#   bash bench/e2e/repeat.sh K [previous-summary.json]
#
# Runs every workload in BENCHMARK.json K times (seeds 11 .. 10+K, the
# workload order reversed on every other pass), then prints, for each
# end-to-end metric and workload, the median, the quartiles and the spread
# (quartile distance ÷ median) against the metric's bound, plus the bound
# the spread suggests: max(3%, 2 × spread). With a previous summary it also
# compares medians. Exits 1 when a spread exceeds its bound, or a median
# moved by more than its bound. Results and summary.json land in
# ${CARGO_TARGET_DIR:-.bench_build}/repeat-<time>/.
set -euo pipefail

k="${1:?usage: repeat.sh K [previous-summary.json]}"
previous="${2:-}"
out="${CARGO_TARGET_DIR:-.bench_build}/repeat-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$out"

read -r seconds workloads < <(python3 -c '
import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))')

for pass in $(seq 1 "$k"); do
  order=$workloads
  if [ $((pass % 2)) -eq 0 ]; then
    order=$(echo "$workloads" | tr ' ' '\n' | tac | tr '\n' ' ')
  fi
  for w in $order; do
    echo "pass $pass/$k: $w" >&2
    bash bench/e2e/run.sh --workload "$w" --seed $((10 + pass)) \
      --seconds "$seconds" --trace 0 > "$out/$w.$pass.log"
    tail -n 1 "$out/$w.$pass.log" > "$out/$w.$pass.json"
  done
done

python3 - "$out" "$k" "$previous" <<'EOF'
import json, statistics, sys
out, k, previous = sys.argv[1], int(sys.argv[2]), sys.argv[3]
bench = json.load(open("BENCHMARK.json"))
prev = json.load(open(previous)) if previous else {}
summary, bad = {}, []
print(f"{'workload':20} {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} "
      f"{'spread':>7} {'bound':>6} {'suggest':>7}" + ("  vs-prev" if prev else ""))
for w in bench["workloads"]:
    runs = [json.load(open(f"{out}/{w['name']}.{p}.json")) for p in range(1, k + 1)]
    for r in runs:
        if not r["correct"] or r["failed"] != 0:
            bad.append(f"{w['name']}: incorrect run {r}")
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if k > 1 else (med, med, med)
        spread = (q3 - q1) / med
        key = f"{w['name']}/{m['name']}"
        summary[key] = med
        line = (f"{w['name']:20} {m['name']:16} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                f"{spread:7.2%} {m['bound']:6.0%} {max(0.03, 2 * spread):7.1%}")
        if spread > m["bound"]:
            bad.append(f"{key}: spread {spread:.2%} > bound {m['bound']:.0%}")
        if key in prev:
            worse = (med - prev[key]) / prev[key]
            if m["better"] == "higher":
                worse = -worse
            line += f"  {worse:+7.2%}"
            if worse > m["bound"]:
                bad.append(f"{key}: median worse by {worse:.2%} than previous")
        print(line)
json.dump(summary, open(f"{out}/summary.json", "w"), indent=1)
print(f"summary: {out}/summary.json")
for b in bad:
    print("FAIL", b)
sys.exit(1 if bad else 0)
EOF
