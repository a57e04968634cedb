#!/usr/bin/env bash
# The committed perf trajectory (ROADMAP item 1).
#
#   ./bench.sh PR [CHECKOUT [SEED...]]
#   ./bench.sh PR --against REV [--workloads W,...] [--pairs N]
#
# The first form runs `benchmark all` (every workload, traced) once per
# seed — six fresh seeds PR*100+1..PR*100+6 unless given — in CHECKOUT
# (default: this one; a clone of the parent commit measures the parent),
# writes BENCH_<PR>.json beside this script and prints every row that
# moved against the newest older BENCH_*.json, i.e. whose min..max no
# longer overlaps the old one. Nothing under benchmark/ is edited. Each
# metric is [median, min, max] over the runs.
#
# A traced child's last stdout line holds the per-layer rows only, so the
# six gated rows come from its "end to end (gated)" block and the
# environment from its `env` line. `replay_by_select_layer` splits the
# traced replay's requests by their selection layer (`core.user_index` is
# the §7 pipeline).
#
# The second form is the A/B. It extracts REV (`git archive`) under
# target/bench-against/ and builds REV's benchmark and this checkout's,
# each into its own target directory, both with one pinned code layout
# (`pinned` below). Then, for N fresh seeds PR*100+11.. (default 10), it
# runs `benchmark run --workload W --seed S` on both sides for each
# workload (default: all of BENCHMARK.json's), alternating which side
# runs first. It writes the `paired` block of BENCH_<PR>.json and keeps
# the rest of the file: per workload and gated metric, both sides'
# [median, q1, q3], the median per-pair ratio this/REV and the pairs this
# side won by BENCHMARK.json's `better`; and both commits, the flags and
# the seeds. When REV is this checkout's own clean HEAD the run is an A/A
# (the same code on both sides: the spread a claim must clear), written
# to the `aa` block instead, which leaves `paired` alone.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
usage="usage: bench.sh PR [CHECKOUT [SEED...]] | bench.sh PR --against REV [--workloads W,...] [--pairs N]"
pr=${1:?$usage}

if [ "${2:-}" = --against ]; then
  rev=${3:?$usage}
  workloads=$(python3 -c 'import json, sys; print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$here/BENCHMARK.json")
  pairs=10
  set -- "${@:4}"
  while [ $# -gt 0 ]; do
    case $1 in
      --workloads) workloads=${2:?$usage}; shift 2 ;;
      --pairs) pairs=${2:?$usage}; shift 2 ;;
      *) echo "$usage" >&2; exit 2 ;;
    esac
  done
  [ "$pairs" -ge 1 ] || { echo "--pairs must be at least 1" >&2; exit 2; }
  pinned=(CARGO_PROFILE_RELEASE_CODEGEN_UNITS=1 "RUSTFLAGS=-C llvm-args=-align-all-functions=6")
  base_sha=$(git -C "$here" rev-parse --verify "$rev^{commit}")
  this_sha=$(git -C "$here" rev-parse HEAD)
  git -C "$here" diff --quiet HEAD || this_sha="$this_sha+dirty"
  blockname=paired
  [ "$base_sha" != "$this_sha" ] || blockname=aa
  scratch="$here/target/bench-against"
  base="$scratch/${base_sha:0:12}"
  logs="$scratch/logs-$pr"
  if [ ! -d "$base" ]; then
    rm -rf "$base.tmp"
    mkdir -p "$base.tmp"
    git -C "$here" archive "$base_sha" | tar -x -C "$base.tmp"
    mv "$base.tmp" "$base"
  fi
  rm -rf "$logs"
  mkdir -p "$logs"
  env "${pinned[@]}" cargo build --release --quiet --manifest-path "$base/benchmark/Cargo.toml" --target-dir "$base/target"
  env "${pinned[@]}" cargo build --release --quiet --manifest-path "$here/benchmark/Cargo.toml" --target-dir "$scratch/this"
  declare -A exe=([base]="$base/target/release/benchmark" [this]="$scratch/this/release/benchmark")
  seeds=()
  for ((i = 0; i < pairs; i++)); do
    seed=$((pr * 100 + 11 + i))
    seeds+=("$seed")
    order=(base this)
    [ $((i % 2)) -eq 0 ] || order=(this base)
    for w in ${workloads//,/ }; do
      for side in "${order[@]}"; do
        # A failed op exits 1; its count is recorded, not hidden.
        "${exe[$side]}" run --workload "$w" --seed "$seed" >"$logs/$w-$seed-$side.txt" ||
          echo "$w seed $seed ($side): failed ops" >&2
      done
    done
  done
  python3 - "$pr" "$here" "$logs" "$base_sha" "$this_sha" "$workloads" "${pinned[*]}" "$blockname" "${seeds[@]}" <<'PAIRED'
import json, os, re, statistics as st, sys
pr, here, logs, base_sha, this_sha, workloads, flags, blockname = sys.argv[1:9]
seeds = sys.argv[9:]
better = {m["name"]: m["better"] for m in json.load(open(f"{here}/BENCHMARK.json"))["end_to_end"]}

def result(w, seed, side):
    return json.loads(open(f"{logs}/{w}-{seed}-{side}.txt").read().strip().splitlines()[-1])

def spread(vals):
    if len(vals) < 2:
        return vals * 3
    q1, q2, q3 = st.quantiles(vals, n=4, method="inclusive")
    return [q2, q1, q3]

block = {"base": base_sha, "this": this_sha, "flags": flags, "seeds": [int(s) for s in seeds],
         "order": "pair i runs REV first when i is even",
         "format": "base, this: [median, q1, q3]; ratio: median over pairs of this/base; wins: pairs where this is better",
         "workloads": {}}
for w in workloads.split(","):
    runs = [(result(w, s, "base"), result(w, s, "this")) for s in seeds]
    rows = {}
    for name, way in better.items():
        b = [r[0]["metrics"][name]["value"] for r in runs]
        t = [r[1]["metrics"][name]["value"] for r in runs]
        wins = sum((y < x) if way == "lower" else (y > x) for x, y in zip(b, t))
        rows[name] = {"better": way, "base": spread(b), "this": spread(t),
                      "ratio": st.median(y / x for x, y in zip(b, t)) if all(b) else None,
                      "wins": f"{wins}/{len(runs)}"}
    block["workloads"][w] = {
        "attempted": {side: sum(r[i]["attempted"] for r in runs) for i, side in enumerate(("base", "this"))},
        "failed": {side: sum(r[i]["failed"] for r in runs) for i, side in enumerate(("base", "this"))},
        "gated": rows}
    print(f"{w}:")
    for name, row in rows.items():
        ratio = "n/a" if row["ratio"] is None else f"{100 * (row['ratio'] - 1):+.2f}%"
        print(f"  {name:28} base {row['base'][0]:>12.6g}  this {row['this'][0]:>12.6g}  {ratio:>9}  wins {row['wins']}")

path = f"{here}/BENCH_{pr}.json"
out = json.load(open(path)) if os.path.exists(path) else {"pr": int(pr)}
out[blockname] = block
text = json.dumps(out, indent=1)  # one line per metric:
open(path, "w").write(re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + re.sub(r"\s+", " ", m[1]) + "]", text) + "\n")
print(f"wrote the {blockname} block of {path}")
PAIRED
  exit
fi

checkout=$(cd "${2:-$here}" && pwd)
seeds=("${@:3}")
[ ${#seeds[@]} -gt 0 ] || seeds=($(seq $((pr * 100 + 1)) $((pr * 100 + 6))))
logs="$checkout/benchmark/out/bench-$pr"
mkdir -p "$logs"
cd "$checkout"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
for s in "${seeds[@]}"; do
  # A failed op exits 1; its count is recorded, not hidden.
  benchmark/target/release/benchmark all --seed "$s" >"$logs/$s.txt" || echo "seed $s: failed ops" >&2
  for t in benchmark/out/trace-*.json; do cp "$t" "$logs/$s-$(basename "$t")"; done
done

python3 - "$pr" "$here" "$logs" "${seeds[@]}" <<'EOF'
import glob, json, os, re, statistics as st, sys
pr, here, logs, seeds = int(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:]
runs = {}  # workload -> list of parsed runs
for s in seeds:
    w = None
    for line in open(f"{logs}/{s}.txt"):
        if m := re.match(r"=== (\S+) ===", line):
            w = m[1]; run = {"gated": {}, "seed": int(s)}; runs.setdefault(w, []).append(run); gated = False
        elif line.startswith("env {"):
            run["env"] = json.loads(line[4:])
        elif line.startswith("end to end (gated)") or line.startswith("per layer"):
            gated = line.startswith("end")
        elif gated and (m := re.match(r"\s+(\S+)\s+(\S+)\s+\S+\s+better=", line)):
            run["gated"][m[1]] = float(m[2])
        elif line.startswith('{"correct"'):
            out = json.loads(line)
            run.update(failed=out["failed"], attempted=out["attempted"],
                       per_layer={k: v["value"] for k, v in out["metrics"].items()})
    for w in runs:
        spans = json.load(open(f"{logs}/{s}-trace-{w}.json"))["spans"]
        layer = {x["request_id"]: x["layer"] for x in spans if x["name"] == "core.select"}
        by = {}
        for x in spans:
            if x["name"] in ("serve.roundtrip", "core.select"):
                key = "roundtrip_us" if x["name"] == "serve.roundtrip" else "select_self_us"
                val = (x["end_ns"] - x["start_ns"] if key == "roundtrip_us" else x["self_ns"]) / 1e3
                by.setdefault(layer[x["request_id"]], {}).setdefault(key, []).append(val)
        runs[w][-1]["replay"] = {l: {"requests": len(v["roundtrip_us"]), **{k: st.median(x) for k, x in v.items()}}
                                 for l, v in by.items()}

def agg(vals):
    vals = [v for v in vals if v is not None]
    return [st.median(vals), min(vals), max(vals)] if vals else None

def table(rs, pick):
    return {k: agg([pick(r).get(k) for r in rs]) for k in pick(rs[0])}

result = {"pr": pr, "source": f"measured: bench.sh, `benchmark all --seed S` for S in {[int(s) for s in seeds]}",
          "format": "each metric is [median, min, max] over the runs", "workloads": {}}
for w, rs in runs.items():
    pl = table(rs, lambda r: r["per_layer"])
    result["workloads"][w] = {
        "env": {k: v for k, v in rs[0]["env"].items() if k != "seed"} | {"seeds": [r["seed"] for r in rs]},
        "attempted": sum(r["attempted"] for r in rs), "failed": sum(r["failed"] for r in rs),
        "gated": table(rs, lambda r: r["gated"]),
        "reconciliation": {k: pl[k] for k in ("serve.roundtrip_us", "serve.layers_sum_us", "serve.residual_us")}
        | {"residual_pct": agg([100 * r["per_layer"]["serve.residual_us"] / r["per_layer"]["serve.roundtrip_us"] for r in rs])},
        "replay_by_select_layer": {l: table([r["replay"][l] for r in rs], lambda x: x) for l in rs[0]["replay"]},
        "per_layer": pl,
    }
path = f"{here}/BENCH_{pr}.json"
kept = json.load(open(path)) if os.path.exists(path) else {}
result |= {k: kept[k] for k in ("paired", "aa") if k in kept}  # written by --against
text = json.dumps(result, indent=1)  # one line per metric:
open(path, "w").write(re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + re.sub(r"\s+", " ", m[1]) + "]", text) + "\n")
print(f"wrote {path}")

older = sorted((int(m[1]), f) for f in glob.glob(f"{here}/BENCH_*.json")
               if (m := re.search(r"BENCH_(\d+)\.json$", f)) and int(m[1]) < pr
               and "workloads" in json.load(open(f)))
if not older:
    sys.exit()
prev = json.load(open(older[-1][1]))
print(f"rows whose min..max left BENCH_{older[-1][0]}'s:")
for w, new in result["workloads"].items():
    old = prev["workloads"].get(w, {})
    for part in ("gated", "per_layer"):
        for k, n in new[part].items():
            o = old.get(part, {}).get(k)
            if not (n and o and o[0]):
                continue
            lo, hi = (o[1] if o[1] is not None else o[0]), (o[2] if o[2] is not None else o[0])
            if n[1] > hi or n[2] < lo:
                print(f"  {w:20} {k:44} {o[0]:>12.6g} [{lo:.6g}..{hi:.6g}] -> {n[0]:>12.6g} "
                      f"[{n[1]:.6g}..{n[2]:.6g}] {100 * (n[0] / o[0] - 1):+.1f}%")
EOF
