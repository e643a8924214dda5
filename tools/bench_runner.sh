#!/usr/bin/env bash
# Bench runner: build the optimized preset, run every orch_sweep emitter
# (study, fault, churn, delta, corruption) and the paper-shape checks
# (fig10_interval_time, fig12_participants_time), and diff the stable
# fields of each freshly emitted BENCH_*.json against the committed
# baselines at the repo root.
#
# Each emitter gates on its own verdict: `orch_sweep <name> <out.json>`
# exits 1 when a check fails or its JSON cannot be written, and each
# figure binary exits non-zero when a paper shape does not hold. Every step
# runs even when an earlier one fails; the runner records each failure
# and exits 1 at the end with the list.
#
# Wall-clock timings (and the ratios derived from them) vary run to
# run, so they are stripped before the diff. Every remaining field —
# decision counts, simulated message/byte totals, verdict flags — is
# deterministic and must match the committed baselines exactly.
#
# Usage: tools/bench_runner.sh
#   ORCH_BENCH_OUT=dir   where fresh JSON lands (default build/bench_out)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build"
out="${ORCH_BENCH_OUT:-$build/bench_out}"
mkdir -p "$out"

(cd "$repo" && cmake --preset default >/dev/null)
cmake --build "$build" -j"$(nproc)" --target orch_sweep provenance_dump \
  fig10_interval_time fig12_participants_time

sweep="$build/bench/orch_sweep"
prov_dump="$build/tools/provenance_dump"
failed=()

# Chrome trace check shared by every trace below: at least one event,
# and every 'B' closed by a same-named 'E' in LIFO order on its track
# (tid); no span left open.
spans_nest='(.traceEvents | length > 0) and
  (reduce (.traceEvents[] | select(.ph == "B" or .ph == "E")) as $e
     ({ok: true, open: {}};
      ($e.tid | tostring) as $t
      | if $e.ph == "B" then .open[$t] += [$e.name]
        elif ((.open[$t] // []) | last) == $e.name then .open[$t] |= .[:-1]
        else .ok = false end)
   | .ok and all(.open[]; length == 0))'

# check_trace <label> <file>: the file is a well-formed Chrome trace
# with balanced spans.
check_trace() {
  if jq -e "$spans_nest" "$2" >/dev/null 2>&1; then
    echo "$1 OK: $(jq '.traceEvents | length' "$2") events in $2"
  else
    echo "$1 $2 is missing, empty, invalid JSON, or has unbalanced spans" >&2
    failed+=("$1")
  fi
}

names=()
for name in study fault churn delta corruption; do
  json="${name}_sweep"
  [[ $name == study ]] && json=micro_reconcile
  names+=("$json")
  echo "== orch_sweep $name =="
  "$sweep" "$name" "$out/BENCH_$json.json" || failed+=("orch_sweep $name")
done

# One traced sweep: rerun the fault sweep with ORCH_TRACE set (its JSON
# goes to a scratch path; the traced rerun is exercised, not diffed).
# Tracing must not perturb decisions, so reusing the fault sweep doubles
# as a cheap end-to-end check.
echo "== traced fault sweep =="
trace="$out/trace_fault_sweep.json"
rm -f "$trace"
ORCH_TRACE="$trace" "$sweep" fault "$out/BENCH_fault_sweep_traced.json" \
  || failed+=("traced orch_sweep fault")
check_trace trace "$trace"

# Provenance + simulated-time trace determinism, per store: run the
# seeded provenance_dump confederation twice with ORCH_SIM_TRACE armed.
# The provenance JSONL and the sim trace must be byte-identical across
# the runs, and the trace must have balanced spans on every peer track
# (the DHT's scatter-gather client stamps each message at its lane's
# clock and draws its phases as spans).
for store in central dht; do
  echo "== provenance determinism ($store) =="
  for run in a b; do
    ORCH_SIM_TRACE="$out/sim_trace_${store}_$run.json" \
      "$prov_dump" "$store" "$out/provenance_${store}_$run.jsonl" \
      || failed+=("provenance_dump $store $run")
  done
  cmp "$out/provenance_${store}_a.jsonl" "$out/provenance_${store}_b.jsonl" \
    || failed+=("$store provenance JSONL diverged between same-seed runs")
  cmp "$out/sim_trace_${store}_a.json" "$out/sim_trace_${store}_b.json" \
    || failed+=("$store sim trace diverged between same-seed runs")
  check_trace "$store sim trace" "$out/sim_trace_${store}_a.json"
done
# The paper's Fig. 10 and Fig. 12 shapes, each checked against the time
# model that reproduces it (stop-and-wait or scatter-gather); the binary
# prints both columns and exits non-zero when a check fails. Their tables
# land next to the fresh JSON.
for fig in fig10_interval_time fig12_participants_time; do
  echo "== $fig =="
  "$build/bench/$fig" | tee "$out/$fig.txt" || failed+=("$fig")
done

# A verdict/cause summary of the central provenance stream, diffed
# against its committed baseline below.
jq -s '{bench: "provenance_summary",
        records: length,
        by_verdict: (group_by(.verdict)
                     | map({key: .[0].verdict, value: length})
                     | from_entries),
        by_cause: (group_by(.cause)
                   | map({key: .[0].cause, value: length})
                   | from_entries)}' \
    "$out/provenance_central_a.jsonl" > "$out/BENCH_provenance_summary.json" \
  || failed+=("provenance summary")

# Keys dropped before diffing: wall-time measurements (*_us and
# *_micros counters, the mean/p50/p95 study stats) and the speedups and
# overheads derived from them.
stable='walk(if type == "object"
             then with_entries(select(.key
                  | test("_us$|_micros$|speedup|overhead")
                  | not))
             else . end)'

for name in "${names[@]}" provenance_summary; do
  base="$repo/BENCH_$name.json"
  fresh="$out/BENCH_$name.json"
  if [[ ! -f "$base" ]]; then
    echo "BENCH_$name.json: no committed baseline at repo root" >&2
    failed+=("BENCH_$name.json baseline missing")
  elif diff -u <(jq -S "$stable" "$base") <(jq -S "$stable" "$fresh"); then
    echo "BENCH_$name.json: stable fields match the committed baseline"
  else
    echo "BENCH_$name.json: stable fields DIVERGE from the baseline" >&2
    failed+=("BENCH_$name.json diff")
  fi
done

if ((${#failed[@]})); then
  printf 'bench runner FAILED:\n' >&2
  printf '  %s\n' "${failed[@]}" >&2
  exit 1
fi
echo "bench runner: every sweep, trace and baseline check passed"
