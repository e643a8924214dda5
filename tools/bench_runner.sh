#!/usr/bin/env bash
# Bench runner: build the optimized preset, run the micro_reconcile
# study plus every ORCH_* sweep (fault, churn, delta, corruption), and
# diff the stable fields of the freshly emitted BENCH_*.json against the
# committed baselines at the repo root.
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
cmake --build "$build" -j"$(nproc)" --target micro_reconcile provenance_dump

bench="$build/bench/micro_reconcile"
prov_dump="$build/tools/provenance_dump"

# Chrome trace check shared by both traces below: at least one event,
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

echo "== reconcile study =="
ORCH_BENCH_JSON="$out/BENCH_micro_reconcile.json" \
    "$bench" --benchmark_filter=NONE
echo "== fault sweep =="
ORCH_FAULT_SWEEP=1 ORCH_FAULT_SWEEP_JSON="$out/BENCH_fault_sweep.json" \
    "$bench"
echo "== churn sweep =="
ORCH_CHURN_SWEEP=1 ORCH_CHURN_SWEEP_JSON="$out/BENCH_churn_sweep.json" \
    "$bench"
echo "== delta sweep =="
ORCH_DELTA_SWEEP=1 ORCH_DELTA_SWEEP_JSON="$out/BENCH_delta_sweep.json" \
    "$bench"
echo "== corruption sweep =="
ORCH_CORRUPTION_SWEEP=1 \
    ORCH_CORRUPTION_SWEEP_JSON="$out/BENCH_corruption_sweep.json" \
    "$bench"
# The sweep's own verdict gates the run before any baseline diff: every
# corrupted run must match its fault-free baseline with zero undetected
# reads, and the verify-off control arm must demonstrably consume rot.
if ! jq -e '.all_checks_pass and .corruption_exercised and .control_consumed_rot' \
    "$out/BENCH_corruption_sweep.json" >/dev/null; then
  echo "corruption sweep verdict FAILED:" >&2
  jq '{all_checks_pass, corruption_exercised, control_consumed_rot}' \
      "$out/BENCH_corruption_sweep.json" >&2
  exit 1
fi

# One traced sweep: rerun the fault sweep with ORCH_TRACE set, writing
# its JSON to a scratch path (the traced rerun is exercised, not
# diffed) and fail hard if the trace file is missing, empty, not the
# Chrome trace_event shape, or has unbalanced spans. Tracing must not
# perturb decisions, so reusing the fault sweep doubles as a cheap
# end-to-end check.
echo "== traced fault sweep =="
trace="$out/trace_fault_sweep.json"
rm -f "$trace"
ORCH_TRACE="$trace" ORCH_FAULT_SWEEP=1 \
    ORCH_FAULT_SWEEP_JSON="$out/BENCH_fault_sweep_traced.json" \
    "$bench"
if ! jq -e "$spans_nest" "$trace" >/dev/null; then
  echo "trace output $trace is missing, empty, invalid JSON, or has" \
       "unbalanced spans" >&2
  exit 1
fi
echo "trace OK: $(jq '.traceEvents | length' "$trace") events in $trace"

# Provenance + simulated-time trace determinism: run the seeded
# provenance_dump confederation twice with ORCH_SIM_TRACE armed. Both
# the provenance JSONL and the sim trace must be byte-identical across
# the runs, the trace must be well-formed Chrome trace_event JSON with
# balanced spans on every peer track, and
# a verdict/cause summary of the provenance stream must match the
# committed baseline at the repo root.
echo "== provenance determinism =="
ORCH_SIM_TRACE="$out/sim_trace_a.json" \
    "$prov_dump" central "$out/provenance_a.jsonl"
ORCH_SIM_TRACE="$out/sim_trace_b.json" \
    "$prov_dump" central "$out/provenance_b.jsonl"
cmp "$out/provenance_a.jsonl" "$out/provenance_b.jsonl" \
  || { echo "provenance JSONL diverged between same-seed runs" >&2; exit 1; }
cmp "$out/sim_trace_a.json" "$out/sim_trace_b.json" \
  || { echo "sim trace diverged between same-seed runs" >&2; exit 1; }
if ! jq -e "$spans_nest" "$out/sim_trace_a.json" >/dev/null; then
  echo "sim trace is missing, empty, invalid JSON, or has unbalanced" \
       "spans" >&2
  exit 1
fi
echo "sim trace OK: $(jq '.traceEvents | length' "$out/sim_trace_a.json")" \
     "events, byte-identical across runs"

# The same check on the DHT store, whose scatter-gather client stamps
# each message at its lane's clock and draws its phases as spans.
echo "== provenance determinism (dht) =="
ORCH_SIM_TRACE="$out/sim_trace_dht_a.json" \
    "$prov_dump" dht "$out/provenance_dht_a.jsonl"
ORCH_SIM_TRACE="$out/sim_trace_dht_b.json" \
    "$prov_dump" dht "$out/provenance_dht_b.jsonl"
cmp "$out/provenance_dht_a.jsonl" "$out/provenance_dht_b.jsonl" \
  || { echo "dht provenance JSONL diverged between same-seed runs" >&2
       exit 1; }
cmp "$out/sim_trace_dht_a.json" "$out/sim_trace_dht_b.json" \
  || { echo "dht sim trace diverged between same-seed runs" >&2; exit 1; }
if ! jq -e "$spans_nest" "$out/sim_trace_dht_a.json" >/dev/null; then
  echo "dht sim trace is missing, empty, invalid JSON, or has unbalanced" \
       "spans" >&2
  exit 1
fi
echo "dht sim trace OK:" \
     "$(jq '.traceEvents | length' "$out/sim_trace_dht_a.json") events," \
     "byte-identical across runs"
jq -s '{bench: "provenance_summary",
        records: length,
        by_verdict: (group_by(.verdict)
                     | map({key: .[0].verdict, value: length})
                     | from_entries),
        by_cause: (group_by(.cause)
                   | map({key: .[0].cause, value: length})
                   | from_entries)}' \
    "$out/provenance_a.jsonl" > "$out/BENCH_provenance_summary.json"

# Keys dropped before diffing: wall-time measurements (*_us and
# *_micros counters, the mean/p50/p95 study stats) and the speedups and
# overheads derived from them.
stable='walk(if type == "object"
             then with_entries(select(.key
                  | test("_us$|_micros$|speedup|overhead")
                  | not))
             else . end)'

fail=0
for name in micro_reconcile fault_sweep churn_sweep delta_sweep \
             corruption_sweep provenance_summary; do
  base="$repo/BENCH_$name.json"
  fresh="$out/BENCH_$name.json"
  if [[ ! -f "$base" ]]; then
    echo "BENCH_$name.json: no committed baseline at repo root" >&2
    fail=1
    continue
  fi
  if diff -u <(jq -S "$stable" "$base") <(jq -S "$stable" "$fresh"); then
    echo "BENCH_$name.json: stable fields match the committed baseline"
  else
    echo "BENCH_$name.json: stable fields DIVERGE from the baseline" >&2
    fail=1
  fi
done
exit "$fail"
