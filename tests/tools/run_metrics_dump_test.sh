#!/bin/bash
# Smoke test of tools/metrics_dump: it must run both stores to
# completion, print the registry's counters (one line per counter), and
# write its trace to the given path. Each fetch fact is counted once,
# store-side; the check below fails if a participant-side copy of the
# fetch stats appears.
set -e
DUMP="$1"; TRACE="$2"
rm -f "$TRACE"
OUT=$("$DUMP" "$TRACE")
echo "$OUT"
for name in reconcile.rounds store.central.fetches store.dht.fetches; do
  echo "$OUT" | grep -q "^$name " || { echo "FAIL: no $name counter"; exit 1; }
done
if echo "$OUT" | grep -q "^reconcile\.fetch\."; then
  echo "FAIL: participant-side fetch mirror counters are back"; exit 1
fi
[ -s "$TRACE" ] || { echo "FAIL: no trace written to $TRACE"; exit 1; }
echo "metrics_dump smoke test passed"
