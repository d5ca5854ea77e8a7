#!/usr/bin/env bash
# Usage: check-health-metrics.sh METRICS REPORT
#
# Checks that a saga run's final metrics (its -metrics-dump stdout, saved
# to METRICS) agree with its health report (-health-out REPORT): the
# health state ordinal, the supervisor's counts, the durable I/O retries
# and the quarantined batches. Exits 1 naming every series that differs.
set -euo pipefail
metrics=$1 report=$2
mapfile -t want < <(jq -r '
  "saga_health_state \({"healthy": 0, "degraded-durability": 1, "read-only": 2, "failed": 3}[.state])",
  "saga_watchdog_fires_total \(.watchdog_fires)",
  "saga_phase_restarts_total \(.restarts)",
  "saga_durable_io_retries_total \(.durable_retries)",
  "saga_shed_batches_total \(.shed_batches)",
  "saga_refused_batches_total \(.refused_batches)",
  "saga_quarantined_batches_total \(.quarantined // [] | length)"
' "$report")
if [ "${#want[@]}" -ne 7 ]; then
  echo "check-health-metrics: cannot read $report" >&2
  exit 1
fi
status=0
for line in "${want[@]}"; do
  if ! grep -qxF -- "$line" "$metrics"; then
    have=$(grep -m1 "^${line%% *} " "$metrics" || echo "(missing)")
    echo "check-health-metrics: $report says '$line', $metrics has '$have'" >&2
    status=1
  fi
done
exit $status
