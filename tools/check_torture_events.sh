#!/usr/bin/env bash
# Runs every crash-point sweep at seed 1 and diffs each sweep's
# durability-event count against tools/torture_events.expected. The
# counts are deterministic per seed, so any difference means a change
# added, removed or reordered syncs and appends on a protocol path.
# Usage:
#
#   tools/check_torture_events.sh [path/to/llb_dbtool]
set -euo pipefail

cd "$(dirname "$0")/.."
tool=${1:-build/tools/llb_dbtool}

# "sweeping <name> scenario (seed=1, log_channels=4)..." names the sweep
# whose "<name> sweep OK: events=N ..." line follows.
"${tool}" torture all 1 | awk '
  /^sweeping / {
    label = $2
    if (match($0, /log_channels=[0-9]+/)) {
      label = label "/" substr($0, RSTART + 13, RLENGTH - 13) "ch"
    }
  }
  / sweep OK: / {
    for (i = 1; i <= NF; ++i) {
      if ($i ~ /^events=/) print label, substr($i, 8)
    }
  }' | diff -u tools/torture_events.expected - &&
  echo "torture event counts match tools/torture_events.expected"
