#!/usr/bin/env bash
# Spine gate: internal/core reports every fact through one function,
# emit in internal/core/spine.go, which feeds the trigger's observer,
# the flight recorder, the report counters and the bus in a fixed
# order. Any other non-test file in the package that records a span,
# queues or publishes a bus event, or calls a trigger's observer
# method opens a second report path whose consumers can disagree, so
# this gate fails on it.
set -euo pipefail
# shellcheck source=scripts/ci/lib.sh
. "$(dirname "$0")/lib.sh"
cd "$(repo_root)"

spine=internal/core/spine.go
pattern='\.Record\(|append\([^)]*busBatch|\.Publish(Batch)?\(|\.Observe[A-Za-z]*\('
offenders=$(find internal/core -maxdepth 1 -name '*.go' ! -name '*_test.go' ! -path "$spine" -print0 |
  xargs -0 grep -nE "$pattern" | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$offenders" ]; then
  echo "report calls outside $spine (route them through emit):" >&2
  echo "$offenders" >&2
  exit 1
fi
echo "internal/core reports only through $spine"
