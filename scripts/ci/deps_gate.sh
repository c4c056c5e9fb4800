#!/usr/bin/env bash
# Dependency gate: the two front ends (cmd/repex, cmd/repexd) run
# through internal/serve and internal/runner, never through the
# figure harness. Linking internal/bench would drag the paper-figure
# code (and its localexec/stats imports) back into both binaries.
set -euo pipefail
# shellcheck source=scripts/ci/lib.sh
. "$(dirname "$0")/lib.sh"
cd "$(repo_root)"

if go list -deps ./cmd/repex ./cmd/repexd | grep -qx 'repro/internal/bench'; then
  echo "cmd/repex or cmd/repexd depends on repro/internal/bench:" >&2
  go list -f '{{.ImportPath}}: {{join .Imports " "}}' -deps ./cmd/repex ./cmd/repexd |
    grep 'repro/internal/bench' >&2
  exit 1
fi
echo "front ends are free of repro/internal/bench"
