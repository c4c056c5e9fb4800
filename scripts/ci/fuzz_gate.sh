#!/usr/bin/env bash
# Fuzz gate: short coverage-guided fuzzes of the untrusted inputs a
# run reads. The daemon's network-facing launch parser gets 30 s,
# seeded from every committed config file; the checkpoint sub-states
# a resume restores (the analysis collector's state, the feedback and
# adaptive triggers' state) get 15 s each, seeded from real
# EncodeState output and past crashers. Short runs find shallow panics
# (the kind refactors introduce) without holding the build hostage;
# crashers land in the package's testdata/fuzz/ for triage.
set -euo pipefail
# shellcheck source=scripts/ci/lib.sh
. "$(dirname "$0")/lib.sh"
cd "$(repo_root)"

go test ./internal/config/ -fuzz FuzzParseLaunch -fuzztime 30s
go test ./internal/analysis/ -run '^$' -fuzz FuzzCollectorRestore -fuzztime 15s
go test ./internal/core/ -run '^$' -fuzz FuzzTriggerRestoreState -fuzztime 15s
