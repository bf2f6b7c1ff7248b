#!/usr/bin/env bash
# Per-package coverage floor: the accuracy-critical packages must keep at
# least MIN_COVERAGE statement coverage or CI fails. Run as
#   ./scripts/check-coverage.sh [pkg ...]
# with no arguments it checks the default floor set.
set -euo pipefail

MIN_COVERAGE="${MIN_COVERAGE:-75.0}"
PKGS=("$@")
if [ ${#PKGS[@]} -eq 0 ]; then
  PKGS=(. internal/core internal/segment internal/server)
fi

fail=0
for pkg in "${PKGS[@]}"; do
  profile="$(mktemp)"
  go test -coverprofile="$profile" "./$pkg" >/dev/null
  pct="$(go tool cover -func="$profile" | tail -1 | awk '{gsub(/%/, "", $3); print $3}')"
  rm -f "$profile"
  if awk -v p="$pct" -v m="$MIN_COVERAGE" 'BEGIN { exit !(p < m) }'; then
    echo "FAIL $pkg: coverage ${pct}% < floor ${MIN_COVERAGE}%" >&2
    fail=1
  else
    echo "ok   $pkg: coverage ${pct}% (floor ${MIN_COVERAGE}%)"
  fi
done
exit $fail
