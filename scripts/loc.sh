#!/usr/bin/env bash
# Non-test, non-blank, non-comment lines of Go and Go assembly (*.s) per
# package — the reproducible source for ROADMAP's "count net lines".
# Report-only: it never fails a build.
#
#   scripts/loc.sh                              # every package under the repo
#   scripts/loc.sh internal/tune internal/engine   # just these, plus a total
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
	set -- $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/out/*' -printf '%h\n' | sort -u | sed 's|^\./||')
fi

total=0
for pkg in "$@"; do
	n=0
	for f in "$pkg"/*.go "$pkg"/*.s; do
		case "$f" in *_test.go) continue ;; esac
		[ -f "$f" ] || continue
		n=$((n + $(grep -cv '^\s*\(//.*\)\?$' "$f" || true)))
	done
	printf '%6d  %s\n' "$n" "$pkg"
	total=$((total + n))
done
printf '%6d  total\n' "$total"
