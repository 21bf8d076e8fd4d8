#!/usr/bin/env bash
# ci.sh — the repository's one verification procedure. CI runs it with no
# argument: every stage, in the order below, each in its own log group. Name
# stages to run just those:
#
#   scripts/ci.sh                      # everything CI runs
#   scripts/ci.sh race-repeat dist     # two stages
#
# Stages: fmt vet build portable race race-repeat coverage loc bench-smoke
# benchtab daemon dist.
#
# The tests CI repeats are picked by a name marker, not by their names: a
# test whose subject is an interleaving has a one-line twin named
# <Test>Race5 or <Test>Race3 that calls it. race-repeat runs every twin that
# many times under the race detector; race and coverage skip the twins, so
# there every test runs once.
set -Eeuo pipefail
cd "$(dirname "$0")/.."

all=(fmt vet build portable race race-repeat coverage loc bench-smoke benchtab daemon dist)
twins='Race[35]$'

work=$(mktemp -d)
pids=()
# stop_servers stops every server a stage started and waits for it to exit.
stop_servers() {
	for pid in "${pids[@]:-}"; do
		kill "$pid" 2>/dev/null || true
		wait "$pid" 2>/dev/null || true
	done
	pids=()
}
trap 'stop_servers; rm -rf "$work"' EXIT

# twin_packages N lists the packages whose tests include a ...RaceN twin.
twin_packages() {
	grep -rlE --include='*_test.go' "^func Test[A-Za-z0-9_]+Race$1\(" . | xargs -n1 dirname | sort -u
}

# wait_healthz ADDR waits up to 10 s for the server on ADDR to answer /healthz.
wait_healthz() {
	for _ in $(seq 1 50); do
		curl -sf "http://$1/healthz" >/dev/null && return 0
		sleep 0.2
	done
	echo "server on $1 never became healthy" >&2
	return 1
}

# serve ADDR ARGS... starts autotuned on ADDR and waits until it is healthy.
serve() {
	local addr=$1
	shift
	"$work/autotuned" -addr "$addr" "$@" &
	pids+=($!)
	wait_healthz "$addr"
}

# run_session ADDR SPEC OUT submits SPEC, streams its event log to OUT until
# session_done, and prints the session id.
run_session() {
	local id
	id=$(curl -sf -X POST "http://$1/sessions" -H 'Content-Type: application/json' -d "$2" |
		sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
	test -n "$id"
	curl -sfN --max-time 120 "http://$1/sessions/$id/events" >"$3"
	echo "$id"
}

stage() {
	case $1 in
	fmt)
		out=$(gofmt -l .)
		if [ -n "$out" ]; then
			echo "gofmt needed on:" && echo "$out" && return 1
		fi
		;;
	vet) go vet ./... ;;
	build) go build ./... ;;
	portable)
		# internal/mathx/linalg has amd64 assembly kernels; every other GOARCH
		# runs the Go loops alone (kernel_generic.go). Nothing here executes
		# that build, so at least compile and vet it.
		GOARCH=arm64 go build ./...
		GOARCH=arm64 go vet ./internal/mathx/...
		# arm64 may fuse x*y+z into one rounding, so the simulators' results
		# are bit for bit there only while their fused sites stay as counted
		# here (DESIGN §5). A change that moves a count says why in CHANGES.md.
		GOARCH=arm64 go build -a -gcflags='repro/internal/sysmodel/...=-S' -gcflags='repro/internal/workload=-S' \
			./internal/sysmodel/... ./internal/workload >"$work/arm64.s" 2>&1
		for want in sysmodel/spark=11 sysmodel/mapreduce=6 sysmodel/dbms=28 sysmodel/paralleldb=0 sysmodel/cluster=2 workload=0; do
			pkg=${want%=*}
			got=$(awk -v p="# repro/internal/$pkg" '/^# /{on=($0==p)} on && /FMADDD|FMSUBD|FNMADDD|FNMSUBD/{n++} END{print n+0}' "$work/arm64.s")
			if [ "$got" != "${want#*=}" ]; then
				echo "$pkg has $got arm64 fused multiply-add sites, recorded ${want#*=}" && return 1
			fi
		done
		;;
	race)
		# Every Fuzz* target's checked-in seed corpus runs here as a test.
		go test -race -skip "$twins" ./...
		;;
	race-repeat)
		# Only the packages that hold twins: a race test binary with nothing
		# to run still costs a link and the race runtime's 1 s exit sleep.
		go test -race -count=5 -run 'Race5$' $(twin_packages 5)
		go test -race -count=3 -run 'Race3$' $(twin_packages 3)
		;;
	coverage)
		# The drive loop, the engine's evaluator stack, the fidelity and
		# scenario subsystems, the store, the GP tiers and the drifting-target
		# scheduler live in these packages.
		for pkg in ./internal/tune ./internal/engine ./internal/tune/store ./internal/mathx/gp ./internal/workload; do
			out=$(go test -cover -skip "$twins" "$pkg")
			echo "$out"
			pct=$(echo "$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
			if [ -z "$pct" ]; then
				echo "no coverage reported for $pkg" && return 1
			fi
			if awk -v p="$pct" 'BEGIN { exit !(p < 70) }'; then
				echo "coverage $pct% of $pkg is under the 70% floor" && return 1
			fi
		done
		;;
	loc) scripts/loc.sh ;;
	bench-smoke)
		# One iteration of each kernel benchmark, beside the package it measures.
		go test -run '^$' -bench 'GPFit/n=60|SurrogateFit/tier=sparse/n=500|CholeskyInto/n=(12|160)|BlockedCholesky/parallel/n=256|CheckpointSession|FeatureIndex(Build|Nearest)/n=100000|EventJSON|RecordJSON|Simulate|ListSchedule|Noise' \
			-benchtime=1x ./internal/mathx/... ./internal/tune ./internal/tune/store ./internal/sysmodel/...
		;;
	benchtab)
		# A failing tuning session exits 1 naming its experiment and cell; the
		# tables' claims are asserted over 16 seeds by internal/bench's tests.
		go run ./cmd/benchtab -exp all -fast
		;;
	daemon)
		# One session over HTTP against a persistent repository, which must
		# survive a restart.
		go build -o "$work/autotuned" ./cmd/autotuned
		serve 127.0.0.1:8321 -repo "$work/repo"
		id=$(run_session 127.0.0.1:8321 '{"system":"dbms","workload":"tpch","tuner":"ituned","seed":42,"budget":{"trials":8},"parallel":2,"target":{"scale_gb":2}}' "$work/events.txt")
		grep -q "^event: trial_done" "$work/events.txt"
		grep -q "^event: session_done" "$work/events.txt"
		curl -sf "http://127.0.0.1:8321/sessions/$id" >"$work/status.json"
		grep -q '"state":"done"' "$work/status.json"
		grep -q '"best"' "$work/status.json"
		grep -q '"archived_as":1' "$work/status.json"
		curl -sf http://127.0.0.1:8321/repository/sessions | grep -q '"workload":"tpch"'
		# Runtime gauges are served on the API listener, in Prometheus text.
		curl -sf http://127.0.0.1:8321/metrics | grep -q '^go_memstats_alloc_bytes_total [0-9]'
		stop_servers
		# The restarted daemon also serves profiles, on their own listener only.
		serve 127.0.0.1:8321 -repo "$work/repo" -pprof 127.0.0.1:8322
		curl -sf http://127.0.0.1:8321/repository/sessions | grep -q '"workload":"tpch"'
		curl -sf http://127.0.0.1:8322/debug/pprof/ | grep -q goroutine
		test "$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:8321/debug/pprof/)" = 404
		stop_servers
		echo "daemon smoke passed: $(grep -c '^event:' "$work/events.txt") events streamed; repository survived restart"
		;;
	dist)
		# Two autotune-evaluator processes behind one daemon run a Hyperband
		# session; its event stream must be byte-identical to a local-only
		# daemon's (where a trial ran is invisible in the recorded history),
		# and the fleet must have evaluated trials.
		go build -o "$work/autotuned" ./cmd/autotuned
		go build -o "$work/autotune-evaluator" ./cmd/autotune-evaluator
		spec='{"system":"dbms","workload":"tpch","tuner":"ituned","seed":42,"budget":{"trials":16},"parallel":2,"fidelity":{"strategy":"hyperband"},"target":{"scale_gb":2}}'
		for addr in 127.0.0.1:8333 127.0.0.1:8334; do
			"$work/autotune-evaluator" -addr "$addr" -workers 2 -pprof "127.0.0.1:$((${addr##*:} + 10))" &
			pids+=($!)
			wait_healthz "$addr"
		done
		curl -sf http://127.0.0.1:8343/debug/pprof/ | grep -q goroutine
		curl -sf http://127.0.0.1:8333/metrics | grep -q '^go_goroutines [0-9]'
		serve 127.0.0.1:8331
		run_session 127.0.0.1:8331 "$spec" "$work/events-local.txt" >/dev/null
		serve 127.0.0.1:8332 -evaluators http://127.0.0.1:8333,http://127.0.0.1:8334
		run_session 127.0.0.1:8332 "$spec" "$work/events-fleet.txt" >/dev/null
		grep -q "^event: trial_done" "$work/events-local.txt"
		grep -q "^event: trial_pruned" "$work/events-local.txt"
		grep -q "^event: session_done" "$work/events-local.txt"
		if ! diff -u "$work/events-local.txt" "$work/events-fleet.txt"; then
			echo "event streams diverge between local-only and fleet evaluation" >&2
			return 1
		fi
		fleet=$(curl -sf http://127.0.0.1:8332/evaluators)
		echo "$fleet"
		completed=$(echo "$fleet" | grep -o '"completed":[0-9]*' | awk -F: '{s += $2} END {print s + 0}')
		if [ "$completed" -eq 0 ]; then
			echo "the fleet daemon finished the session without any remote evaluations" >&2
			return 1
		fi
		echo "$fleet" | grep -q '"healthy":true'
		stop_servers
		echo "dist smoke passed: $(grep -c '^event:' "$work/events-local.txt") events, byte-identical local vs 2-evaluator fleet"
		;;
	*)
		echo "ci.sh: unknown stage $1 (stages: ${all[*]})" >&2
		return 2
		;;
	esac
}

stages=("$@")
if [ $# -eq 0 ]; then
	stages=("${all[@]}")
fi
trap 'echo "ci.sh: stage $current failed at line $LINENO" >&2' ERR
for current in "${stages[@]}"; do
	[ $# -gt 0 ] || echo "::group::$current"
	stage "$current"
	[ $# -gt 0 ] || echo "::endgroup::"
done
