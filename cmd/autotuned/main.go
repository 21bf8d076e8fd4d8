// Command autotuned is the HTTP tuning daemon: it accepts declarative
// session specs over JSON, schedules them on a multi-session engine, and
// streams each session's ordered event stream over server-sent events.
//
// Usage:
//
//	autotuned -addr :8080 -workers 4
//	autotuned -addr :8080 -repo /var/lib/autotuned   # durable repository
//	autotuned -addr :8080 -evaluators http://host1:8081,http://host2:8081
//	autotuned -addr :8080 -pprof 127.0.0.1:6060      # profiles on a second listener
//
// With -evaluators the daemon leases trial evaluations to the named
// autotune-evaluator processes (more can register at runtime via POST
// /evaluators); event streams and results stay byte-identical to local
// evaluation, only wall-clock and fault exposure change.
//
// Everything that shapes one session's results — parallelism, fidelity,
// scenarios — is in its POSTed spec, which a checkpoint records; the flags
// only size and place the service.
//
// With -repo the daemon archives every completed session into the named
// directory, serves the corpus under /repository/sessions, survives
// restarts with its history intact, and accepts "warm_start": true in a
// spec to seed the new session from the nearest archived workload.
//
// Submit, watch, inspect, and stop a session:
//
//	curl -X POST localhost:8080/sessions -d '{
//	  "system": "dbms", "workload": "tpch", "tuner": "ituned",
//	  "seed": 42, "budget": {"trials": 30}}'
//	curl -N localhost:8080/sessions/s1/events
//	curl localhost:8080/sessions/s1
//	curl -X DELETE localhost:8080/sessions/s1   # stop; on a finished session: remove
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/obs"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "max concurrently running sessions (0 = all cores)")
		repoDir     = flag.String("repo", "", "durable tuning-repository directory (archives completed sessions; enables warm_start and crash-resume)")
		evals       = flag.String("evaluators", "", "comma-separated base URLs of autotune-evaluator processes to lease trials to")
		maxSessions = flag.Int("max-sessions", 0, "max unfinished sessions before POST /sessions returns 429 (0 = unlimited)")
		maxQueue    = flag.Int("max-queue", 0, "max sessions queued for a scheduler slot before POST /sessions returns 429 (0 = unlimited)")
		eventBuffer = flag.Int("event-buffer", 0, "events retained per session for replay; older events compact into a stream checkpoint (0 = default 4096)")
		drainWait   = flag.Duration("drain-timeout", 10*time.Second, "how long a graceful shutdown waits for in-flight sessions to checkpoint and stop")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof under /debug/pprof/ on this address, apart from the API (default: off)")
	)
	flag.Parse()

	if _, err := obs.ServePprof(*pprofAddr); err != nil {
		fatal(err)
	}

	d, err := daemon.New(daemon.Options{
		Workers: *workers, RepoDir: *repoDir, Evaluators: splitURLs(*evals),
		MaxSessions: *maxSessions, MaxQueue: *maxQueue,
		EventBuffer: *eventBuffer,
	})
	if err != nil {
		fatal(err)
	}
	defer d.Close()
	// Slowloris hardening: bound header reads, idle keep-alives, and header
	// size. No WriteTimeout — SSE streams are deliberately long-lived; each
	// SSE write carries its own deadline inside the daemon instead.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           d.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("autotuned: listening on %s\n", *addr)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
		// Graceful drain: stop admitting (503), end open SSE streams with a
		// terminal "draining" event, checkpoint and stop in-flight sessions
		// (they resume on the next start against the same -repo), then shut
		// the listener down. A drain overrunning its deadline still exits
		// cleanly — the checkpoints on disk are what the next start needs.
		fmt.Println("autotuned: draining")
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		if err := d.Drain(drainCtx); err != nil {
			fmt.Fprintln(os.Stderr, "autotuned: drain:", err)
		}
		cancel()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "autotuned:", err)
	os.Exit(1)
}

// splitURLs parses a comma-separated URL list, dropping empty entries.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}
