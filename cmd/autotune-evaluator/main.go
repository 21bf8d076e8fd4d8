// Command autotune-evaluator is one member of a remote trial-evaluation
// fleet: it rebuilds sysmodel targets from assignments, evaluates trials at
// their coordinator-reserved run indices, and streams completions back with
// periodic heartbeats. Point a daemon (autotuned -evaluators) or the CLI
// (autotune -evaluators) at one or more of these; results are byte-identical
// to local evaluation.
//
// Usage:
//
//	autotune-evaluator -addr :8081 -workers 4
//	autotune-evaluator -addr :8081 -coordinator http://localhost:8080 \
//	    -advertise http://10.0.0.7:8081
//	autotune-evaluator -addr :8081 -pprof 127.0.0.1:6061   # profiles on a second listener
//
// With -coordinator the evaluator announces itself to a running autotuned
// via POST /evaluators at startup (using -advertise as its reachable base
// URL, derived from -addr when unset), so the fleet can grow without
// restarting the daemon.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
)

func main() {
	var (
		addr        = flag.String("addr", ":8081", "listen address")
		workers     = flag.Int("workers", 1, "concurrent evaluations admitted")
		name        = flag.String("name", "", "evaluator name in registrations and health reports (default: the listen address)")
		heartbeat   = flag.Duration("heartbeat", 500*time.Millisecond, "interval between heartbeat frames on an open lease; a coordinator declares a lease lost after ten pass without a frame")
		coordinator = flag.String("coordinator", "", "autotuned base URL to announce this evaluator to at startup")
		advertise   = flag.String("advertise", "", "base URL coordinators reach this evaluator at (default: http://127.0.0.1<addr>)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof under /debug/pprof/ on this address, apart from the lease API (default: off)")
	)
	flag.Parse()

	if _, err := obs.ServePprof(*pprofAddr); err != nil {
		fatal(err)
	}

	if *name == "" {
		*name = "evaluator" + *addr
	}
	ev := dist.NewEvaluator(dist.EvaluatorOptions{
		Name:           *name,
		Workers:        *workers,
		HeartbeatEvery: *heartbeat,
	})
	// Slowloris hardening, mirroring autotuned: bound header reads, idle
	// keep-alives, and header size. Lease streams are long-lived, so no
	// server-wide WriteTimeout.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           ev.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("autotune-evaluator: %s listening on %s (%d workers)\n", *name, *addr, *workers)

	if *coordinator != "" {
		if err := announce(*coordinator, selfURL(*advertise, *addr)); err != nil {
			fatal(err)
		}
		fmt.Printf("autotune-evaluator: registered with %s\n", *coordinator)
	}

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fatal(err)
		}
	}
}

// selfURL resolves the base URL coordinators should dial back.
func selfURL(advertise, addr string) string {
	if advertise != "" {
		return advertise
	}
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	return "http://" + addr
}

// announce registers this evaluator with the coordinator's fleet.
func announce(coordinator, self string) error {
	body, _ := json.Marshal(map[string]string{"url": self})
	resp, err := http.Post(strings.TrimRight(coordinator, "/")+"/evaluators", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("announcing to %s: %w", coordinator, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("announcing to %s: status %d", coordinator, resp.StatusCode)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "autotune-evaluator:", err)
	os.Exit(1)
}
