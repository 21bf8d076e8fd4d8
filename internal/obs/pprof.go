// Package obs holds the service processes' observability endpoints.
package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// ServePprof serves net/http/pprof under /debug/pprof/ on a listener of its
// own at addr, apart from the service's API, and returns that listener; the
// server stops when it is closed. An empty addr serves nothing and returns
// a nil listener.
//
// Call it first thing in main. Linking runtime/pprof switches on the
// runtime's heap-profile sampling, which the linker leaves off in a program
// that cannot read the samples; their stack records are never freed (about
// 1 MB of RSS in a daemon under load). With no listener nothing reads them,
// so an empty addr switches the sampling back off.
func ServePprof(addr string) (net.Listener, error) {
	if addr == "" {
		runtime.MemProfileRate = 0
		return nil, nil
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(l) // returns once l is closed
	return l, nil
}
