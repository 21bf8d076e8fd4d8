package obs_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/daemon"
	"repro/internal/dist"
	"repro/internal/obs"
)

// TestServePprofAnswers starts the listener on a free port and reads the
// profile index and a profile from it.
func TestServePprofAnswers(t *testing.T) {
	l, err := obs.ServePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for path, want := range map[string]string{
		"/debug/pprof/":                  "goroutine",
		"/debug/pprof/goroutine?debug=1": "goroutine profile",
		"/debug/pprof/cmdline":           "obs.test",
		"/debug/pprof/symbol":            "num_symbols",
	} {
		resp, err := http.Get("http://" + l.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("GET %s = %d, want 200 with %q", path, resp.StatusCode, want)
		}
	}
}

// TestServePprofOffByDefault checks an unset address opens no listener and
// samples no heap profile, and that neither service's API serves the
// profiles itself.
func TestServePprofOffByDefault(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	if l, err := obs.ServePprof(""); l != nil || err != nil {
		t.Fatalf(`ServePprof("") = %v, %v; want no listener`, l, err)
	}
	if runtime.MemProfileRate != 0 {
		t.Errorf("heap-profile sampling left on at rate %d with no listener", runtime.MemProfileRate)
	}
	d, err := daemon.New(daemon.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for name, h := range map[string]http.Handler{
		"autotuned":          d.Handler(),
		"autotune-evaluator": dist.NewEvaluator(dist.EvaluatorOptions{}).Handler(),
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s's API answers GET /debug/pprof/ with %d, want 404", name, rec.Code)
		}
	}
}
