package obs_test

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/daemon"
	"repro/internal/dist"
)

var sink [][]byte

// scrape reads GET /metrics from h and returns each sample's value by name,
// checking the text format on the way: a HELP and a TYPE line before every
// sample, and every sample an unsigned integer.
func scrape(t *testing.T, h http.Handler) map[string]uint64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics = %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	if len(lines)%3 != 0 {
		t.Fatalf("GET /metrics: %d lines, want HELP, TYPE and a sample per metric:\n%s", len(lines), rec.Body)
	}
	got := map[string]uint64{}
	for i := 0; i < len(lines); i += 3 {
		name, value, _ := strings.Cut(lines[i+2], " ")
		if !strings.HasPrefix(lines[i], "# HELP "+name+" ") || !strings.HasPrefix(lines[i+1], "# TYPE "+name+" ") {
			t.Fatalf("sample %q lacks its HELP and TYPE lines:\n%s", lines[i+2], rec.Body)
		}
		v, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", lines[i+2], err)
		}
		got[name] = v
	}
	return got
}

// TestMetricsServesRuntimeGauges reads the runtime gauges from both
// services' API handlers; allocating between two scrapes moves the
// allocation counters.
func TestMetricsServesRuntimeGauges(t *testing.T) {
	d, err := daemon.New(daemon.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for name, h := range map[string]http.Handler{
		"autotuned":          d.Handler(),
		"autotune-evaluator": dist.NewEvaluator(dist.EvaluatorOptions{}).Handler(),
	} {
		before := scrape(t, h)
		for _, m := range []string{"go_memstats_heap_inuse_bytes", "go_memstats_alloc_bytes_total", "go_memstats_mallocs_total", "go_gc_cycles_total", "go_goroutines"} {
			if _, ok := before[m]; !ok {
				t.Errorf("%s: GET /metrics lacks %s", name, m)
			}
		}
		if before["go_goroutines"] == 0 || before["go_memstats_heap_inuse_bytes"] == 0 {
			t.Errorf("%s: GET /metrics reports no goroutines or no heap: %v", name, before)
		}
		// Large objects: the runtime counts them as they are allocated, small
		// ones only when a P's cache is flushed.
		sink = nil
		for i := 0; i < 10; i++ {
			sink = append(sink, make([]byte, 64<<10))
		}
		after := scrape(t, h)
		if after["go_memstats_alloc_bytes_total"] < before["go_memstats_alloc_bytes_total"]+640<<10 ||
			after["go_memstats_mallocs_total"] < before["go_memstats_mallocs_total"]+10 {
			t.Errorf("%s: 640 KiB in 10 objects allocated between scrapes, counters moved %v → %v", name, before, after)
		}
	}
}
