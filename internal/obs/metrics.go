package obs

import (
	"fmt"
	"net/http"
	"runtime/metrics"
)

// runtimeGauges are what GET /metrics reports: each a Prometheus name, type
// and help line, and the runtime/metrics samples its value sums.
var runtimeGauges = []struct {
	name, kind, help string
	from             []string
}{
	{"go_memstats_heap_inuse_bytes", "gauge", "Bytes in in-use heap spans.",
		[]string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}},
	{"go_memstats_alloc_bytes_total", "counter", "Bytes allocated on the heap, ever.",
		[]string{"/gc/heap/allocs:bytes"}},
	{"go_memstats_mallocs_total", "counter", "Heap objects allocated, ever.",
		[]string{"/gc/heap/allocs:objects"}},
	{"go_gc_cycles_total", "counter", "Completed GC cycles.",
		[]string{"/gc/cycles/total:gc-cycles"}},
	{"go_goroutines", "gauge", "Goroutines that currently exist.",
		[]string{"/sched/goroutines:goroutines"}},
}

// ServeMetrics answers GET /metrics with the process's runtime gauges in
// the Prometheus text format. The service processes mount it on their API
// listener: it reads only the runtime's counters, never session state, so a
// scrape takes none of the service's locks.
func ServeMetrics(w http.ResponseWriter, _ *http.Request) {
	var samples []metrics.Sample
	for _, g := range runtimeGauges {
		for _, name := range g.from {
			samples = append(samples, metrics.Sample{Name: name})
		}
	}
	metrics.Read(samples)
	var out []byte
	for _, g := range runtimeGauges {
		var v uint64
		for range g.from {
			if samples[0].Value.Kind() == metrics.KindUint64 {
				v += samples[0].Value.Uint64()
			}
			samples = samples[1:]
		}
		out = fmt.Appendf(out, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", g.name, g.help, g.name, g.kind, g.name, v)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(out)
}
