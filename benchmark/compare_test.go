package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "session_wall_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "trials_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name string
		m    metricDef
		a, b []float64
		want string
	}{
		{"unchanged", lower, steady, []float64{101, 100, 102, 99, 100}, verdictOK},
		{"inside the bound", lower, steady, []float64{108, 109, 107, 108, 110}, verdictOK},
		{"slower by more than the bound", lower, steady, []float64{120, 121, 119, 120, 122}, verdictWorse},
		{"faster", lower, steady, []float64{50, 51, 49, 50, 52}, verdictOK},
		{"throughput down", higher, steady, []float64{80, 81, 79, 80, 82}, verdictWorse},
		{"throughput up", higher, steady, []float64{130, 131, 129, 130, 132}, verdictOK},
		{"spread wider than the bound", lower, []float64{80, 100, 120, 90, 115}, []float64{85, 105, 125, 95, 118}, verdictUnresolved},
		{"wide spread, every run better", lower, []float64{80, 100, 120, 90, 115}, []float64{40, 50, 60, 45, 55}, verdictOK},
		{"wide spread, every run worse", lower, []float64{80, 100, 120, 90, 115}, []float64{160, 200, 240, 180, 230}, verdictWorse},
		{"nothing to compare", lower, steady, nil, verdictUnresolved},
	} {
		if got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func runsOf(workload string, seed int64, wall []float64, failed int, digest string) []report {
	var out []report
	for _, v := range wall {
		r := report{Workload: workload, Seed: seed, Correct: failed == 0, Attempted: 100, Failed: failed,
			StreamDigest: digest, DigestSessions: 10}
		for _, m := range endToEnd {
			r.set(m.Name, m.Unit, 1, 0)
		}
		r.set("session_wall_ms_p50", "ms", v, 100)
		out = append(out, r)
	}
	return out
}

func TestCompareReportsExitCode(t *testing.T) {
	base := runsOf("short_sessions", 1, []float64{10, 10.1, 9.9}, 0, "aa")
	for _, c := range []struct {
		name   string
		b      []report
		exit   int
		expect string
	}{
		{"same", runsOf("short_sessions", 1, []float64{10.1, 10, 9.9}, 0, "aa"), 0, "ok"},
		{"regressed", runsOf("short_sessions", 1, []float64{13, 13.1, 12.9}, 0, "aa"), 1, "worse"},
		{"more failures", runsOf("short_sessions", 1, []float64{10, 10.1, 9.9}, 2, "aa"), 1, "failed_share rose"},
		{"different answers", runsOf("short_sessions", 1, []float64{10, 10.1, 9.9}, 0, "bb"), 1, "stream_digest"},
		{"other seed, other digest", runsOf("short_sessions", 2, []float64{10, 10.1, 9.9}, 0, "bb"), 0, "ok"},
	} {
		var out bytes.Buffer
		if got := compareReports(&out, base, c.b); got != c.exit {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, got, c.exit, out.String())
		}
		if !strings.Contains(out.String(), c.expect) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.expect, out.String())
		}
	}
}
