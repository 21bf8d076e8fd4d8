package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the runs of one end-to-end metric on one workload: a is the
// parent's runs, b the change's. The change is worse when its median is
// worse than the parent's by more than the bound. When either side's own
// spread (interquartile range over median) is wider than the bound the runs
// cannot tell, and the row is unresolved — unless every run of one side
// reads better than every run of the other, which no spread explains away.
func judge(m metricDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved
	}
	sign := 1.0 // positive delta = worse
	if m.Better == "higher" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	worseBy := sign * (mb - ma) / ma
	if spread(a) > m.Bound || spread(b) > m.Bound {
		sa, sb := sortedCopy(a), sortedCopy(b)
		switch {
		case allBetter(sign, sa, sb):
			return verdictOK
		case allBetter(sign, sb, sa) && worseBy > m.Bound:
			return verdictWorse
		}
		return verdictUnresolved
	}
	if worseBy > m.Bound {
		return verdictWorse
	}
	return verdictOK
}

// allBetter reports whether every value of y reads better than every value
// of x (both ascending), under the metric's direction.
func allBetter(sign float64, x, y []float64) bool {
	if sign > 0 { // lower is better: y's largest below x's smallest
		return y[len(y)-1] < x[0]
	}
	return y[0] > x[len(x)-1]
}

// spread is the interquartile range as a share of the median — the
// driver's steadiness measure.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / m
}

func readReports(path string) (reportFile, error) {
	var f reportFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints, per workload, one row per end-to-end metric with both
// sides' median and quartiles and the verdict, and returns the exit code:
// non-zero on any worse row, on a higher failed share, or when two runs of
// one seed over the same sessions disagree on the stream digest.
func compareFiles(out io.Writer, pathA, pathB string) int {
	fa, errA := readReports(pathA)
	fb, errB := readReports(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -compare:", err)
		return 2
	}
	return compareReports(out, fa.Runs, fb.Runs)
}

func compareReports(out io.Writer, a, b []report) int {
	exit := 0
	for _, w := range workloads {
		ra, rb := endToEndRuns(a, w.name), endToEndRuns(b, w.name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fmt.Fprintf(out, "== %s  (%d runs vs %d runs)\n", w.name, len(ra), len(rb))
		fmt.Fprintf(out, "  %-24s %12s %25s %12s %25s %8s  %s\n", "metric", "A median", "[q1, q3]", "B median", "[q1, q3]", "change", "verdict")
		for _, m := range endToEnd {
			va, vb := valuesOf(ra, m.Name), valuesOf(rb, m.Name)
			v := judge(m, va, vb)
			if v == verdictWorse {
				exit = 1
			}
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			change := 0.0
			if ma := median(va); ma != 0 {
				change = (median(vb) - ma) / ma * 100
			}
			fmt.Fprintf(out, "  %-24s %12.5g %25s %12.5g %25s %+7.1f%%  %s (bound %.0f%%)\n", m.Name,
				median(va), fmt.Sprintf("[%.5g, %.5g]", a1, a3), median(vb), fmt.Sprintf("[%.5g, %.5g]", b1, b3),
				change, v, m.Bound*100)
		}
		sa, sb := failedShare(ra), failedShare(rb)
		fmt.Fprintf(out, "  %-24s %12.5g %25s %12.5g\n", "failed_share", sa, "", sb)
		if sb > sa {
			fmt.Fprintf(out, "  FAILED: failed_share rose from %g to %g\n", sa, sb)
			exit = 1
		}
		for _, x := range ra {
			for _, y := range rb {
				if x.Seed == y.Seed && x.DigestSessions == y.DigestSessions && x.StreamDigest != y.StreamDigest {
					fmt.Fprintf(out, "  FAILED: seed %d: stream_digest over %d sessions differs (%.12s vs %.12s)\n",
						x.Seed, x.DigestSessions, x.StreamDigest, y.StreamDigest)
					exit = 1
				}
			}
		}
	}
	return exit
}

func endToEndRuns(rs []report, workload string) []report {
	var out []report
	for _, r := range rs {
		if r.Workload == workload && !r.Traced {
			out = append(out, r)
		}
	}
	return out
}

func valuesOf(rs []report, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func failedShare(rs []report) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
