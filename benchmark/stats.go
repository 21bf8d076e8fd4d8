package main

import (
	"math"
	"sort"
)

// tailSamples is the percentile rule's floor: a percentile is reported as
// supported only when at least this many samples lie beyond it, so the
// value is set by a population, not by one or two outliers.
const tailSamples = 10

// supported reports whether n samples carry quantile q under the
// percentile rule (at least tailSamples samples beyond it).
func supported(n int, q float64) bool {
	// The epsilon absorbs 1-q's rounding: 100 samples do support p90.
	return float64(n)*(1-q)+1e-9 >= tailSamples
}

// quantile returns the nearest-rank q-quantile of an ascending slice
// (0 for an empty one).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns v ascending without disturbing the caller's order.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the middle value (mean of the two middle values for an even
// count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if m := len(s) / 2; len(s)%2 == 1 {
		return s[m]
	} else {
		return (s[m-1] + s[m]) / 2
	}
}

// quartiles returns the first and third quartile by the exclusive method
// Python's statistics.quantiles(v, n=4) uses — the driver's spread rule —
// so -compare and the README report the same spread the driver computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// mean is the arithmetic mean (0 for an empty slice).
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// gmeanOfGroups is the geometric mean of the positive values within each
// group, then the geometric mean of the non-empty groups' results — each
// group weighs the same however many values it holds. It also returns how
// many values went in; (0, 0) when there are none.
func gmeanOfGroups(groups [][]float64) (float64, int) {
	var sum float64
	n, used := 0, 0
	for _, g := range groups {
		var logs []float64
		for _, x := range g {
			if x > 0 {
				logs = append(logs, math.Log(x))
			}
		}
		if len(logs) > 0 {
			sum += mean(logs)
			used++
			n += len(logs)
		}
	}
	if used == 0 {
		return 0, 0
	}
	return math.Exp(sum / float64(used)), n
}

// span is one timed call into a layer: times are nanoseconds since the
// traced pass began, Parent indexes the pass's span list (-1 for a session
// root), and every span of one session shares its Session id.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Session int    `json:"session"`
}

// selfTimes returns each span's duration minus the part of its interval
// its direct children cover. Children of a parallel batch overlap, so the
// covered part is the union of their intervals, clipped to the parent.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ch := kids[i]
		sort.Slice(ch, func(a, b int) bool { return spans[ch[a]].Start < spans[ch[b]].Start })
		var covered int64
		at := s.Start // everything before at is already counted
		for _, c := range ch {
			lo, hi := spans[c].Start, spans[c].End
			if lo < at {
				lo = at
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}
