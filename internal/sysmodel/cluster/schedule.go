package cluster

import (
	"math"
	"math/bits"
	"sort"
)

// ListSchedule runs durations, in order, over slots task slots (fewer than
// one counts as one) that all fall idle at start: each task goes to a slot
// that falls idle first. It returns when the last slot falls idle (start if
// there are no tasks) and, when completions is non-nil, writes each task's
// completion time to it; completions must then be as long as durations.
//
// Which of several equally idle slots takes a task is left open, because it
// cannot matter: the task completes at the smallest idle time plus its
// duration whichever slot that is, so the multiset of idle times after every
// task — and with it every completion and the makespan — is the one a scan
// for the lowest-numbered idle slot gives. That holds when no duration is
// negative or NaN, which the simulators' durations never are. The slots are
// therefore a binary min-heap of bare idle times: the first min(tasks, slots)
// tasks start at start, the heap is built from their completions once, and
// each later task replaces the top with top + duration — O(log slots) a task.
func ListSchedule(durations []float64, slots int, start float64, completions []float64) float64 {
	k := min(len(durations), max(slots, 1))
	idle := make([]float64, k, k+1)
	for i, d := range durations[:k] {
		idle[i] = start + d
	}
	copy(completions, idle)
	if rest := durations[k:]; len(rest) > 0 {
		// One +Inf pads the heap to odd length, so every inner node has two
		// children. It is a right child and never smaller than its sibling,
		// so it never moves and never takes a task: idle[:k] stay the slots.
		if k%2 == 0 {
			idle = append(idle, math.Inf(1))
		}
		for i := len(idle)/2 - 1; i >= 0; i-- {
			siftDown(idle, i)
		}
		for t, d := range rest {
			x := idle[0] + d
			if completions != nil {
				completions[k+t] = x
			}
			replaceTop(idle, x)
		}
	}
	makespan := start
	for _, v := range idle[:k] {
		if v > makespan {
			makespan = v
		}
	}
	return makespan
}

// siftDown moves h[i] down the min-heap h to where neither child is smaller.
func siftDown(h []float64, i int) {
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if !(h[c] < x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// replaceTop replaces the top of the min-heap h, whose length is odd, with x
// bottom-up (Floyd): it moves the smaller child up level by level to a leaf,
// then sifts x up from that leaf. In a stage a new idle time lands deep — a
// task's completion is later than most slots' — so the descent compares
// children only, without the branch on x that a top-down sift mispredicts
// at almost every level, and the climb back is short.
func replaceTop(h []float64, x float64) {
	i := 0
	for c := 1; c < len(h); c = 2*i + 1 {
		c += b2i(h[c+1] < h[c])
		h[i] = h[c]
		i = c
	}
	for i > 0 {
		p := (i - 1) / 2
		if !(x < h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag set,
// not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// SortedAt returns the element sort.Float64s would leave at index k of xs,
// found by selection; it reorders xs. k must index xs.
func SortedAt(xs []float64, k int) float64 {
	// sort.Float64s' order: NaNs first.
	less := func(a, b float64) bool { return a < b || (a != a && b == b) }
	lo, hi := 0, len(xs)
	// Quickselect on the middle element; a range that is small, or is left
	// after 2·log₂ len rounds, is sorted outright.
	for limit := 2 * bits.Len(uint(len(xs))); hi-lo > 12 && limit > 0; limit-- {
		m := xs[lo+(hi-lo)/2]
		i, j := lo, hi-1
		for i <= j {
			for less(xs[i], m) {
				i++
			}
			for less(m, xs[j]) {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// xs[lo:j+1] ≤ pivot ≤ xs[i:hi], and anything between is the pivot.
		switch {
		case k <= j:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	sort.Float64s(xs[lo:hi])
	return xs[k]
}
