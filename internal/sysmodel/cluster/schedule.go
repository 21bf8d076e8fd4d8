package cluster

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
	idle := make([]float64, min(len(durations), max(slots, 1)))
	for i, d := range durations[:len(idle)] {
		idle[i] = start + d
	}
	copy(completions, idle)
	if rest := durations[len(idle):]; len(rest) > 0 {
		for i := len(idle)/2 - 1; i >= 0; i-- {
			siftDown(idle, i)
		}
		for t, d := range rest {
			idle[0] += d
			if completions != nil {
				completions[len(idle)+t] = idle[0]
			}
			siftDown(idle, 0)
		}
	}
	makespan := start
	for _, v := range idle {
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
