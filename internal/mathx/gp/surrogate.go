package gp

import (
	"errors"
	"math"
	"sync"

	"repro/internal/mathx/linalg"
	"repro/internal/mathx/stat"
)

// Surrogate is the model surface the GP-based tuners program against: the
// exact GP below, the sparse inducing-point GP, and the random-Fourier-
// feature regressor all implement it, so iTuned and OtterTune consume any
// tier unchanged. The contract mirrors the exact GP's: observations are
// standardized internally, an unfitted surrogate predicts (0, +Inf) — and
// scores 0 expected improvement — rather than panicking, Append conditions
// on one observation with hyperparameters frozen, and none of the methods
// are safe for concurrent use on one instance (they share per-instance
// workspaces to stay allocation-free).
type Surrogate interface {
	// Fit conditions the surrogate on (x, y), selecting hyperparameters
	// when optimize is set. Rows of x are deep-copied.
	Fit(x [][]float64, y []float64, optimize bool) error
	// Append conditions on one more observation with hyperparameters (and,
	// for the sparse tier, the inducing set) unchanged.
	Append(x []float64, y float64) error
	// Predict returns the posterior mean and standard deviation at p in
	// original y units; (0, +Inf) before a successful Fit.
	Predict(p []float64) (mu, sigma float64)
	// ExpectedImprovement scores p against the incumbent best (larger is
	// better); 0 before a successful Fit.
	ExpectedImprovement(p []float64, best float64) float64
	// ScoreCandidates batch-scores expected improvement for a candidate
	// pool, writing into dst when it has capacity.
	ScoreCandidates(points [][]float64, best float64, dst []float64) []float64
	// TrainingSize returns the number of conditioning observations.
	TrainingSize() int
	// Tier names the surrogate tier ("exact", "sparse", "rff").
	Tier() string
}

// Interface conformance.
var (
	_ Surrogate = (*GP)(nil)
	_ Surrogate = (*SparseGP)(nil)
	_ Surrogate = (*RFF)(nil)
)

// predictor is the one method the shared scoring path needs from a tier.
type predictor interface {
	Predict(p []float64) (mu, sigma float64)
}

// expectedImprovementAt is every tier's ExpectedImprovement: EI at p of m's
// posterior against the incumbent best.
func expectedImprovementAt(m predictor, p []float64, best float64) float64 {
	mu, sigma := m.Predict(p)
	return expectedImprovement(mu, sigma, best)
}

// scoreCandidates is every tier's ScoreCandidates: EI against best at every
// point, written into dst when it has capacity.
func scoreCandidates(m predictor, points [][]float64, best float64, dst []float64) []float64 {
	if cap(dst) < len(points) {
		dst = make([]float64, len(points))
	}
	dst = dst[:len(points)]
	for i, p := range points {
		dst[i] = expectedImprovementAt(m, p, best)
	}
	return dst
}

// expectedImprovement is the shared EI arithmetic: identical to the exact
// GP's historical formula for finite sigma, and 0 for the unfitted case
// (sigma = +Inf), where the raw formula would produce ±Inf/NaN scores that
// a candidate-screening argmax would then propagate. An unfitted tier's
// Predict returns exactly that case, so no tier needs a guard of its own.
func expectedImprovement(mu, sigma, best float64) float64 {
	if sigma < 1e-12 || math.IsInf(sigma, 1) {
		return 0
	}
	z := (best - mu) / sigma
	return (best-mu)*stat.NormCDF(z) + sigma*stat.NormPDF(z)
}

// standardize computes the shared y-standardization: mean, a std floored
// away from zero, and the standardized targets written into ys (resized).
func standardize(ys []float64, yRaw []float64) ([]float64, float64, float64) {
	mean := stat.Mean(yRaw)
	std := stat.Std(yRaw)
	if std < 1e-12 {
		std = 1
	}
	ys = resize(ys, len(yRaw))
	for i, v := range yRaw {
		ys[i] = (v - mean) / std
	}
	return ys, mean, std
}

// checkTrainingSet validates the (x, y) pair every Fit accepts and returns
// the input dimension. A non-finite value is refused here, loudly: conditioned
// on one, every tier would fit without complaint and then predict (NaN, NaN)
// for the rest of the session.
func checkTrainingSet(x [][]float64, y []float64) (int, error) {
	if len(x) != len(y) {
		return 0, errors.New("gp: x and y length mismatch")
	}
	if len(x) == 0 {
		return 0, errors.New("gp: empty training set")
	}
	d := len(x[0])
	for i, row := range x {
		if len(row) != d {
			return 0, errors.New("gp: ragged training inputs")
		}
		if err := checkObservation(row, y[i]); err != nil {
			return 0, err
		}
	}
	return d, nil
}

// checkObservation refuses a non-finite input coordinate or target — the
// per-point half of checkTrainingSet, shared with every tier's Append.
func checkObservation(x []float64, y float64) error {
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return errors.New("gp: non-finite observation")
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("gp: non-finite input coordinate")
		}
	}
	return nil
}

// trainingSet is the conditioning data of the sparse and RFF tiers: inputs
// and targets that Append grows in place, in capacity load reserved.
type trainingSet struct {
	x     *linalg.Matrix // n×d training inputs (deep copy)
	yRaw  []float64
	yMean float64
	yStd  float64
	ys    []float64 // standardized targets
}

// load validates and deep-copies (x, y), reserving room more rows, and
// returns the input dimension.
func (t *trainingSet) load(x [][]float64, y []float64, room int) (int, error) {
	d, err := checkTrainingSet(x, y)
	if err != nil {
		return 0, err
	}
	n := len(y)
	t.x = newRows(n, d, room)
	for i, row := range x {
		copy(t.x.Data[i*d:(i+1)*d], row)
	}
	t.yRaw = append(make([]float64, 0, n+room), y...)
	t.ys, t.yMean, t.yStd = standardize(make([]float64, 0, n+room), t.yRaw)
	return d, nil
}

// push validates one more observation, appends it and re-standardizes the
// targets (ys is extended by append so that, past the reserved room, it grows
// the amortized way rather than to the exact size standardize would give it).
func (t *trainingSet) push(x []float64, y float64) error {
	if len(x) != t.x.C {
		return errors.New("gp: Append dimension mismatch")
	}
	if err := checkObservation(x, y); err != nil {
		return err
	}
	appendRow(t.x, x)
	t.yRaw = append(t.yRaw, y)
	t.ys, t.yMean, t.yStd = standardize(append(t.ys, 0), t.yRaw)
	return nil
}

// newRows returns an n×c matrix whose backing array has capacity for room
// more rows, so appendRow extends it in place.
func newRows(n, c, room int) *linalg.Matrix {
	return &linalg.Matrix{R: n, C: c, Data: make([]float64, n*c, (n+room)*c)}
}

// appendRow adds row to m — in place while the capacity newRows reserved
// lasts, the amortized way after — and returns the row as stored.
func appendRow(m *linalg.Matrix, row []float64) []float64 {
	m.Data = append(m.Data, row...)
	m.R++
	return m.Data[len(m.Data)-m.C:]
}

// kCenterIndices returns m row indices of x chosen by deterministic greedy
// k-center (farthest-point) selection: start from the point farthest from
// the centroid, then repeatedly add the point maximizing its distance to
// the chosen set. Ties break toward the lowest index and the selection
// reads only the inputs, so for fixed data the inducing set is a pure
// function of (x, m) — no randomness, no map-order dependence — which keeps
// sparse-tier sessions byte-identical at any parallelism. Indices are
// returned in ascending order, none twice: when fewer than m rows are
// distinct the selection stops at the distinct count instead of picking
// coincident points at distance 0. Cost O(n·m·d).
func kCenterIndices(x *linalg.Matrix, m int) []int {
	n, d := x.R, x.C
	if m >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	xd := x.Data
	centroid := make([]float64, d)
	for i := 0; i < n; i++ {
		row := xd[i*d : (i+1)*d]
		for k, v := range row {
			centroid[k] += v
		}
	}
	for k := range centroid {
		centroid[k] /= float64(n)
	}
	sq := func(a, b []float64) float64 {
		var s float64
		for k, v := range a {
			diff := v - b[k]
			s += diff * diff
		}
		return s
	}
	first, firstD := 0, math.Inf(-1)
	for i := 0; i < n; i++ {
		if dd := sq(xd[i*d:(i+1)*d], centroid); dd > firstD {
			first, firstD = i, dd
		}
	}
	chosen := make([]int, 0, m)
	chosen = append(chosen, first)
	minD := make([]float64, n)
	for i := 0; i < n; i++ {
		minD[i] = sq(xd[i*d:(i+1)*d], xd[first*d:(first+1)*d])
	}
	for len(chosen) < m {
		next, nextD := -1, math.Inf(-1)
		for i := 0; i < n; i++ {
			if minD[i] > nextD {
				next, nextD = i, minD[i]
			}
		}
		if nextD <= 0 {
			break // every remaining row coincides with a chosen one
		}
		chosen = append(chosen, next)
		for i := 0; i < n; i++ {
			if dd := sq(xd[i*d:(i+1)*d], xd[next*d:(next+1)*d]); dd < minD[i] {
				minD[i] = dd
			}
		}
	}
	sortInts(chosen)
	return chosen
}

func sortInts(s []int) {
	// Insertion sort: m is small (≤ ~128) and this avoids importing sort.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// subsetHypers grid-searches hyperparameters on an exact GP restricted to
// the given row subset — O(m³) per candidate instead of O(n³) — and returns
// the winner. The subset's own standardization is close to the full set's
// for the smooth surfaces tuners model; the approximation is documented in
// DESIGN.md §12. On a degenerate subset (factorization fails throughout) it
// returns fallback.
func subsetHypers(kernel KernelKind, x *linalg.Matrix, yRaw []float64, subset []int, fallback Hyper) Hyper {
	d := x.C
	sx := make([][]float64, len(subset))
	sy := make([]float64, len(subset))
	for i, at := range subset {
		sx[i] = x.Data[at*d : (at+1)*d]
		sy[i] = yRaw[at]
	}
	g := New(kernel)
	if err := g.Fit(sx, sy, true); err != nil {
		return fallback
	}
	return g.Hyper
}

// accumGram accumulates base + Σᵢ wᵢ·rowᵢ·rowᵢᵀ over the rows of rows,
// returning a new m×m symmetric matrix. weights may be nil (all 1). The sum
// is chunked at a fixed width and the per-chunk partial matrices are merged
// in chunk order, so the result is bit-identical at every worker count: the
// chunk boundaries — not the worker count — define the floating-point
// grouping. This is the O(n·m²) information-matrix build shared by the
// sparse GP (A = Kmm + Kmn·Λ⁻¹·Knm) and the RFF regressor (G = ΦᵀΦ + λI).
func accumGram(base *linalg.Matrix, rows *linalg.Matrix, weights []float64, workers int) *linalg.Matrix {
	const gramChunk = 256
	n, m := rows.R, rows.C
	out := base.Clone()
	nchunks := (n + gramChunk - 1) / gramChunk
	parts := make([]*linalg.Matrix, nchunks)
	parallelGram(nchunks, workers, func(c int) {
		p := linalg.New(m, m)
		pd := p.Data
		lo, hi := c*gramChunk, (c+1)*gramChunk
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			row := rows.Data[i*m : (i+1)*m]
			w := 1.0
			if weights != nil {
				w = weights[i]
			}
			for a := 0; a < m; a++ {
				va := w * row[a]
				if va == 0 {
					continue
				}
				prow := pd[a*m : a*m+a+1]
				for b, rb := range row[:a+1] {
					prow[b] += va * rb
				}
			}
		}
		parts[c] = p
	})
	od := out.Data
	for _, p := range parts { // fixed merge order: chunk 0, 1, 2, …
		pd := p.Data
		for a := 0; a < m; a++ {
			for b := 0; b <= a; b++ {
				od[a*m+b] += pd[a*m+b]
			}
		}
	}
	for a := 0; a < m; a++ { // mirror the lower triangle
		for b := a + 1; b < m; b++ {
			od[a*m+b] = od[b*m+a]
		}
	}
	return out
}

// parallelGram runs fn(c) for c in [0, chunks) across up to workers
// goroutines. Each chunk writes only its own slot, so scheduling order is
// invisible in the result.
func parallelGram(chunks, workers int, fn func(c int)) {
	if workers <= 1 || chunks <= 1 {
		for c := 0; c < chunks; c++ {
			fn(c)
		}
		return
	}
	if workers > chunks {
		workers = chunks
	}
	var wg sync.WaitGroup
	step := (chunks + workers - 1) / workers
	for lo := 0; lo < chunks; lo += step {
		hi := lo + step
		if hi > chunks {
			hi = chunks
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for c := lo; c < hi; c++ {
				fn(c)
			}
		}(lo, hi)
	}
	wg.Wait()
}
