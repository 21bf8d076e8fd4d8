package gp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mathx/linalg"
)

// gridScore is one candidate's log-marginal likelihood as a grid scan
// reports it.
type gridScore struct {
	h  Hyper
	lm float64
}

// serialHyperGrid is the grid search one candidate at a time: a scale, a
// diagonal add and a linalg.CholeskyWithJitter call per candidate into
// reused workspaces. It is the reference scanHyperGrid is held to, bit for
// bit; rescued counts the candidates that factored only with jitter.
func serialHyperGrid(kernel KernelKind, d2 *linalg.Matrix, ys []float64) (scores []gridScore, rescued int) {
	n := d2.R
	b := linalg.New(n, n)
	k := linalg.New(n, n)
	ch := &linalg.Cholesky{L: linalg.New(n, n)}
	z := make([]float64, n)
	logConst := 0.5 * float64(n) * math.Log(2*math.Pi)
	for _, l := range gridLengths {
		kernelMatrixInto(kernel, b, d2, 1, l)
		for _, nz := range gridNoises {
			noise := nz * nz
			for _, sv := range gridSignals {
				for i := 0; i < n; i++ {
					brow := b.Data[i*n : i*n+i+1]
					krow := k.Data[i*n : i*n+i+1]
					for t, v := range brow {
						krow[t] = sv * v
					}
				}
				k.AddDiag(noise + 1e-8)
				added, err := linalg.CholeskyWithJitter(k, ch.L)
				if err != nil {
					continue
				}
				if added > 0 {
					rescued++
				}
				ch.SolveLowerInto(z, ys)
				lm := -0.5*linalg.Dot(z, z) - 0.5*ch.LogDet() - logConst
				scores = append(scores, gridScore{Hyper{SignalVar: sv, Lengthscale: l, NoiseStd: nz}, lm})
			}
		}
	}
	return scores, rescued
}

// checkGridMatchesSerial holds scanHyperGrid to serialHyperGrid on one
// training set: the same candidates in the same order with the same
// likelihood bits, and optimizeHypers' choice the serial scan's first
// strict maximum. It returns how many candidates factored only with jitter.
func checkGridMatchesSerial(t *testing.T, label string, kernel KernelKind, d2 *linalg.Matrix, ys []float64) int {
	t.Helper()
	want, rescued := serialHyperGrid(kernel, d2, ys)
	var got []gridScore
	scanHyperGrid(kernel, d2, ys, func(h Hyper, lm float64) { got = append(got, gridScore{h, lm}) })
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates scored, serial scan %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].h != want[i].h || math.Float64bits(got[i].lm) != math.Float64bits(want[i].lm) {
			t.Fatalf("%s: candidate %d is %+v at %x, serial scan %+v at %x", label, i,
				got[i].h, math.Float64bits(got[i].lm), want[i].h, math.Float64bits(want[i].lm))
		}
	}
	g := &GP{Kernel: kernel, Hyper: Hyper{SignalVar: 1, Lengthscale: 0.3, NoiseStd: 0.1}, d2: d2, ys: ys}
	wantH, best := g.Hyper, math.Inf(-1)
	for _, s := range want {
		if s.lm > best {
			best, wantH = s.lm, s.h
		}
	}
	if g.optimizeHypers(); g.Hyper != wantH {
		t.Fatalf("%s: optimizeHypers chose %+v, serial scan %+v", label, g.Hyper, wantH)
	}
	return rescued
}

// fitInputs fits a GP with fixed hyperparameters and returns the distance
// matrix and standardized targets the grid reads.
func fitInputs(t *testing.T, kernel KernelKind, xs [][]float64, ys []float64) (*linalg.Matrix, []float64) {
	t.Helper()
	g := New(kernel)
	if err := g.Fit(xs, ys, false); err != nil {
		t.Fatal(err)
	}
	return g.d2, g.ys
}

// The lane grid against the serial loop on random training sets of every
// size class the tuners fit (a lane block per n mod 4 included), with the
// kernels forced each way where they exist.
func TestHyperGridMatchesSerialLoop(t *testing.T) {
	for _, kernel := range []KernelKind{SquaredExponential, Matern52} {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13, 20, 33, 47, 60, 64, 80} {
			xs, ys := goldenData(n, 3+n%4, int64(n))
			d2, zs := fitInputs(t, kernel, xs, ys)
			checkGridMatchesSerial(t, fmt.Sprintf("kernel %v n=%d", kernel, n), kernel, d2, zs)
		}
	}
}

func TestHyperGridMatchesSerialLoopRace3(t *testing.T) { TestHyperGridMatchesSerialLoop(t) }

// Candidates whose kernel matrix does not factor take the jitter fallback
// while the other lanes of their block do not. Duplicated rows alone never
// get there (the noise floor, 1e-4 on the diagonal, keeps the matrix
// positive definite), so the second set of each pair bends its squared
// distances: rows 1 and 2 sit where row 0 does for every other row, yet
// lie bent apart from each other, and the kernel matrix has a negative
// eigenvalue that grows as the lengthscale shrinks. Across the grid some
// candidates factor, some need jitter and some fail outright.
func TestHyperGridJitterLanesMatchSerialLoop(t *testing.T) {
	rescued := 0
	for _, kernel := range []KernelKind{SquaredExponential, Matern52} {
		for _, n := range []int{6, 17, 40} {
			xs, ys := goldenData(n, 2, int64(n))
			for i := 1; i < n; i += 2 {
				copy(xs[i], xs[i-1]) // duplicated inputs with different targets
			}
			d2, zs := fitInputs(t, kernel, xs, ys)
			rescued += checkGridMatchesSerial(t, fmt.Sprintf("kernel %v n=%d duplicated", kernel, n), kernel, d2, zs)

			xs, ys = goldenData(n, 2, int64(n)+100)
			d2, zs = fitInputs(t, kernel, xs, ys)
			for k := 0; k < n; k++ {
				for _, i := range []int{1, 2} {
					d2.Set(i, k, d2.At(0, k))
					d2.Set(k, i, d2.At(k, 0))
				}
			}
			bend := 0.2 + 0.05*float64(n%5)
			d2.Set(1, 2, bend)
			d2.Set(2, 1, bend)
			rescued += checkGridMatchesSerial(t, fmt.Sprintf("kernel %v n=%d bent", kernel, n), kernel, d2, zs)
		}
	}
	if rescued == 0 {
		t.Fatal("no candidate needed jitter and then factored: the fallback went untested")
	}
}

func TestHyperGridJitterLanesMatchSerialLoopRace3(t *testing.T) {
	TestHyperGridJitterLanesMatchSerialLoop(t)
}
