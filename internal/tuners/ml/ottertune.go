// Package ml implements the survey's fifth category: black-box machine
// learning tuners that treat the system as a whole and learn from observed
// performance.
//
//   - OtterTune (Van Aken et al., SIGMOD 2017): the full pipeline — runtime
//     metric dimensionality reduction (PCA + k-means pruning), knob ranking
//     by Lasso regularization paths, workload mapping against a repository
//     of past tuning sessions, and Gaussian-process recommendation reusing
//     the mapped workload's data.
//   - NeuralTuner (Rodd & Kulkarni, IJCSIS 2010): an MLP response surrogate
//     searched for promising configurations, retrained as observations
//     accumulate.
//
// ML tuners capture arbitrary system dynamics without internals knowledge —
// but they need data: the Table-1 experiment shows the cold-start penalty
// without a repository and the transfer gain with one.
package ml

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/mathx/cluster"
	"repro/internal/mathx/lasso"
	"repro/internal/mathx/xrand"
	"repro/internal/tune"
)

// OtterTune is the repository-driven GP tuner.
type OtterTune struct {
	Seed int64
	// Repo is the corpus of past sessions; nil degrades to cold-start GP.
	Repo *tune.Repository
}

const (
	// otTopKnobs bounds the knobs actively tuned after Lasso ranking;
	// remaining knobs stay at their defaults.
	otTopKnobs = 8
	// otPrunedMetrics is the metric count kept after pruning.
	otPrunedMetrics = 6
	// otInitObs is the number of initial observations on the new target
	// (after the default configuration).
	otInitObs = 5
)

// NewOtterTune returns an OtterTune instance using repo (which may be nil).
func NewOtterTune(seed int64, repo *tune.Repository) *OtterTune {
	return &OtterTune{Seed: seed, Repo: repo}
}

// MappedWorkload returns the past workload a plain session of this tuner on
// the named system mapped its target onto, given the session's trials: the
// mapping reads the initial design's successful observations and the metrics
// pruning keeps, both pure functions of the seed and the corpus. It is ""
// when the session ended before mapping or nothing was mapped.
func (t *OtterTune) MappedWorkload(system string, trials []tune.Trial) string {
	if len(trials) <= otInitObs+1 {
		return ""
	}
	sessions, _ := t.Repo.ForSystem(system) // in memory: never fails
	pruned := pruneMetrics(sessions, otPrunedMetrics, xrand.New(t.Seed))
	var initial []tune.Trial
	for _, tr := range trials[:otInitObs+1] {
		// The model refuses a non-finite objective, and the trial's metrics with it.
		if o := tr.Result.Objective(); !math.IsInf(o, 0) && !math.IsNaN(o) {
			initial = append(initial, tr)
		}
	}
	if at := mapWorkload(sessions, pruned, initial); at >= 0 {
		return sessions[at].Workload
	}
	return ""
}

// Name implements tune.Tuner.
func (t *OtterTune) Name() string { return "ml/ottertune" }

// metricNames returns the sorted union of metric keys across sessions.
func metricNames(sessions []tune.SessionRecord) []string {
	set := map[string]struct{}{}
	for _, s := range sessions {
		for _, tr := range s.Trials {
			for k := range tr.Metrics {
				set[k] = struct{}{}
			}
		}
	}
	names := make([]string, 0, len(set))
	for k := range set {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// pruneMetrics reproduces OtterTune's metric reduction: project the
// (trial × metric) matrix onto its principal components, then k-means the
// metrics in loading space and keep the metric nearest each center.
func pruneMetrics(sessions []tune.SessionRecord, keep int, rng *rand.Rand) []string {
	names := metricNames(sessions)
	if len(names) <= keep {
		return names
	}
	var rows [][]float64
	for _, s := range sessions {
		for _, tr := range s.Trials {
			row := make([]float64, len(names))
			for i, n := range names {
				row[i] = tr.Metrics[n]
			}
			rows = append(rows, row)
		}
	}
	if len(rows) < 4 {
		return names[:keep]
	}
	// Standardize columns so scale does not dominate the PCA.
	for j := range names {
		var mean, sd float64
		for _, r := range rows {
			mean += r[j]
		}
		mean /= float64(len(rows))
		for _, r := range rows {
			d := r[j] - mean
			sd += d * d
		}
		sd = math.Sqrt(sd / float64(len(rows)))
		if sd < 1e-12 {
			sd = 1
		}
		for _, r := range rows {
			r[j] = (r[j] - mean) / sd
		}
	}
	comps, _ := cluster.PCA(rows, int(math.Min(4, float64(len(names)))), 60, rng)
	// Loading vector per metric: its coordinates across components.
	loadings := make([][]float64, len(names))
	for j := range names {
		l := make([]float64, len(comps))
		for c, comp := range comps {
			l[c] = comp[j]
		}
		loadings[j] = l
	}
	km := cluster.KMeans(loadings, keep, 50, rng)
	reps := km.RepresentativeNearestCenter(loadings)
	var out []string
	for _, r := range reps {
		if r >= 0 {
			out = append(out, names[r])
		}
	}
	sort.Strings(out)
	return out
}

// rankKnobs pools (config, objective) pairs across sessions and ranks knobs
// by Lasso path activation order.
func rankKnobs(space *tune.Space, sessions []tune.SessionRecord) []string {
	var xs [][]float64
	var ys []float64
	for _, s := range sessions {
		if len(s.ParamNames) != space.Dim() {
			continue
		}
		// Standardize objective within each session: absolute runtimes are
		// workload-specific, the shape is what transfers.
		var vals []float64
		for _, tr := range s.Trials {
			vals = append(vals, tr.Time)
		}
		mean, sd := meanStd(vals)
		for _, tr := range s.Trials {
			xs = append(xs, tr.Vector)
			ys = append(ys, (tr.Time-mean)/sd)
		}
	}
	names := space.Names()
	if len(xs) < 8 {
		return space.ByImpact()
	}
	order := lasso.PathRank(xs, ys, 12)
	out := make([]string, 0, len(order))
	for _, j := range order {
		out = append(out, names[j])
	}
	return out
}

// medianIQR returns robust location/scale estimates (median, IQR/1.35, the
// normal-consistent robust sd).
func medianIQR(xs []float64) (med, sd float64) {
	if len(xs) == 0 {
		return 0, 1
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	med = sorted[len(sorted)/2]
	q1 := sorted[len(sorted)/4]
	q3 := sorted[(3*len(sorted))/4]
	sd = (q3 - q1) / 1.35
	if sd < 1e-12 {
		sd = 1
	}
	return med, sd
}

func meanStd(xs []float64) (mean, sd float64) {
	if len(xs) == 0 {
		return 0, 1
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		sd += d * d
	}
	sd = math.Sqrt(sd / float64(len(xs)))
	if sd < 1e-12 {
		sd = 1
	}
	return mean, sd
}

// mapWorkload picks the repository session whose metric signature is nearest,
// over the pruned metrics, the mean metrics of the target's observed trials;
// -1 when there are no sessions or no trials.
func mapWorkload(sessions []tune.SessionRecord, pruned []string, trials []tune.Trial) int {
	if len(trials) == 0 {
		return -1
	}
	observed := map[string]float64{}
	for _, t := range trials {
		for k, v := range t.Result.Metrics {
			observed[k] += v
		}
	}
	for k, v := range observed {
		observed[k] = v / float64(len(trials))
	}
	bestAt, bestD := -1, math.Inf(1)
	for i, s := range sessions {
		sig := sessionSignature(s, pruned)
		var d float64
		for _, m := range pruned {
			// Compare on log scale: metric magnitudes span decades.
			a := math.Log1p(math.Abs(sig[m]))
			b := math.Log1p(math.Abs(observed[m]))
			d += (a - b) * (a - b)
		}
		// Slightly prefer data-rich sessions: more observations transfer
		// a more trustworthy surface.
		d /= math.Log(math.E + float64(len(s.Trials)))
		if d < bestD {
			bestD, bestAt = d, i
		}
	}
	return bestAt
}

func sessionSignature(s tune.SessionRecord, pruned []string) map[string]float64 {
	sig := make(map[string]float64, len(pruned))
	if len(s.Trials) == 0 {
		return sig
	}
	for _, m := range pruned {
		var sum float64
		for _, tr := range s.Trials {
			sum += tr.Metrics[m]
		}
		sig[m] = sum / float64(len(s.Trials))
	}
	return sig
}
