// Package cluster provides k-means clustering and a power-iteration PCA.
// OtterTune's pipeline uses PCA to compress the runtime metric space and
// k-means to pick one representative metric per cluster (metric pruning) and
// to group workloads for mapping.
package cluster

import (
	"math"
	"math/rand"
)

// KMeansResult holds cluster assignments and centers.
type KMeansResult struct {
	Centers     [][]float64
	Assignments []int
	Inertia     float64
}

// KMeans clusters points into k clusters with k-means++ seeding and Lloyd
// iterations. Deterministic given rng.
func KMeans(points [][]float64, k, iters int, rng *rand.Rand) *KMeansResult {
	n := len(points)
	if n == 0 || k <= 0 {
		return &KMeansResult{}
	}
	if k > n {
		k = n
	}
	d := len(points[0])
	centers := seedPlusPlus(points, k, rng)
	assign := make([]int, n)
	for it := 0; it < iters; it++ {
		changed := false
		for i, p := range points {
			best, bi := math.Inf(1), 0
			for c := range centers {
				dist := sqDist(p, centers[c])
				if dist < best {
					best, bi = dist, c
				}
			}
			if assign[i] != bi {
				assign[i] = bi
				changed = true
			}
		}
		counts := make([]int, k)
		sums := make([][]float64, k)
		for c := range sums {
			sums[c] = make([]float64, d)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for j := range p {
				sums[c][j] += p[j]
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				centers[c] = append([]float64(nil), points[rng.Intn(n)]...)
				continue
			}
			for j := 0; j < d; j++ {
				centers[c][j] = sums[c][j] / float64(counts[c])
			}
		}
		if !changed && it > 0 {
			break
		}
	}
	var inertia float64
	for i, p := range points {
		inertia += sqDist(p, centers[assign[i]])
	}
	return &KMeansResult{Centers: centers, Assignments: assign, Inertia: inertia}
}

func seedPlusPlus(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(points)
	centers := make([][]float64, 0, k)
	centers = append(centers, append([]float64(nil), points[rng.Intn(n)]...))
	dists := make([]float64, n)
	for len(centers) < k {
		var total float64
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centers {
				if d := sqDist(p, c); d < best {
					best = d
				}
			}
			dists[i] = best
			total += best
		}
		if total == 0 {
			centers = append(centers, append([]float64(nil), points[rng.Intn(n)]...))
			continue
		}
		r := rng.Float64() * total
		for i := range points {
			r -= dists[i]
			if r <= 0 {
				centers = append(centers, append([]float64(nil), points[i]...))
				break
			}
		}
		if r > 0 {
			centers = append(centers, append([]float64(nil), points[n-1]...))
		}
	}
	return centers
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// RepresentativeNearestCenter returns, per cluster, the index of the point
// closest to the cluster center — metric pruning keeps exactly these.
func (r *KMeansResult) RepresentativeNearestCenter(points [][]float64) []int {
	reps := make([]int, len(r.Centers))
	bestD := make([]float64, len(r.Centers))
	for c := range reps {
		reps[c] = -1
		bestD[c] = math.Inf(1)
	}
	for i, p := range points {
		c := r.Assignments[i]
		if d := sqDist(p, r.Centers[c]); d < bestD[c] {
			bestD[c], reps[c] = d, i
		}
	}
	return reps
}

// PCA computes the top-k principal components of the rows of x via power
// iteration with deflation on the covariance matrix. It returns the
// components (each of length d) and the per-component explained variance.
func PCA(x [][]float64, k, iters int, rng *rand.Rand) (components [][]float64, explained []float64) {
	n := len(x)
	if n == 0 {
		return nil, nil
	}
	d := len(x[0])
	if k > d {
		k = d
	}
	// Center columns.
	mean := make([]float64, d)
	for _, row := range x {
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	centered := make([][]float64, n)
	for i, row := range x {
		c := make([]float64, d)
		for j, v := range row {
			c[j] = v - mean[j]
		}
		centered[i] = c
	}
	// Covariance (d×d), fine for the metric counts we use (≤ ~50).
	cov := make([][]float64, d)
	for i := range cov {
		cov[i] = make([]float64, d)
	}
	for _, row := range centered {
		for a := 0; a < d; a++ {
			va := row[a]
			if va == 0 {
				continue
			}
			for b := a; b < d; b++ {
				cov[a][b] += va * row[b]
			}
		}
	}
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			cov[a][b] /= float64(n)
			cov[b][a] = cov[a][b]
		}
	}
	for c := 0; c < k; c++ {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		normalize(v)
		var lambda float64
		for it := 0; it < iters; it++ {
			nv := matVec(cov, v)
			lambda = norm(nv)
			if lambda < 1e-14 {
				break
			}
			for j := range nv {
				nv[j] /= lambda
			}
			v = nv
		}
		components = append(components, v)
		explained = append(explained, lambda)
		// Deflate: cov −= λ·vvᵀ.
		for a := 0; a < d; a++ {
			for b := 0; b < d; b++ {
				cov[a][b] -= lambda * v[a] * v[b]
			}
		}
	}
	return components, explained
}

func matVec(m [][]float64, v []float64) []float64 {
	out := make([]float64, len(m))
	for i, row := range m {
		var s float64
		for j, x := range v {
			s += row[j] * x
		}
		out[i] = s
	}
	return out
}

func norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func normalize(v []float64) {
	n := norm(v)
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}
