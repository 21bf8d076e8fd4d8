// Package linalg provides the dense linear algebra the tuning algorithms
// need: matrices, Cholesky factorization, triangular solves, ridge-regularized
// least squares, and a symmetric eigendecomposition (cyclic Jacobi). It is
// deliberately small — just enough for Gaussian processes, Lasso, PCA, and
// the cost models — and depends only on the standard library.
package linalg

import (
	"fmt"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	R, C int
	Data []float64
}

// New returns an r×c zero matrix.
func New(r, c int) *Matrix {
	return &Matrix{R: r, C: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices. All rows must share a length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.C {
			panic(fmt.Sprintf("linalg: ragged rows: row %d has %d columns, want %d", i, len(row), m.C))
		}
		copy(m.Data[i*m.C:(i+1)*m.C], row)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Add increments element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.C+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.R, m.C)
	copy(out.Data, m.Data)
	return out
}

// AddDiag adds v to the diagonal in place and returns m.
func (m *Matrix) AddDiag(v float64) *Matrix {
	n := m.R
	if m.C < n {
		n = m.C
	}
	for i := 0; i < n; i++ {
		m.Add(i, i, v)
	}
	return m
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
