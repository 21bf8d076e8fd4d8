package tune

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
)

// Space is an ordered set of parameters defining a configuration search
// space. Spaces are immutable after construction.
type Space struct {
	params []Param
	index  map[string]int
	byName []int // parameter positions in name order: a config's JSON key order
}

// NewSpace builds a space from params. It panics on duplicate parameter
// names: spaces are static program data, so a duplicate is a programming
// error.
func NewSpace(params ...Param) *Space {
	s := &Space{params: append([]Param(nil), params...), index: make(map[string]int, len(params))}
	s.byName = make([]int, len(params))
	for i, p := range s.params {
		if _, dup := s.index[p.Name]; dup {
			panic(fmt.Sprintf("tune: duplicate parameter %q", p.Name))
		}
		s.index[p.Name] = i
		s.byName[i] = i
	}
	slices.SortFunc(s.byName, func(a, b int) int { return strings.Compare(s.params[a].Name, s.params[b].Name) })
	return s
}

// Dim returns the number of parameters.
func (s *Space) Dim() int { return len(s.params) }

// Params returns the parameters in order. The caller must not modify the
// returned slice.
func (s *Space) Params() []Param { return s.params }

// Param looks a parameter up by name.
func (s *Space) Param(name string) (Param, bool) {
	i, ok := s.index[name]
	if !ok {
		return Param{}, false
	}
	return s.params[i], true
}

// IndexOf returns the position of the named parameter, or -1.
func (s *Space) IndexOf(name string) int {
	i, ok := s.index[name]
	if !ok {
		return -1
	}
	return i
}

// Names returns the parameter names in order.
func (s *Space) Names() []string {
	names := make([]string, len(s.params))
	for i, p := range s.params {
		names[i] = p.Name
	}
	return names
}

// Default returns the configuration holding every parameter's default.
func (s *Space) Default() Config {
	x := make([]float64, s.Dim())
	for i, p := range s.params {
		x[i] = p.encode(p.Def)
	}
	return Config{space: s, x: x}
}

// FromVector builds a configuration from a unit-cube point. Coordinates are
// clamped to [0,1]; the vector is copied. It panics if len(x) != Dim().
func (s *Space) FromVector(x []float64) Config {
	if len(x) != s.Dim() {
		panic(fmt.Sprintf("tune: vector dimension %d != space dimension %d", len(x), s.Dim()))
	}
	c := make([]float64, len(x))
	for i, u := range x {
		c[i] = clamp01(u)
	}
	return Config{space: s, x: c}
}

// Random returns a uniformly random configuration.
func (s *Space) Random(rng *rand.Rand) Config {
	x := make([]float64, s.Dim())
	for i := range x {
		x[i] = rng.Float64()
	}
	return Config{space: s, x: x}
}

// ByImpact returns parameter names sorted by declared documentation impact,
// descending (ties broken by name for determinism). This is the primitive
// behind configuration-navigation tuning.
func (s *Space) ByImpact() []string {
	names := s.Names()
	sort.SliceStable(names, func(i, j int) bool {
		a, _ := s.Param(names[i])
		b, _ := s.Param(names[j])
		if a.Impact != b.Impact {
			return a.Impact > b.Impact
		}
		return strings.Compare(a.Name, b.Name) < 0
	})
	return names
}

// EffectiveDim returns the number of non-inert parameters.
func (s *Space) EffectiveDim() int {
	n := 0
	for _, p := range s.params {
		if !p.Inert {
			n++
		}
	}
	return n
}
