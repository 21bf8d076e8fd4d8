package tune

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Config is an immutable point in a configuration space. The zero Config is
// invalid; obtain configurations from a Space.
type Config struct {
	space *Space
	x     []float64 // unit-cube coordinates, one per parameter
}

// Space returns the space this configuration belongs to.
func (c Config) Space() *Space { return c.space }

// Valid reports whether the configuration is bound to a space.
func (c Config) Valid() bool { return c.space != nil }

// Vector returns a copy of the unit-cube coordinates.
func (c Config) Vector() []float64 {
	out := make([]float64, len(c.x))
	copy(out, c.x)
	return out
}

// Dims returns the number of parameters (zero for the invalid Config).
func (c Config) Dims() int { return len(c.x) }

// at returns the parameter and raw coordinate for name, panicking on unknown
// names — tuners and systems agree on spaces at construction time, so an
// unknown name is a programming error, not an input error.
func (c Config) at(name string) (Param, float64) {
	i, ok := c.space.index[name]
	if !ok {
		panic(fmt.Sprintf("tune: no parameter %q in space", name))
	}
	return c.space.params[i], c.x[i]
}

// Native returns the decoded native value: the value itself for numeric
// parameters, 0/1 for booleans, the choice index for categoricals.
func (c Config) Native(name string) float64 {
	p, u := c.at(name)
	return p.decode(u)
}

// Float returns the value of a float parameter.
func (c Config) Float(name string) float64 { return c.Native(name) }

// Int returns the value of an integer parameter.
func (c Config) Int(name string) int { return int(math.Round(c.Native(name))) }

// Bool returns the value of a boolean parameter.
func (c Config) Bool(name string) bool { return c.Native(name) != 0 }

// Str returns the selected choice of a categorical parameter.
func (c Config) Str(name string) string {
	p, u := c.at(name)
	i := int(p.decode(u))
	return p.Choices[i]
}

// WithNative returns a copy with the named parameter set to the given native
// value (value for numerics, 0/1 for bools, choice index for categoricals).
func (c Config) WithNative(name string, v float64) Config {
	i, ok := c.space.index[name]
	if !ok {
		panic(fmt.Sprintf("tune: no parameter %q in space", name))
	}
	x := c.Vector()
	x[i] = c.space.params[i].encode(v)
	return Config{space: c.space, x: x}
}

// With returns a copy with the named parameter set. v may be a float64, int,
// bool, or string (for categorical parameters).
func (c Config) With(name string, v any) Config {
	switch t := v.(type) {
	case float64:
		return c.WithNative(name, t)
	case int:
		return c.WithNative(name, float64(t))
	case bool:
		if t {
			return c.WithNative(name, 1)
		}
		return c.WithNative(name, 0)
	case string:
		p, _ := c.at(name)
		for i, choice := range p.Choices {
			if choice == t {
				return c.WithNative(name, float64(i))
			}
		}
		panic(fmt.Sprintf("tune: %q is not a choice of parameter %q", t, name))
	default:
		panic(fmt.Sprintf("tune: unsupported value type %T for parameter %q", v, name))
	}
}

// Map returns the full configuration as name → formatted value.
func (c Config) Map() map[string]string {
	m := make(map[string]string, len(c.x))
	for i, p := range c.space.params {
		m[p.Name] = p.FormatValue(p.decode(c.x[i]))
	}
	return m
}

// MarshalJSON renders the configuration as a name→formatted-value object
// with sorted keys, or null for the invalid zero Config. Deserializing
// requires the space, so there is deliberately no UnmarshalJSON;
// configurations flow out of the API, not in.
func (c Config) MarshalJSON() ([]byte, error) { return c.appendJSON(nil), nil }

// appendJSON appends MarshalJSON's bytes: keys in the space's name order,
// values as FormatValue renders them.
func (c Config) appendJSON(dst []byte) []byte {
	if !c.Valid() {
		return append(dst, "null"...)
	}
	dst = append(dst, '{')
	for k, i := range c.space.byName {
		if k > 0 {
			dst = append(dst, ',')
		}
		p := c.space.params[i]
		dst = append(appendJSONString(dst, p.Name), ':', '"')
		start := len(dst)
		dst = p.appendValue(dst, p.decode(c.x[i]))
		if jsonSafe(dst[start:]) {
			dst = append(dst, '"')
		} else { // a unit or choice that needs escaping: re-quote it
			dst = appendJSONString(dst[:start-1], string(dst[start:]))
		}
	}
	return append(dst, '}')
}

// String renders the configuration as a deterministic, sorted key=value list.
func (c Config) String() string {
	if c.space == nil {
		return "<invalid config>"
	}
	parts := make([]string, 0, len(c.x))
	for i, p := range c.space.params {
		parts = append(parts, p.Name+"="+p.FormatValue(p.decode(c.x[i])))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// Distance returns the Euclidean distance between two configurations in the
// unit cube, normalized by sqrt(d) so it lies in [0,1].
func (c Config) Distance(o Config) float64 {
	if len(c.x) != len(o.x) {
		panic("tune: distance between configs of different dimension")
	}
	if len(c.x) == 0 {
		return 0
	}
	var s float64
	for i := range c.x {
		d := c.x[i] - o.x[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(c.x)))
}
