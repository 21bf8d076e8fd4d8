// Package tune defines the core abstractions of the autotuning framework:
// typed configuration parameters and spaces, tuning targets (the black box a
// tuner optimizes), tuners, budgets, trials, and a repository of past tuning
// sessions for transfer learning.
//
// Optimizers work in the unit hypercube [0,1]^d; a Space maps cube points to
// typed native values (floats, ints, booleans, categorical choices) and back.
// This keeps every search algorithm dimension- and type-agnostic while the
// simulated systems receive properly typed configuration values.
package tune

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the value types a configuration parameter may take.
type Kind int

const (
	// KindFloat is a continuous parameter on [Min, Max].
	KindFloat Kind = iota
	// KindInt is an integer parameter on [Min, Max].
	KindInt
	// KindBool is an on/off switch.
	KindBool
	// KindCategorical is a choice among a fixed set of strings.
	KindCategorical
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindFloat:
		return "float"
	case KindInt:
		return "int"
	case KindBool:
		return "bool"
	case KindCategorical:
		return "categorical"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Param describes one tunable configuration parameter.
//
// Def holds the system default in native units: the value itself for floats
// and ints, 0/1 for booleans, and the choice index for categorical
// parameters. Impact is the documentation-declared importance on a 0–10
// scale; configuration-navigation tuners (Xu et al.) rank parameters by it.
// Inert marks parameters that exist in the configuration surface but have no
// performance effect (Spark ships ~200 parameters of which only ~30 matter;
// screening designs must discover this).
type Param struct {
	Name    string
	Kind    Kind
	Min     float64
	Max     float64
	Log     bool // numeric parameters: interpolate on a log scale
	Choices []string
	Def     float64
	Unit    string
	Doc     string
	Impact  int
	Inert   bool
	// Restart marks parameters that require a system restart (or an
	// equivalent disruptive transition) to change; adaptive tuners avoid
	// probing them online.
	Restart bool
}

// Float returns a continuous parameter on [min, max] with default def.
func Float(name string, min, max, def float64) Param {
	return Param{Name: name, Kind: KindFloat, Min: min, Max: max, Def: def}
}

// LogFloat returns a continuous parameter interpolated on a log scale.
// min must be > 0.
func LogFloat(name string, min, max, def float64) Param {
	return Param{Name: name, Kind: KindFloat, Min: min, Max: max, Def: def, Log: true}
}

// Int returns an integer parameter on [min, max] with default def.
func Int(name string, min, max, def int) Param {
	return Param{Name: name, Kind: KindInt, Min: float64(min), Max: float64(max), Def: float64(def)}
}

// LogInt returns an integer parameter interpolated on a log scale.
func LogInt(name string, min, max, def int) Param {
	return Param{Name: name, Kind: KindInt, Min: float64(min), Max: float64(max), Def: float64(def), Log: true}
}

// Bool returns an on/off parameter with default def.
func Bool(name string, def bool) Param {
	d := 0.0
	if def {
		d = 1
	}
	return Param{Name: name, Kind: KindBool, Min: 0, Max: 1, Def: d}
}

// Choice returns a categorical parameter over choices with default def.
// It panics if def is not among choices; parameter tables are static program
// data, so a bad default is a programming error.
func Choice(name string, choices []string, def string) Param {
	for i, c := range choices {
		if c == def {
			return Param{Name: name, Kind: KindCategorical, Min: 0, Max: float64(len(choices) - 1), Choices: choices, Def: float64(i)}
		}
	}
	panic(fmt.Sprintf("tune: default %q not among choices for parameter %q", def, name))
}

// WithDoc returns a copy of p with documentation text and declared impact.
func (p Param) WithDoc(doc string, impact int) Param {
	p.Doc = doc
	p.Impact = impact
	return p
}

// WithUnit returns a copy of p with a unit annotation (e.g. "MB", "ms").
func (p Param) WithUnit(unit string) Param {
	p.Unit = unit
	return p
}

// AsInert returns a copy of p marked as having no performance effect.
func (p Param) AsInert() Param {
	p.Inert = true
	return p
}

// WithRestart returns a copy of p marked as requiring a restart to change.
func (p Param) WithRestart() Param {
	p.Restart = true
	return p
}

func clamp01(u float64) float64 {
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	if math.IsNaN(u) {
		return 0.5
	}
	return u
}

// decode maps a unit-cube coordinate to the parameter's native value.
// Booleans decode to 0/1 and categoricals to the choice index.
func (p Param) decode(u float64) float64 {
	u = clamp01(u)
	switch p.Kind {
	case KindFloat:
		return p.lerp(u)
	case KindInt:
		v := math.Round(p.lerp(u))
		if v < p.Min {
			v = p.Min
		}
		if v > p.Max {
			v = p.Max
		}
		return v
	case KindBool:
		if u >= 0.5 {
			return 1
		}
		return 0
	case KindCategorical:
		n := len(p.Choices)
		i := int(u * float64(n))
		if i >= n {
			i = n - 1
		}
		return float64(i)
	}
	return 0
}

// encode maps a native value back into the unit cube. It is the inverse of
// decode up to discretization: encode(decode(u)) lands in the same decode
// bucket as u.
func (p Param) encode(v float64) float64 {
	switch p.Kind {
	case KindFloat, KindInt:
		return p.unlerp(v)
	case KindBool:
		if v != 0 {
			return 0.75
		}
		return 0.25
	case KindCategorical:
		n := float64(len(p.Choices))
		i := math.Round(v)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return (i + 0.5) / n
	}
	return 0
}

func (p Param) lerp(u float64) float64 {
	if p.Log {
		lo, hi := math.Log(p.Min), math.Log(p.Max)
		return math.Exp(lo + u*(hi-lo))
	}
	return p.Min + u*(p.Max-p.Min)
}

func (p Param) unlerp(v float64) float64 {
	if v < p.Min {
		v = p.Min
	}
	if v > p.Max {
		v = p.Max
	}
	if p.Log {
		lo, hi := math.Log(p.Min), math.Log(p.Max)
		if hi == lo {
			return 0
		}
		return clamp01((math.Log(v) - lo) / (hi - lo))
	}
	if p.Max == p.Min {
		return 0
	}
	return clamp01((v - p.Min) / (p.Max - p.Min))
}

// FormatValue renders a native value of this parameter for humans.
func (p Param) FormatValue(v float64) string {
	var buf [32]byte
	return string(p.appendValue(buf[:0], v))
}

// appendValue appends FormatValue's text: four significant digits for
// floats, the rounded integer for ints, each followed by the unit.
func (p Param) appendValue(dst []byte, v float64) []byte {
	switch p.Kind {
	case KindFloat:
		return append(strconv.AppendFloat(dst, v, 'g', 4, 64), p.Unit...)
	case KindInt:
		return append(strconv.AppendInt(dst, int64(int(math.Round(v))), 10), p.Unit...)
	case KindBool:
		if v != 0 {
			return append(dst, "on"...)
		}
		return append(dst, "off"...)
	case KindCategorical:
		i := int(math.Round(v))
		if i >= 0 && i < len(p.Choices) {
			return append(dst, p.Choices[i]...)
		}
		return append(strconv.AppendInt(append(dst, "choice("...), int64(i), 10), ')')
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}
