package rulebased

import (
	"fmt"

	"repro/internal/tune"
)

// Constraint is a validity predicate over a configuration, in the spirit of
// SPEX's inferred configuration constraints: range limits, cross-parameter
// orderings, and resource-sum budgets. Violations mark configurations that
// crash or cripple the system before any run is spent on them.
type Constraint interface {
	// Check returns a violation description, or "" if cfg satisfies the
	// constraint. specs supplies deployment facts for resource budgets.
	Check(cfg tune.Config, specs map[string]float64) string
}

// RangeConstraint requires lo ≤ param ≤ hi (native units).
type RangeConstraint struct {
	Param  string
	Lo, Hi float64
}

// Check implements Constraint.
func (c RangeConstraint) Check(cfg tune.Config, _ map[string]float64) string {
	v := cfg.Native(c.Param)
	if v < c.Lo || v > c.Hi {
		return fmt.Sprintf("%s=%.4g outside valid range [%.4g, %.4g]", c.Param, v, c.Lo, c.Hi)
	}
	return ""
}

// SumSpecConstraint requires Σ weight_i × param_i ≤ factor × specs[SpecKey].
type SumSpecConstraint struct {
	Params  []string
	Weights []float64
	SpecKey string
	Factor  float64
}

// Check implements Constraint.
func (c SumSpecConstraint) Check(cfg tune.Config, specs map[string]float64) string {
	budget := c.Factor * specs[c.SpecKey]
	if budget == 0 {
		return ""
	}
	var sum float64
	for i, p := range c.Params {
		w := 1.0
		if i < len(c.Weights) {
			w = c.Weights[i]
		}
		sum += w * cfg.Native(p)
	}
	if sum > budget {
		return fmt.Sprintf("memory demand %.0f exceeds %.0f (%.0f%% of %s)", sum, budget, c.Factor*100, c.SpecKey)
	}
	return ""
}

// Checker is a SPEX-style configuration validator for one system.
type Checker struct {
	System      string
	Constraints []Constraint
}

// Validate returns all violation messages for cfg.
func (ch *Checker) Validate(cfg tune.Config, specs map[string]float64) []string {
	var out []string
	for _, c := range ch.Constraints {
		if msg := c.Check(cfg, specs); msg != "" {
			out = append(out, msg)
		}
	}
	return out
}

// DBMSChecker returns the inferred constraints of the DBMS simulator: the
// exact conditions under which it degrades into swapping or fails.
func DBMSChecker() *Checker {
	return &Checker{System: "dbms", Constraints: []Constraint{
		SumSpecConstraint{
			Params:  []string{"buffer_pool_mb", "work_mem_mb", "wal_buffer_mb"},
			Weights: []float64{1, 32, 1}, // work_mem multiplies by plausible concurrency
			SpecKey: "ram_mb",
			Factor:  0.9,
		},
		RangeConstraint{Param: "random_page_cost", Lo: 1, Hi: 10},
	}}
}
