package bench

import (
	"fmt"

	"repro"
	"repro/internal/tune"
)

// GuardrailFactor sets the experiment's safety limit relative to the
// default configuration's runtime: a trial is a violation when it runs
// slower than this multiple of the default. The factor is deliberately
// BELOW 1: the default misses the workload's latency objective — that is
// why a tuning session is running at all — and the guardrail is that
// objective, so exploration must find configurations that meet it without
// serving ones that miss it even harder. (A limit above the default's
// runtime would only be crossed by out-of-memory cliffs, which are
// discontinuities no surrogate can predict from smooth samples; a limit in
// the smooth part of the landscape is exactly what a GP screen can learn.)
const GuardrailFactor = 0.7

// Guardrail measures safe exploration: the same tuner with and without the
// surrogate safety screen (Spec.Guardrail), both judged against the
// same objective guardrail: a violation is a full-fidelity trial over the
// limit, the rule by which the guarded session counts its own. Unscreened
// iTuned explores wherever its design takes it, paying real violations to
// learn where the cliffs are; the screened variant releases one
// configuration per observation round-trip, vetoes anything its GP upper
// confidence bound or safe-set keep-outs flag, and recovers the vetoed
// candidates later by marching the safe set toward them step by step.
//
// The claim reproduced: the screen removes the violations without giving up
// the incumbent — equal-or-better best at zero violations. The screen's
// cold start (first tune.GuardrailMinObs trials pass unscreened) is the
// documented residual risk; the violations column makes it visible rather
// than hiding it.
func Guardrail(o Options) (*Table, error) {
	t := &Table{
		Title: "E14 (guardrail): safe exploration under an objective limit (dbms/tpch)",
		Columns: []string{
			"approach", "trials", "violations", "worst trial",
			"best", "vs unguarded best",
		},
	}
	b := o.budget()
	if b.Trials < 16 {
		b.Trials = 16
	}
	// The limit derives from the default configuration on a probe target so
	// both sessions face the same number.
	topts := repro.TargetOptions{ScaleGB: o.scaleGB(3, 2)}
	probe, err := repro.NewTarget("dbms", "tpch", o.Seed, topts)
	if err != nil {
		return nil, err
	}
	limit := DefaultTime(probe, 3) * GuardrailFactor
	unguarded := repro.Spec{System: "dbms", Workload: "tpch", Tuner: "ituned", Seed: o.Seed, Budget: b, Target: topts}
	guarded := unguarded
	guarded.Guardrail = limit
	sessions, err := runCells(o, []cell{
		{spec: unguarded},
		{spec: guarded},
	})
	if err != nil {
		return nil, err
	}
	approaches := []string{"iTuned (unguarded)", "iTuned + guardrail"}
	var baseBest float64
	for i, s := range sessions {
		res := s.result
		violations, worst := 0, 0.0
		for _, tr := range res.Trials {
			obj := tr.Result.Objective()
			if tr.Result.FullFidelity() && obj > limit {
				violations++
			}
			worst = max(worst, obj)
		}
		vs := "—"
		if i == 0 {
			baseBest = res.BestResult.Objective()
		} else if baseBest > 0 {
			vs = fmt.Sprintf("%+.1f%%", 100*(res.BestResult.Objective()-baseBest)/baseBest)
		}
		t.AddRow(approaches[i],
			fmt.Sprintf("%d", len(res.Trials)),
			fmt.Sprintf("%d", violations),
			fmtSeconds(worst),
			fmtSeconds(res.BestResult.Time),
			vs)
	}
	t.Note("budget %d trials each at seed %d; guardrail = %.1f× the default config's runtime (%s); violations = full-fidelity trials over the limit, counted from the trials",
		b.Trials, o.Seed, GuardrailFactor, fmtSeconds(limit))
	t.Note("screen = Matérn-5/2 GP upper confidence bound + safe-set keep-outs, armed after %d observations; vetoed proposals are deferred and re-proposed once the safe set expands to cover them",
		tune.GuardrailMinObs)
	return t, nil
}
