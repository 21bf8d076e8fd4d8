package bench

import (
	"fmt"

	"repro"
)

// Transfer measures cross-session warm-starting — the production lesson the
// persistent repository exists for. A repository of past Spark sessions
// (wordcount, terasort, kmeans: the history a long-lived daemon
// accumulates) is built first; spark/pagerank is deliberately excluded so
// it is unseen. Then iTuned and OtterTune each tune pagerank twice under
// the same budget and target noise stream: cold (no history) and warm
// (Spec.WarmStart: seeded with the best configurations of the mapped
// nearest past workload; OtterTune additionally gets the repository for its
// own metric-signature mapping).
//
// The headline column is "trials to cold incumbent": the trial at which
// each session first reaches within 5% of the cold run's final best. Warm
// strictly smaller than cold is transfer paying off — the warm session
// matches the cold session's end state with budget to spare and spends the
// remainder improving on it. Transfer is not guaranteed to help (see
// DESIGN.md §10): a mapping onto a dissimilar workload seeds the search in
// the wrong basin, which is why the experiment reports the cold rows too.
func Transfer(o Options) (*Table, error) {
	t := &Table{
		Title: "E9 (transfer): cold vs warm start on an unseen workload (spark/pagerank)",
		Columns: []string{
			"approach", "start",
			"best", "trials to cold incumbent", "speedup vs default",
		},
	}
	b := o.budget()
	topts := repro.TargetOptions{ScaleGB: o.scaleGB(5, 1)}
	repo, err := BuildRepository(o, "spark", "pagerank")
	if err != nil {
		return nil, err
	}
	defTarget, err := repro.NewTarget("spark", "pagerank", o.Seed+990, topts)
	if err != nil {
		return nil, err
	}
	defTime := DefaultTime(defTarget, 3)

	// Cold and warm share the seed — the target's noise stream and the
	// tuner's — so each pair differs only in starting knowledge. Cold
	// OtterTune gets no repository; warm OtterTune also maps onto it.
	approaches := []struct{ label, tuner string }{{"iTuned", "ituned"}, {"OtterTune", "ottertune"}}
	var cells []cell
	for _, a := range approaches {
		cold := repro.Spec{System: "spark", Workload: "pagerank", Tuner: a.tuner, Seed: o.Seed, Budget: b, Target: topts}
		warm := cold
		warm.WarmStart = true
		cells = append(cells, cell{spec: cold}, cell{spec: warm, corpus: repo})
	}
	sessions, err := runCells(o, cells)
	if err != nil {
		return nil, err
	}

	for i, a := range approaches {
		coldBest := sessions[2*i].result.BestResult.Time
		for j, start := range []string{"cold", "warm"} {
			r := sessions[2*i+j].result
			reach := r.TrialsToWithin(coldBest, 1.05)
			reachS := "never"
			if reach > 0 {
				reachS = fmt.Sprintf("%d", reach)
			}
			t.AddRow(a.label, start,
				fmtSeconds(r.BestResult.Time), reachS,
				fmtSpeedup(speedup(defTime, r.BestResult.Time)))
		}
	}
	t.Note("budget %d trials each; repository: %d past spark sessions (wordcount, terasort, kmeans), pagerank unseen; default %s",
		b.Trials, len(repo.Sessions), fmtSeconds(defTime))
	t.Note("trials to cold incumbent = first trial within 5%% of the cold run's final best; warm < cold means transfer helped")
	return t, nil
}
