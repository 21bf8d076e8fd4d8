package repro

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// retiredSurfaces may not appear in any tracked file but the top-level
// history and planning documents and this file.
var retiredSurfaces = []string{
	// The old measurement surface: `go run ./benchmark` is the one benchmark.
	`BENCH_pr`, `bench\.sh`, `soak\.sh`, `autotune-soak`,
	// The second trial path (Session.Run and its budget error) and the
	// adaptive family's per-tuner run loops.
	`ErrBudgetExhausted`, `adaptiveRunViaSession`,
	// The second memo and the GP tuners' re-optimization cadence knob: the
	// surrogate's tier decides when a model is rebuilt (tune.SurrogateModel).
	`newMapMemo`, `ReoptimizeEvery`,
	// The per-tuner copies of the acquisition round, and library functions
	// only tests called.
	`sqDistSub`, `HillClimb`, `SymEigen`, `MultiStart`,
	// The "does this tuner need the corpus" predicate, the repository's second
	// (unnormalised) ranking, the CLI's own warm-seed counter and the Spec
	// field naming a repository directory: a session meets its repository in
	// Spec.JobOn.
	`LoadRepository`, `TunerNeedsRepository`, `SimilarSessions`, `featureDistance`,
	`countedWarm`, `json:"repository`,
	// The run's second set of progress counters, the engine-wide memo option
	// and the direct Engine entry points: a Job configures a session, one
	// tune.StreamSummary fold reports it.
	`FidelityProgress`, `ScenarioProgress`, `CacheCap`,
	`func \(e \*Engine\) (Tune|Drive|DriveFidelity|Workers)\(`,
	// The checkpoint-only file hook: every store write goes through one
	// file-system seam.
	`wrapCkptFile`,
	// The inline Tune copies and their drivers: repro.Tune is the blocking
	// call for every tuner.
	`DriveTuner\(`, `DriveFidelity\(`,
	// The second smoke script: scripts/ci.sh holds every CI stage.
	`dist_smoke`,
}

// The one CI step list: the workflow's only command is scripts/ci.sh, and
// ci.sh picks the tests it repeats by name marker, never by a test's name.
var (
	workflowRun = regexp.MustCompile(`^\s*(-\s+)?run:(.*)$`)
	goCommand   = regexp.MustCompile(`\bgo\s+(test|build|vet|run)\b|\bTest[A-Z]`)
	runPattern  = regexp.MustCompile(`-run[= ]\s*('[^']*'|"[^"]*"|\S+)`)
)

// ciForks reports the lines of the CI workflow or of scripts/ci.sh that open
// a second step list.
func ciForks(name string, lines []string) (forks []string) {
	for i, line := range lines {
		switch name {
		case ".github/workflows/ci.yml":
			if m := workflowRun.FindStringSubmatch(line); m != nil && strings.TrimSpace(m[2]) != "scripts/ci.sh" || goCommand.MatchString(line) {
				forks = append(forks, fmt.Sprintf("%s:%d runs something other than scripts/ci.sh: %s", name, i+1, strings.TrimSpace(line)))
			}
		case "scripts/ci.sh":
			for _, m := range runPattern.FindAllStringSubmatch(line, -1) {
				if strings.Contains(m[1], "Test") {
					forks = append(forks, fmt.Sprintf("%s:%d names a test in a -run pattern: %s", name, i+1, strings.TrimSpace(line)))
				}
			}
		}
	}
	return forks
}

// TestRetiredSurfacesStayRetired checks every tracked file for the retired
// surfaces and the one-owner rules: one feature index owner (the store; the
// in-memory repository is the linear-scan oracle, not a second index), one
// launch site (only Spec.JobOn calls JobWithWarm outside the harnesses that
// decorate its sources, benchmark/ and the experiments' cell runner in
// internal/bench) and one CI step list (scripts/ci.sh).
func TestRetiredSurfacesStayRetired(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git is not installed")
	}
	out, err := exec.Command("git", "ls-files").Output()
	if err != nil {
		t.Skipf("not a git checkout: %v", err)
	}
	retired := regexp.MustCompile(strings.Join(retiredSurfaces, "|"))
	// The top-level history, planning and reference documents may name what
	// was retired; the user-facing README.md and DESIGN.md may not.
	exempt := func(name string) bool {
		if name == "surface_test.go" {
			return true
		}
		return !strings.Contains(name, "/") && strings.HasSuffix(name, ".md") &&
			name != "README.md" && name != "DESIGN.md"
	}
	var launches []string
	for _, name := range strings.Fields(string(out)) {
		data, err := os.ReadFile(name)
		if os.IsNotExist(err) {
			continue // deleted in the working tree
		}
		if err != nil {
			t.Fatal(err)
		}
		if bytes.IndexByte(data, 0) >= 0 {
			continue // binary
		}
		source := strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
		if source && bytes.Contains(data, []byte("NewCorpusIndex(")) &&
			name != "internal/tune/findex.go" && name != "internal/tune/store/store.go" {
			t.Errorf("%s calls NewCorpusIndex; only internal/tune/store/store.go may", name)
		}
		lines := strings.Split(string(data), "\n")
		for _, fork := range ciForks(name, lines) {
			t.Error(fork)
		}
		for i, line := range lines {
			if !exempt(name) && retired.MatchString(line) {
				t.Errorf("%s:%d mentions a retired surface: %s", name, i+1, strings.TrimSpace(line))
			}
			if source && !harness(name) && strings.Contains(line, "JobWithWarm(") &&
				!strings.HasPrefix(strings.TrimSpace(line), "//") && !strings.Contains(line, "func (s Spec) JobWithWarm(") {
				launches = append(launches, name+": "+strings.TrimSpace(line))
			}
		}
	}
	if len(launches) != 1 {
		t.Errorf("want exactly one JobWithWarm call outside the harnesses (in Spec.JobOn), have %d:\n%s",
			len(launches), strings.Join(launches, "\n"))
	}
}

func harness(name string) bool {
	return strings.HasPrefix(name, "benchmark/") || strings.HasPrefix(name, "internal/bench/")
}
