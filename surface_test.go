package repro

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
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
	// The second scenario declaration and the bench cells' job adjustments: a
	// wrapper switches on its session's bookkeeping when bound.
	`WithScenario\(`, `ScenarioFrom\(`, `tune\.Scenario\b`, `adjust func\(\*engine\.Job\)`,
	// The simulators' per-target fidelity copies — cluster.Runs is the one
	// run path and a job scales itself — and the CLI checkpoint id's field
	// list sanitizer: the id is a hash of the whole spec.
	`atFidelity\(`, `notSIDRune`,
	// One-line copies of another entry point: a subscription that ends early
	// is EventsSince(ctx, 0), and every trial enters a session through Record.
	`EventsContext\(`, `RecordExternal\(`,
	// Settable values no program set to anything but their default: the
	// memo's bound and its eviction policy (the memo never outgrows its
	// session), and the fidelity ladder's lowest rung and promotion ratio.
	`MemoCap`, `memo_cap`, `memo-cap`, `gdsf`, `GDSF`, `FidelitySpace`, `fidelity-min`, `fidelity-eta`,
	// The checkpoint throttle every program left at one trial, and the pool's
	// fixed lease timeout: a lease is timed by its evaluator's own heartbeat.
	`checkpoint-every`, `CheckpointEvery\b`, `HeartbeatTimeout`,
	// The session's result memo and the pool's retry knobs only tests set:
	// every recorded trial is one run, and a lost lease is retried a fixed
	// number of times.
	`\bMemo\b`, `json:"memo[",]`, `-memo\b`, `(type |&|\*)memoized\b`, `candidateKey`,
	`\bMaxRetries\b`, `\bRetryBackoff\b`,
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
// internal/bench), one CI step list (scripts/ci.sh) and one seeding
// mechanism (xrand.New; only benchmark/ and tests call rand.NewSource).
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
			if source && !strings.HasPrefix(name, "benchmark/") && strings.Contains(line, "rand.NewSource(") &&
				!strings.HasPrefix(strings.TrimSpace(line), "//") {
				t.Errorf("%s:%d seeds a math/rand source; use xrand.New, which draws the same stream: %s",
					name, i+1, strings.TrimSpace(line))
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

// unusedAPIExempt are method names the standard library calls through its
// own interfaces (fmt, errors, sort, container/heap, encoding/json,
// math/rand's Source64, flag.Value and its boolean form).
var unusedAPIExempt = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "Len": true, "Less": true,
	"Swap": true, "Push": true, "Pop": true, "Unwrap": true, "Is": true,
	"Int63": true, "Uint64": true, "Seed": true, "Set": true, "IsBoolFlag": true,
}

// unusedAPIAllowed are the exported declarations under internal/ that only
// tests call, each kept for the reason given.
var unusedAPIAllowed = map[string]string{
	"tune.Config.With":              "test helper shared by the simulator, tuner and engine tests",
	"tune.Guardrail.Vetoes":         "test accessor: the guardrail tests count vetoes",
	"tune.DriftDetector.Detections": "test accessor: the drift tests count detections",
	"tune.NearestSession":           "the linear-scan oracle the store's VP-tree is checked against",
	"tune.SurrogateModel.Model":     "test accessor: the GP tuners' tests read the surrogate a round fitted",
}

// TestInternalAPIHasCallers fails on a function or method that no non-test Go
// file of the module uses: any one under internal/, which holds what the
// commands, the daemon, the experiments, the examples and the benchmark run,
// and elsewhere any that only its own package can reach (an unexported name,
// or a method of an unexported type). Every package is type-checked, so a
// use is a reference to the declaration itself, not to a name it shares. A
// method also counts as used when a type holding it, declared or promoted
// from an embedded field, implements an interface whose method of that name
// is used; a method of an interface literal that a type assertion names is
// used by the assertion.
func TestInternalAPIHasCallers(t *testing.T) {
	// The standard library is type-checked from source; without cgo its
	// packages need no C toolchain.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	type decl struct {
		key string
		obj types.Object
	}
	var decls []decl
	used := map[types.Object]bool{}
	var named []*types.TypeName
	checked := map[string]*types.Package{}
	var load func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "repro" || strings.HasPrefix(path, "repro/") {
			return load(path)
		}
		return std.Import(path)
	})
	load = func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		dir := strings.TrimPrefix(strings.TrimPrefix(path, "repro"), "/")
		if dir == "" {
			dir = "."
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[path] = pkg
		for _, obj := range info.Uses {
			used[obj] = true
		}
		for _, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				named = append(named, tn)
			}
		}
		internal := strings.HasPrefix(filepath.ToSlash(dir), "internal/")
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if a, ok := n.(*ast.TypeAssertExpr); ok {
					if it, ok := a.Type.(*ast.InterfaceType); ok {
						for _, m := range it.Methods.List {
							for _, name := range m.Names {
								used[info.Defs[name]] = true
							}
						}
					}
				}
				return true
			})
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" || fn.Name.Name == "main" && fn.Recv == nil {
					continue
				}
				key := pkg.Name() + "."
				local := !fn.Name.IsExported()
				if fn.Recv != nil {
					if unusedAPIExempt[fn.Name.Name] {
						continue
					}
					recv := receiverName(fn.Recv.List[0].Type)
					local = local || !ast.IsExported(recv)
					key += recv + "."
				}
				if internal || local {
					decls = append(decls, decl{key + fn.Name.Name, info.Defs[fn.Name]})
				}
			}
		}
		return pkg, nil
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
			return filepath.SkipDir
		}
		if _, err := build.Default.ImportDir(path, 0); err != nil {
			if _, none := err.(*build.NoGoError); none {
				return nil
			}
			return err
		}
		_, err = load(strings.TrimSuffix("repro/"+filepath.ToSlash(path), "/."))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// A used interface method reaches the method of that name on every
	// module type that implements the interface.
	for obj := range used {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Signature().Recv() == nil {
			continue
		}
		iface, ok := fn.Signature().Recv().Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for _, tn := range named {
			if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
				continue
			}
			if ptr := types.NewPointer(tn.Type()); types.Implements(tn.Type(), iface) || types.Implements(ptr, iface) {
				if m, _, _ := types.LookupFieldOrMethod(ptr, false, fn.Pkg(), fn.Name()); m != nil {
					used[m] = true
				}
			}
		}
	}
	allowed := map[string]bool{}
	for _, d := range decls {
		switch {
		case used[d.obj]:
		case unusedAPIAllowed[d.key] != "":
			allowed[d.key] = true
		default:
			t.Errorf("%s: %s has no caller outside tests; delete it or move it into a test file", fset.Position(d.obj.Pos()), d.key)
		}
	}
	for key := range unusedAPIAllowed {
		if !allowed[key] {
			t.Errorf("allowlisted %s is gone or has a caller now: drop its entry", key)
		}
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// receiverName is the type name of a method's receiver, pointer and type
// parameters stripped.
func receiverName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return fmt.Sprintf("%T", x)
		}
	}
}
