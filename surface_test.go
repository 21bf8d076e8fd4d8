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
	"sort"
	"strings"
	"sync"
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
	// The evaluator's fault hook only tests set, and the surrogate's and the
	// proxy's values no program set: a test puts its faults in front of an
	// evaluator's handler, the sparse and RFF tiers run at m = 64 and D = 128,
	// and a proxy runs on its spec's cluster. A session record's features and
	// a target's nodes stay.
	`dist\.Fault\b`, `Fault\{`, `Fault func\(`, `type Fault\b`, `opts\.Fault\b`, `fault\.(Hang|Mute|Drop|Delay)\b`,
	`\.Inducing\b`, `\bInducing(:|\s+int\b)`, `\bMaxInducing\b`, `\bRFF\{[^}]*\bFeatures:`, `cfg\.Features\b`, `int\s+\x60json:"(inducing|features)\b`,
	`"(inducing|features)":\s*\d`, `Proxy\.Nodes\b`, `ProxySpec\{[^}]*\bNodes:`, `"proxy":\s*\{[^}]*"nodes"`,
	// The per-session surrogate setting: every session runs one tier schedule
	// (exact while n ≤ 160, RFF past 1 500 observations or 32 dimensions,
	// sparse between), its switches constants of package tune.
	// gp.Surrogate, tune.SurrogateModel, SurrogateSelector, the empty
	// SurrogateConfig and the tier names stay, and so do the "surrogate"
	// experiment and the benchmark's mention of sparse_above.
	`SurrogateSpec`, `SurrogateAuto`, `\b(SparseAbove|RFFAbove)\b`, `\b(Spec|TunerOptions)\.Surrogate\b`, `Surrogate\s+\*(tune\.)?SurrogateConfig\b`,
	`SurrogateConfig\) Validate`, `json:"(surrogate|tier|sparse_above|rff_above)\b`, `"surrogate":\s*\{\s*"`,
	`"(sparse|rff)_above"`, `(^|[\s"'\x60])-(surrogate|sparse-above|rff-above)\b`, `Var\([^,]+, "surrogate"`,
	// The un-indexed evaluation path: every tune.Target is run-indexed, so
	// there is no second target interface, no own-counter run index and no
	// capability gate on parallelism, checkpoints or resume.
	// tune.ConcurrentFidelityTarget stays as an alias of FidelityTarget.
	`\bConcurrentTarget\b`, `\bNextRun\b`, `\.Indexed\(\)`,
}

// retiredAllowed maps a file that only a benchmark change may edit to the
// retired surface it may still mention until then.
var retiredAllowed = map[string]string{
	"benchmark/decorator_test.go": `\bConcurrentTarget\b`,
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
	// One regexp per surface: most carry a literal the matcher scans for,
	// which their alternation would not.
	var retired []*regexp.Regexp
	for _, surface := range retiredSurfaces {
		retired = append(retired, regexp.MustCompile(surface))
	}
	mentionsRetired := func(name, line string) bool {
		for _, re := range retired {
			if re.MatchString(line) && retiredAllowed[name] != re.String() {
				return true
			}
		}
		return false
	}
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
			if !exempt(name) && mentionsRetired(name, line) {
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

// module is the module's non-test Go code, type-checked once per test binary
// (loadModule): every package under the root outside hidden, testdata and out
// directories, each after the packages it imports.
type module struct {
	fset *token.FileSet
	pkgs []*modulePackage
}

// modulePackage is one type-checked package with its syntax and its
// identifier and expression facts.
type modulePackage struct {
	dir   string
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loadModule parses and type-checks every non-test Go file of the module
// once; the standard library is type-checked from source, and without cgo
// its packages need no C toolchain.
var loadModule = sync.OnceValues(func() (*module, error) {
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	m := &module{fset: token.NewFileSet()}
	std := importer.ForCompiler(m.fset, "source", nil)
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
			f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(path, m.fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[path] = pkg
		m.pkgs = append(m.pkgs, &modulePackage{dir: filepath.ToSlash(dir), pkg: pkg, files: files, info: info})
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
	return m, err
})

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
	mod, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		key string
		obj types.Object
	}
	var decls []decl
	used := map[types.Object]bool{}
	var named []*types.TypeName
	for _, p := range mod.pkgs {
		info := p.info
		for _, obj := range info.Uses {
			used[obj] = true
		}
		for _, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				named = append(named, tn)
			}
		}
		internal := strings.HasPrefix(p.dir, "internal/")
		for _, f := range p.files {
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
				key := p.pkg.Name() + "."
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
			t.Errorf("%s: %s has no caller outside tests; delete it or move it into a test file", mod.fset.Position(d.obj.Pos()), d.key)
		}
	}
	for key := range unusedAPIAllowed {
		if !allowed[key] {
			t.Errorf("allowlisted %s is gone or has a caller now: drop its entry", key)
		}
	}
}

// settableRoots are the structs whose exported fields are settable values:
// the session spec with every struct it nests, and the options of the target
// and tuner registries, the engine's job, the daemon and the evaluator fleet.
var settableRoots = []struct {
	pkg, name string
	nested    bool
}{
	{"repro", "Spec", true},
	{"repro", "TargetOptions", false},
	{"repro", "TunerOptions", false},
	{"repro/internal/engine", "Job", false},
	{"repro/internal/daemon", "Options", false},
	{"repro/internal/dist", "PoolOptions", false},
	{"repro/internal/dist", "EvaluatorOptions", false},
}

// settableAllowed are the settable values no program sets, each kept for the
// reason given.
var settableAllowed = map[string]string{
	"daemon.Options.Workers":               "autotuned -workers: an operator sizes the session slots to the host's cores",
	"daemon.Options.RepoDir":               "autotuned -repo: an operator puts the repository on the host's disk",
	"daemon.Options.Evaluators":            "autotuned -evaluators: the fleet an operator runs beside the daemon",
	"daemon.Options.MaxSessions":           "autotuned -max-sessions: an operator sizes admission to the host's memory",
	"daemon.Options.MaxQueue":              "autotuned -max-queue: an operator sizes the admission queue to the host",
	"daemon.Options.EventBuffer":           "autotuned -event-buffer: an operator sizes each session's replay to the host's memory",
	"dist.EvaluatorOptions.HeartbeatEvery": "autotune-evaluator -heartbeat: an operator sizes the lease beat to the network",
	"tune.Budget.SimTime":                  "the cost axis (ROADMAP) decides what a simulated-time budget means",
	"repro.TargetOptions.FullSparkSpace":   "the only space wider than rffDimAbove: the paper's ~200-knob Spark surface (§2.4)",
}

// TestSettableValuesHaveSetters fails on a settable value (an exported field
// of a settableRoots struct) that no non-test Go file of the module writes.
// A write is a composite-literal key or an assignment. Three kinds do not
// count: a flag registration or a copy of a flag's value (a command flag
// follows the field it fills), JSON decoding (it writes nothing in the
// source), and a default, a constant written under a check of the same
// field. A copy from another field is a write; the field copied is judged on
// its own.
func TestSettableValuesHaveSetters(t *testing.T) {
	mod, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	fields := map[*types.Var]string{} // a settable value → "pkg.Type.Field"
	var cover func(tn *types.TypeName, nested bool)
	cover = func(tn *types.TypeName, nested bool) {
		st := tn.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if _, seen := fields[f]; seen || !f.Exported() {
				continue
			}
			fields[f] = tn.Pkg().Name() + "." + tn.Name() + "." + f.Name()
			if inner := moduleStruct(f.Type()); nested && inner != nil {
				cover(inner, true)
			}
		}
	}
	for _, root := range settableRoots {
		found := false
		for _, p := range mod.pkgs {
			if tn, ok := p.pkg.Scope().Lookup(root.name).(*types.TypeName); ok && p.pkg.Path() == root.pkg {
				cover(tn, root.nested)
				found = true
			}
		}
		if !found {
			t.Errorf("settable root %s.%s is gone: drop it from settableRoots", root.pkg, root.name)
		}
	}
	written := map[*types.Var]bool{}
	for _, p := range mod.pkgs {
		info := p.info
		flags := flagVars(info, p.files)
		// A value that reads a flag, as splitURLs(*evals) does, is that
		// flag's value.
		fromFlag := func(x ast.Expr) (reads bool) {
			ast.Inspect(x, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				reads = reads || ok && flags[info.Uses[id]]
				return !reads
			})
			return reads
		}
		for _, f := range p.files {
			var stack []ast.Node
			write := func(id *ast.Ident, value ast.Expr) {
				fv, ok := info.Uses[id].(*types.Var)
				if _, covered := fields[fv]; !ok || !covered {
					return
				}
				if value != nil && (fromFlag(value) || info.Types[value].Value != nil && checked(info, stack, fv)) {
					return
				}
				written[fv] = true
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								write(key, kv.Value)
							}
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							var value ast.Expr
							if len(n.Rhs) == len(n.Lhs) && n.Tok == token.ASSIGN {
								value = n.Rhs[i]
							}
							write(sel.Sel, value)
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
						write(sel.Sel, nil)
					}
				}
				return true
			})
		}
	}
	keys := make([]*types.Var, 0, len(fields))
	for f := range fields {
		keys = append(keys, f)
	}
	sort.Slice(keys, func(i, j int) bool { return fields[keys[i]] < fields[keys[j]] })
	allowed := map[string]bool{}
	for _, f := range keys {
		key := fields[f]
		switch {
		case written[f]:
		case settableAllowed[key] != "":
			allowed[key] = true
		default:
			t.Errorf("%s: %s is settable but no program sets it; retire it, or allowlist it with a reason", mod.fset.Position(f.Pos()), key)
		}
	}
	for key := range settableAllowed {
		if !allowed[key] {
			t.Errorf("allowlisted settable value %s is gone or has a setter now: drop its entry", key)
		}
	}
}

// moduleStruct is the module's named struct type t is or points to, or nil.
func moduleStruct(t types.Type) *types.TypeName {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil || !strings.HasPrefix(named.Obj().Pkg().Path()+"/", "repro/") {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named.Obj()
}

// flagVars are the variables a package binds to command flags: those a flag
// function's result is assigned to (v := flag.Int(…)) and those handed to
// one by address (fs.IntVar(&v, …)).
func flagVars(info *types.Info, files []*ast.File) map[types.Object]bool {
	vars := map[types.Object]bool{}
	isFlag := func(x ast.Expr) bool {
		call, ok := ast.Unparen(x).(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		obj := info.Uses[fn.Sel]
		return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "flag"
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				for i, id := range n.Names {
					if len(n.Values) == len(n.Names) && isFlag(n.Values[i]) {
						vars[info.Defs[id]] = true
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && len(n.Rhs) == len(n.Lhs) && isFlag(n.Rhs[i]) {
						vars[info.ObjectOf(id)] = true
					}
				}
			case *ast.CallExpr:
				for _, arg := range n.Args {
					if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND && isFlag(n) {
						if id, ok := ast.Unparen(u.X).(*ast.Ident); ok {
							vars[info.Uses[id]] = true
						}
					}
				}
			}
			return true
		})
	}
	return vars
}

// checked reports whether the innermost statements around a write sit under
// an if whose condition reads the field written: a default.
func checked(info *types.Info, stack []ast.Node, field *types.Var) bool {
	for _, n := range stack {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		reads := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == field {
				reads = true
			}
			return !reads
		})
		if reads {
			return true
		}
	}
	return false
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
