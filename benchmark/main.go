// Command benchmark is the repo's one benchmark: a single-process load
// generator that drives a real child autotuned (and, for one workload, two
// child autotune-evaluators) over loopback HTTP, reports what a client of
// the tuning service feels, checks that every answer is correct, and — in a
// separate traced pass — attributes a trial's time to the layers below.
// It is distinct from internal/bench, which reproduces the paper's tables.
//
//	go run ./benchmark -seed 1                      all four workloads
//	go run ./benchmark -workload warm_repo -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -workload warm_repo -seed 1 -seconds 20 -trace 1
//	go run ./benchmark -seed 1 -exact               fixed counts: digests repeat exactly
//	go run ./benchmark -seed 1 -runs 5 -out A.json  record runs for -compare
//	go run ./benchmark -compare A.json B.json
//	go run ./benchmark -smoke                       everything at ~1/50 size
//
// See README.md in this directory for the metric glossary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
)

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	exact    bool
	trace    bool
	smoke    bool
	runs     int
	out      string
	compare  bool
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var o options
	var trace boolOrDigit
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all four, in order)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the session list; the same seed gives the same sessions")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the measured window")
	fs.BoolVar(&o.exact, "exact", false, "run each workload's fixed session count instead of a timed window, so counts, digests and quality repeat exactly")
	fs.Var(&trace, "trace", "run the traced per-layer pass instead of the end-to-end pass (-trace, or -trace 0|1)")
	fs.BoolVar(&o.smoke, "smoke", false, "every workload, end to end and traced, at about 1/50 size")
	fs.IntVar(&o.runs, "runs", 1, "repeat the whole pass this many times")
	fs.StringVar(&o.out, "out", "", "also write the runs' reports to this JSON file (input of -compare)")
	fs.BoolVar(&o.compare, "compare", false, "compare two -out files: benchmark -compare A.json B.json")
	if err := fs.Parse(trace.rewrite(args)); err != nil {
		return 2
	}
	o.trace = bool(trace)
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two files written with -out")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	var todo []*workload
	if o.workload == "" {
		todo = workloads
	} else if w := workloadByName(o.workload); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	h, err := newHarness(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer h.close()

	var reports []report
	ok := true
	for r := 0; r < o.runs; r++ {
		for _, w := range todo {
			passes := []bool{o.trace}
			if o.smoke {
				passes = []bool{false, true}
			}
			for _, traced := range passes {
				rep, err := h.runWorkload(ctx, w, o, traced)
				if err != nil {
					// No result line: the run did not measure anything.
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
					return 1
				}
				rep.print(os.Stdout)
				reports = append(reports, rep)
				ok = ok && rep.Correct
			}
		}
	}
	if o.out != "" {
		if err := writeReports(o.out, reports); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// boolOrDigit is the -trace flag. The driver's contract passes "--trace 0"
// or "--trace 1" as two arguments, which Go's boolean flags do not accept,
// while a person types a bare -trace; rewrite joins the first form into
// "-trace=0|1" so one flag serves both.
type boolOrDigit bool

func (b *boolOrDigit) String() string   { return fmt.Sprint(bool(*b)) }
func (b *boolOrDigit) IsBoolFlag() bool { return true }
func (b *boolOrDigit) Set(s string) error {
	switch s {
	case "1", "true":
		*b = true
	case "0", "false":
		*b = false
	default:
		return fmt.Errorf("want 0 or 1")
	}
	return nil
}

func (*boolOrDigit) rewrite(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// environment is recorded with every report, so a number can be traced back
// to the host that produced it.
type environment struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
}

func currentEnvironment() environment {
	env := environment{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(data))
	}
	return env
}

// reportFile is what -out writes and -compare reads.
type reportFile struct {
	Env  environment `json:"env"`
	Runs []report    `json:"runs"`
}

func writeReports(path string, reports []report) error {
	data, err := json.MarshalIndent(reportFile{Env: currentEnvironment(), Runs: reports}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
