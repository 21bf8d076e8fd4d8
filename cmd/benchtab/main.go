// Command benchtab regenerates the paper's tables and quantitative claims.
//
// Usage:
//
//	benchtab -exp table1            # one experiment
//	benchtab -exp all               # everything (seconds)
//	benchtab -exp table1 -parallel 8
//	benchtab -exp table2 -csv out.csv
//	benchtab -exp all -json out.json
//	benchtab -list
//
// A tuning session that fails makes benchtab exit 1 with an error naming the
// experiment and the cell.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bench"
)

// record is one experiment's JSON form: the table plus the options that
// regenerate it and the wall-clock it took.
type record struct {
	Experiment     string     `json:"experiment"`
	Title          string     `json:"title"`
	Columns        []string   `json:"columns"`
	Rows           [][]string `json:"rows"`
	Notes          []string   `json:"notes,omitempty"`
	Seed           int64      `json:"seed"`
	Budget         int        `json:"budget"`
	Fast           bool       `json:"fast"`
	Parallel       int        `json:"parallel"`
	ElapsedSeconds float64    `json:"elapsed_seconds"`
}

func main() {
	var (
		exp      = flag.String("exp", "", "experiment to run (see -list), or 'all'")
		seed     = flag.Int64("seed", 42, "random seed")
		budget   = flag.Int("budget", 30, "per-tuner trial budget")
		fast     = flag.Bool("fast", false, "shrink workloads for a quick pass")
		parallel = flag.Int("parallel", runtime.NumCPU(), "tuning sessions run concurrently (same tables at any value)")
		csvOut   = flag.String("csv", "", "also write the table as CSV to this file")
		jsonOut  = flag.String("json", "", "also write results + timings as JSON to this file")
		list     = flag.Bool("list", false, "list experiments")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-14s %-26s %s\n", e.Name, "("+e.Paper+")", e.Doc)
		}
		return
	}

	o := bench.Options{Seed: *seed, Budget: *budget, Fast: *fast, Parallel: *parallel}
	names := []string{*exp}
	if *exp == "all" {
		names = names[:0]
		for _, e := range bench.Experiments() {
			names = append(names, e.Name)
		}
	}
	var records []record
	for _, name := range names {
		start := time.Now()
		tb, err := bench.Run(name, o)
		if err != nil {
			fatal(err)
		}
		elapsed := time.Since(start).Seconds()
		tb.Render(os.Stdout)
		fmt.Printf("(%s: %.2fs wall-clock at parallelism %d)\n\n", name, elapsed, *parallel)
		if *csvOut != "" {
			// With multiple experiments, write one CSV per experiment
			// (out.csv → out-table1.csv, …) instead of overwriting.
			path := *csvOut
			if len(names) > 1 {
				ext := filepath.Ext(path)
				path = path[:len(path)-len(ext)] + "-" + name + ext
			}
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := tb.WriteCSV(f); err != nil {
				fmt.Fprintln(os.Stderr, "benchtab:", err)
			}
			f.Close()
		}
		records = append(records, record{
			Experiment: name, Title: tb.Title, Columns: tb.Columns,
			Rows: tb.Rows, Notes: tb.Notes,
			Seed: *seed, Budget: *budget, Fast: *fast, Parallel: *parallel,
			ElapsedSeconds: elapsed,
		})
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		if err := enc.Encode(records); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
		}
		f.Close()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtab:", err)
	os.Exit(1)
}
