// spg-bench regenerates the tables and figures of the paper's evaluation.
//
// Usage:
//
//	spg-bench -list
//	spg-bench -exp table1
//	spg-bench -exp fig4e -scale full -csv
//	spg-bench -all -out results/
//	spg-bench -exp goodput -json                  # write BENCH_goodput.json
//	spg-bench -exp table1 -json -baseline baselines  # compare vs committed
//
// Modeled experiments print the calibrated machine-model series (the
// paper's 16-core Xeon); measured experiments execute real kernels or
// training runs on this host. See DESIGN.md for the per-experiment index.
//
// -json writes a schema-versioned machine-readable report
// (BENCH_<exp>.json, host-fingerprinted) instead of text output. With
// -baseline DIR each fresh report is additionally compared against
// DIR/BENCH_<exp>.json: strictly for deterministic (analytical/modeled)
// experiments within -tolerance, structurally for measured ones.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"spgcnn"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "spg-bench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("spg-bench", flag.ContinueOnError)
	var (
		list      = fs.Bool("list", false, "list available experiments")
		exp       = fs.String("exp", "", "experiment ID to run (see -list)")
		all       = fs.Bool("all", false, "run every experiment")
		scale     = fs.String("scale", "quick", "workload scale: quick or full")
		workers   = fs.Int("workers", 0, "host workers for measured experiments (0 = GOMAXPROCS)")
		mach      = fs.String("machine", "paper", "model behind modeled figures: paper (16-core Xeon) or host (calibrated probe)")
		csv       = fs.Bool("csv", false, "emit CSV instead of aligned text")
		jsonOut   = fs.Bool("json", false, "write machine-readable BENCH_<exp>.json reports (into -out, default .)")
		baseline  = fs.String("baseline", "", "directory of committed BENCH_<exp>.json baselines to compare -json reports against")
		tolerance = fs.Float64("tolerance", 0.05, "relative tolerance band for deterministic baseline comparison")
		out       = fs.String("out", "", "directory to write per-experiment files into (default: stdout; with -json: .)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range spgcnn.Experiments() {
			fmt.Fprintf(stdout, "%-14s [%-10s] %s\n", e.ID, e.Kind, e.Desc)
		}
		return nil
	}
	if *scale != "quick" && *scale != "full" {
		return fmt.Errorf("invalid -scale %q (want quick or full)", *scale)
	}
	if *mach != "paper" && *mach != "host" {
		return fmt.Errorf("invalid -machine %q (want paper or host)", *mach)
	}
	if *baseline != "" && !*jsonOut {
		return fmt.Errorf("-baseline requires -json")
	}
	opts := spgcnn.ExperimentOptions{Scale: *scale, Workers: *workers, Machine: *mach}

	var exps []spgcnn.Experiment
	switch {
	case *all:
		exps = spgcnn.Experiments()
	case *exp != "":
		e, err := spgcnn.LookupExperiment(*exp)
		if err != nil {
			return err
		}
		exps = []spgcnn.Experiment{e}
	default:
		return fmt.Errorf("nothing to do: pass -exp <id>, -all, or -list")
	}

	dir := *out
	if *jsonOut && dir == "" {
		dir = "."
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}

	var failures []string
	for _, e := range exps {
		fmt.Fprintf(stderr, "running %s ...\n", e.ID)
		tables := e.Run(opts)

		if *jsonOut {
			rep := spgcnn.NewBenchReport(e, opts, tables)
			path := filepath.Join(dir, "BENCH_"+e.ID+".json")
			if err := rep.WriteFile(path); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "wrote %s\n", path)
			if *baseline != "" {
				basePath := filepath.Join(*baseline, "BENCH_"+e.ID+".json")
				base, err := spgcnn.LoadBenchReport(basePath)
				if err != nil {
					return fmt.Errorf("baseline: %w", err)
				}
				if err := spgcnn.CompareBenchReports(base, &rep, *tolerance); err != nil {
					fmt.Fprintf(stderr, "%v\n", err)
					failures = append(failures, e.ID)
				} else {
					fmt.Fprintf(stderr, "%s matches baseline (tolerance %g)\n", e.ID, *tolerance)
				}
			}
			continue
		}

		var b strings.Builder
		for i, t := range tables {
			if i > 0 {
				b.WriteByte('\n')
			}
			if *csv {
				b.WriteString("# " + t.Title + "\n")
				b.WriteString(t.CSV())
			} else {
				b.WriteString(t.Render())
			}
		}
		if dir == "" {
			fmt.Fprint(stdout, b.String())
			fmt.Fprintln(stdout)
			continue
		}
		ext := ".txt"
		if *csv {
			ext = ".csv"
		}
		path := filepath.Join(dir, e.ID+ext)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", path)
	}
	if len(failures) > 0 {
		return fmt.Errorf("baseline comparison failed for %s", strings.Join(failures, ", "))
	}
	return nil
}
