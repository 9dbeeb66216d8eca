// Command snbench regenerates the paper's evaluation from the experiment
// registry: every table and figure of §4, printed as text, JSON, or CSV.
//
//	snbench                          # full suite (several minutes)
//	snbench -list                    # enumerate registered experiments
//	snbench -quick                   # single-run, short-window suite
//	snbench -exp fig6                # one experiment
//	snbench -exp fig6 -format json   # structured output
//	snbench -j 8                     # fan runs across 8 workers
//	snbench -scenario run.json       # run one declarative scenario file
//	snbench -quick -cpuprofile cpu.prof -memprofile mem.prof
//	                                 # profile the simulator's hot paths
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"safetynet"
	"safetynet/internal/campaign/report"
)

// main delegates to run so deferred cleanup — flushing the CPU profile,
// writing the heap profile — happens on every exit path, including errors.
func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: flags in argv, reports on stdout,
// errors on stderr.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("snbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "all", "experiment name (see -list), or all")
		scenFile   = fs.String("scenario", "", "run one declarative scenario file and print its result")
		list       = fs.Bool("list", false, "list registered experiments and exit")
		quick      = fs.Bool("quick", false, "single-run, short-window sizing")
		runs       = fs.Int("runs", 0, "override the number of perturbed runs per point")
		par        = fs.Int("j", runtime.NumCPU(), "simulations run in parallel (1 = serial)")
		format     = fs.String("format", "text", "output format: text, json, csv")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(argv); err != nil {
		return 1
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "snbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "snbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "snbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "snbench: %v\n", err)
			}
		}()
	}

	catalog := safetynet.Experiments()
	if *list {
		for _, e := range catalog {
			fmt.Fprintf(stdout, "%-12s %s\n", e.Name, e.Description)
		}
		return 0
	}

	if err := report.Check(*format); err != nil {
		fmt.Fprintf(stderr, "snbench: %v\n", err)
		return 1
	}
	if *format == "" {
		*format = "text"
	}

	if *scenFile != "" {
		return runScenario(*scenFile, *format, stdout, stderr)
	}

	cfg := safetynet.DefaultConfig()
	opts := safetynet.DefaultOptions()
	if *quick {
		opts = safetynet.QuickOptions()
	}
	if *runs > 0 {
		opts.Runs = *runs
	}
	opts.Workers = *par

	var selected []string
	if *exp == "all" {
		for _, e := range catalog {
			selected = append(selected, e.Name)
		}
	} else {
		selected = []string{*exp}
	}
	if *format == "csv" && len(selected) > 1 {
		fmt.Fprintln(stderr, "snbench: -format csv needs a single experiment (experiments have different columns); pass -exp")
		return 1
	}

	var reports []*safetynet.Report
	for _, name := range selected {
		start := time.Now()
		rep, err := safetynet.RunExperiment(name, cfg, opts)
		if err != nil {
			fmt.Fprintf(stderr, "snbench: %v\n", err)
			return 1
		}
		if *format == "json" && len(selected) > 1 {
			// Collect so a multi-experiment run emits one parseable
			// document (an array) instead of concatenated objects.
			reports = append(reports, rep)
			continue
		}
		out, err := report.Encode(rep, *format)
		if err != nil {
			fmt.Fprintf(stderr, "snbench: %v\n", err)
			return 1
		}
		if *format == "text" {
			fmt.Fprintln(stdout, "==================================================================")
			fmt.Fprintf(stdout, "%s\n", out)
			fmt.Fprintf(stdout, "[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		} else {
			stdout.Write(out)
		}
	}
	if reports != nil {
		out, err := report.JSON(reports)
		if err != nil {
			fmt.Fprintf(stderr, "snbench: %v\n", err)
			return 1
		}
		stdout.Write(out)
	}
	return 0
}

// runScenario executes one declarative scenario file and prints its
// Result (text summary or JSON). Scenario expectations, when present,
// are enforced.
func runScenario(path, format string, stdout, stderr io.Writer) int {
	if format == "csv" {
		fmt.Fprintln(stderr, "snbench: -scenario supports text and json output")
		return 1
	}
	sc, err := safetynet.LoadScenario(path)
	if err != nil {
		fmt.Fprintf(stderr, "snbench: %v\n", err)
		return 1
	}
	start := time.Now()
	res, err := sc.Run()
	if err != nil {
		fmt.Fprintf(stderr, "snbench: %v\n", err)
		return 1
	}
	if format == "json" {
		out, err := report.JSON(res)
		if err != nil {
			fmt.Fprintf(stderr, "snbench: %v\n", err)
			return 1
		}
		stdout.Write(out)
	} else {
		name := sc.Name
		if name == "" {
			name = path
		}
		fmt.Fprintf(stdout, "scenario %s: workload %s on the %s backend\n", name, res.Workload, res.Protocol)
		fmt.Fprintf(stdout, "  cycles %d, instrs %d, IPC %.3f, recoveries %d, crashed %v\n",
			res.Cycles, res.Instrs, res.IPC, res.Recoveries, res.Crashed)
		fmt.Fprintf(stdout, "[completed in %v]\n", time.Since(start).Round(time.Millisecond))
	}
	if err := sc.Check(res); err != nil {
		fmt.Fprintln(stderr, "snbench: scenario expectation failed:", err)
		return 1
	}
	return 0
}
