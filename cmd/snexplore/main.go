// Command snexplore executes one declarative exploration file: a
// campaign-shaped search space (axis×variant arms, seed replications),
// objective functions extracted from run results, and a search
// strategy (exhaustive, or successive halving, which prunes doomed arms
// with short rounds) that decides which arms earn runs; a crashed run
// disqualifies its arm. The result is a Pareto-frontier report over the
// evaluated arms.
//
//	snexplore examples/explorations/clb-vs-interval.json
//	snexplore -j 8 -format json examples/explorations/clb-vs-interval.json
//	snexplore -expand examples/explorations/clb-vs-interval.json  # list arms, no simulation
//	snexplore -strategy exhaustive file.json    # override the strategy for comparison
//	snexplore -scale-to 400000 -v file.json     # clamp horizons, narrate progress
//
// The report goes to stdout; progress narration goes to stderr, so for
// a fixed exploration the report is byte-identical at any -j (pipe
// stdout to diff to check) and `-format json` stdout always
// parses. SIGINT/SIGTERM cancel in-flight runs cleanly. Exit status: 0
// on success, 1 on a usage or load error or cancellation.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"safetynet"
	"safetynet/internal/campaign/report"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: flags and exploration path in argv,
// report on stdout, progress and errors on stderr.
func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("snexplore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		par      = fs.Int("j", 0, "runs executed in parallel (0 = one per CPU)")
		format   = fs.String("format", "text", "report format: text, json, csv")
		expand   = fs.Bool("expand", false, "list the search arms and objectives without simulating")
		verbose  = fs.Bool("v", false, "print per-run completion progress to stderr")
		strategy = fs.String("strategy", "", "override the strategy kind ("+strings.Join(safetynet.ExploreKinds(), ", ")+")")
		scaleTo  = fs.Uint64("scale-to", 0, "clamp every round's horizon to this cycle budget (0 = as declared)")
	)
	if err := fs.Parse(argv); err != nil {
		return 1
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: snexplore [flags] exploration.json")
		fs.PrintDefaults()
		return 1
	}
	if err := report.Check(*format); err != nil {
		fmt.Fprintf(stderr, "snexplore: %v\n", err)
		return 1
	}

	e, err := safetynet.LoadExploration(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "snexplore: %v\n", err)
		return 1
	}
	if *strategy != "" && *strategy != e.Strategy.Kind {
		// Overriding the kind drops the declared kind's parameters (they
		// would be rejected on the new kind) and runs the substitute at
		// its defaults — exactly what comparing strategies needs.
		e.Strategy = safetynet.ExploreStrategy{Kind: *strategy}
		if err := e.Validate(); err != nil {
			fmt.Fprintf(stderr, "snexplore: %v\n", err)
			return 1
		}
	}

	if *expand {
		descs, err := e.ArmDescs()
		if err != nil {
			fmt.Fprintf(stderr, "snexplore: %v\n", err)
			return 1
		}
		for a, desc := range descs {
			fmt.Fprintf(stdout, "%4d  %s\n", a, desc)
		}
		fmt.Fprintf(stdout, "%d arms x %d seeds = %d exhaustive runs; strategy %s\n",
			e.Arms(), e.Space.Runs()/e.Arms(), e.Space.Runs(), e.Strategy.Kind)
		fmt.Fprintf(stdout, "objectives: %s\n", strings.Join(e.Objectives, ", "))
		return 0
	}

	opts := safetynet.ExploreOptions{Context: ctx, Workers: *par, ScaleTo: *scaleTo}
	if *verbose {
		done := 0
		opts.OnRun = func(run safetynet.CampaignRun, res safetynet.ExperimentRunResult) {
			done++
			status := fmt.Sprintf("ipc=%.3f recoveries=%d", res.IPC, res.Recoveries)
			if res.Crashed {
				status = "CRASH: " + res.CrashCause
			}
			fmt.Fprintf(stderr, "[%d] %s: %s\n", done, run.Desc, status)
		}
	}

	rep, err := safetynet.RunExploration(e, opts)
	if err != nil {
		fmt.Fprintf(stderr, "snexplore: %v\n", err)
		return 1
	}
	out, err := report.Encode(rep, *format)
	if err != nil {
		fmt.Fprintf(stderr, "snexplore: %v\n", err)
		return 1
	}
	stdout.Write(out)
	return 0
}
