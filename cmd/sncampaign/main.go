// Command sncampaign executes one declarative campaign file: a base
// scenario expanded over a matrix of override axes, fault-plan
// variants, and a seed range, executed on a worker pool and
// reduced into a statistical report (mean/median/percentiles, stddev,
// bootstrap confidence intervals, per-axis breakdowns).
//
//	sncampaign examples/campaigns/availability-matrix.json
//	sncampaign -j 8 -format json examples/campaigns/availability-matrix.json
//	sncampaign -expand examples/campaigns/availability-matrix.json   # list runs, no simulation
//	sncampaign -short -v examples/campaigns/availability-matrix.json # scaled, with progress
//	sncampaign -events examples/campaigns/interval-sweep.json        # narrate run events
//	sncampaign -submit http://localhost:8321 -v campaign.json        # run on a snserved daemon
//
// The report goes to stdout; progress and event narration go to
// stderr, so a report is byte-identical at any -j (pipe stdout to
// diff to check) and `-format json` stdout always parses. With
// -submit the campaign runs on a snserved daemon instead of locally:
// the file is submitted over HTTP, -v streams the daemon's per-run
// completions (SSE), and the fetched report — byte-identical to a
// local run — prints to stdout. SIGINT/SIGTERM cancel in-flight local
// runs cleanly (workers abandon mid-run at the next stride check).
// Exit status: 0 on success, 1 on a usage or load error, cancellation,
// or when any run's declared expectation goes unmet.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"safetynet"
	"safetynet/internal/campaign/report"
)

// shortBudgetCycles is the per-run horizon -short scales a campaign
// to, matching snsim -short so the CI smoke jobs size both the same
// way.
const shortBudgetCycles = 1_600_000

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: flags and campaign path in argv,
// report on stdout, progress/narration/errors on stderr.
func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sncampaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		par     = fs.Int("j", 0, "runs executed in parallel (0 = one per CPU)")
		format  = fs.String("format", "text", "report format: text, json, csv")
		short   = fs.Bool("short", false, "scale every run to a short horizon")
		expand  = fs.Bool("expand", false, "list the expanded runs without simulating")
		verbose = fs.Bool("v", false, "print per-run completion progress to stderr")
		events  = fs.Bool("events", false, "narrate run events (recoveries, faults, crashes) to stderr")
		submit  = fs.String("submit", "", "submit to the snserved daemon at this base URL instead of running locally")
	)
	if err := fs.Parse(argv); err != nil {
		return 1
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: sncampaign [flags] campaign.json")
		fs.PrintDefaults()
		return 1
	}
	if err := report.Check(*format); err != nil {
		fmt.Fprintf(stderr, "sncampaign: %v\n", err)
		return 1
	}

	c, err := safetynet.LoadCampaign(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "sncampaign: %v\n", err)
		return 1
	}

	if *expand {
		runs, err := c.Expand()
		if err != nil {
			fmt.Fprintf(stderr, "sncampaign: %v\n", err)
			return 1
		}
		for _, r := range runs {
			fmt.Fprintf(stdout, "%4d  %s\n", r.Index, r.Desc)
		}
		fmt.Fprintf(stdout, "%d runs\n", len(runs))
		return 0
	}

	if *submit != "" {
		if *events {
			fmt.Fprintln(stderr, "sncampaign: -events narrates local runs; a submitted campaign streams completions with -v instead")
			return 1
		}
		return runRemote(ctx, c, *submit, *format, *short, *verbose, stdout, stderr)
	}

	opts := safetynet.CampaignOptions{Context: ctx, Workers: *par}
	if *short {
		opts.ScaleTo = shortBudgetCycles
	}
	if *verbose {
		opts.OnResult = func(done, total int, run safetynet.CampaignRun, res safetynet.ExperimentRunResult) {
			status := fmt.Sprintf("ipc=%.3f recoveries=%d", res.IPC, res.Recoveries)
			if res.Crashed {
				status = "CRASH: " + res.CrashCause
			}
			fmt.Fprintf(stderr, "[%d/%d] %s: %s\n", done, total, run.Desc, status)
		}
	}
	if *events {
		opts.Observer = func(run safetynet.CampaignRun) *safetynet.RunObserver {
			desc := run.Desc
			return &safetynet.RunObserver{
				RecoveryCompleted: func(cycle uint64, ckpt uint32, latency uint64) {
					fmt.Fprintf(stderr, "%s: [%10d] recovery complete: back to checkpoint %d after %d cycles\n",
						desc, cycle, ckpt, latency)
				},
				FaultFired: func(cycle uint64, kind string) {
					fmt.Fprintf(stderr, "%s: [%10d] fault fired: %s\n", desc, cycle, kind)
				},
				Crashed: func(cycle uint64, cause string) {
					fmt.Fprintf(stderr, "%s: [%10d] CRASH: %s\n", desc, cycle, cause)
				},
			}
		}
	}

	rep, err := c.Run(opts)
	if err != nil {
		fmt.Fprintf(stderr, "sncampaign: %v\n", err)
		return 1
	}
	out, err := report.Encode(rep, *format)
	if err != nil {
		fmt.Fprintf(stderr, "sncampaign: %v\n", err)
		return 1
	}
	stdout.Write(out)
	if n := len(rep.ExpectFailures); n > 0 {
		fmt.Fprintf(stderr, "sncampaign: %d run(s) failed their declared expectations\n", n)
		return 1
	}
	return 0
}

// runRemote executes the campaign on a snserved daemon: submit the
// canonical document, optionally stream per-run completions to stderr,
// and print the fetched report — byte-identical to a local run — to
// stdout.
func runRemote(ctx context.Context, c *safetynet.Campaign, baseURL, format string, short, verbose bool, stdout, stderr io.Writer) int {
	doc, err := c.Encode()
	if err != nil {
		fmt.Fprintf(stderr, "sncampaign: %v\n", err)
		return 1
	}
	var scaleTo uint64
	if short {
		scaleTo = shortBudgetCycles
	}
	cl := safetynet.NewServeClient(baseURL)
	// Transient dial/5xx failures back off and retry (capped exponential
	// + jitter) instead of failing the submission on the first hiccup —
	// a daemon mid-restart is a normal sight in a resumable system.
	cl.Retry = &safetynet.ServeRetryPolicy{}
	st, err := cl.Submit(ctx, doc, scaleTo)
	if err != nil {
		fmt.Fprintf(stderr, "sncampaign: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "sncampaign: submitted %s (%d runs) to %s\n", st.ID, st.Runs, baseURL)

	var onRun func(safetynet.ServeEvent)
	if verbose {
		onRun = func(e safetynet.ServeEvent) {
			status := fmt.Sprintf("ipc=%.3f recoveries=%d", e.IPC, e.Recoveries)
			if e.Crashed {
				status = "CRASH: " + e.CrashCause
			}
			fmt.Fprintf(stderr, "[%d/%d] %s: %s\n", e.Done, e.Total, e.Desc, status)
		}
	}
	end, err := cl.Events(ctx, st.ID, 0, onRun)
	if err != nil {
		fmt.Fprintf(stderr, "sncampaign: %v\n", err)
		return 1
	}
	if end.State != safetynet.ServeStateDone {
		fmt.Fprintf(stderr, "sncampaign: job %s %s: %s\n", st.ID, end.State, end.Error)
		return 1
	}
	rep, err := cl.Report(ctx, st.ID, format)
	if err != nil {
		fmt.Fprintf(stderr, "sncampaign: %v\n", err)
		return 1
	}
	stdout.Write(rep)
	if end.ExpectFailures > 0 {
		fmt.Fprintf(stderr, "sncampaign: %d run(s) failed their declared expectations\n", end.ExpectFailures)
		return 1
	}
	return 0
}
