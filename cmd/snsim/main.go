// Command snsim runs one simulation of the SafetyNet target system and
// prints a run summary. A run is described either by flags or by a
// declarative scenario file (-scenario), the checked-in examples of
// which live in examples/scenarios/.
//
// Examples:
//
//	snsim -workload oltp -cycles 4000000
//	snsim -workload apache -unprotected -drop-at 1000000   # crashes
//	snsim -workload apache -drop-at 1000000                # recovers
//	snsim -workload jbb -kill-node 5 -kill-at 1000000      # hard fault
//	snsim -protocol snoop -workload jbb -drop-at 1000000   # snooping backend
//	snsim -scenario examples/scenarios/dropped-message.json
//	snsim -scenario examples/scenarios/dropped-message.json -short
//
// Exit status: 0 on success, 1 on a usage/configuration error or an
// unmet scenario expectation, 2 when the simulated system crashed
// without the scenario expecting it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"safetynet"
)

// shortBudgetCycles is the total horizon -short scales a scenario to:
// large checked-in scenarios shrink proportionally (phases and fault
// schedules alike) so CI can smoke every scenario quickly.
const shortBudgetCycles = 1_600_000

func main() {
	var (
		scenarioFile = flag.String("scenario", "", "run a declarative scenario file instead of the flag-built run")
		short        = flag.Bool("short", false, "with -scenario: scale the scenario to a short horizon")
		verbose      = flag.Bool("v", false, "log run events (checkpoints, recoveries, faults) as they happen")

		workloadName = flag.String("workload", "oltp", "workload preset (oltp, jbb, apache, slashcode, barnes, stress)")
		protocol     = flag.String("protocol", safetynet.ProtocolDirectory, "coherence backend (directory, snoop)")
		unprotected  = flag.Bool("unprotected", false, "disable SafetyNet (baseline system; directory only)")
		cycles       = flag.Uint64("cycles", 4_000_000, "cycles to simulate (1 cycle = 1 ns)")
		seed         = flag.Uint64("seed", 1, "simulation seed")
		interval     = flag.Uint64("interval", 100_000, "checkpoint interval in cycles")
		clbKB        = flag.Int("clb", 512, "checkpoint log buffer size per node (KB)")
		dropAt       = flag.Uint64("drop-at", 0, "drop one coherence message at this cycle (0 = none)")
		dropEvery    = flag.Uint64("drop-every", 0, "drop one message per period (cycles, 0 = none)")
		killNode     = flag.Int("kill-node", -1, "node whose EW half-switch dies (-1 = none)")
		killAt       = flag.Uint64("kill-at", 1_000_000, "cycle at which the half-switch dies")
	)
	flag.Parse()

	// -scenario and the flag-built run are exclusive descriptions: a
	// run flag silently overridden by the file (or vice versa) would be
	// a trap, so the combination is rejected outright.
	if *scenarioFile != "" {
		if set := runFlagsSet(); len(set) > 0 {
			fmt.Fprintf(os.Stderr, "snsim: -scenario is exclusive with %s; describe the run in the scenario file\n",
				strings.Join(set, ", "))
			os.Exit(1)
		}
	} else if *short {
		fmt.Fprintln(os.Stderr, "snsim: -short requires -scenario")
		os.Exit(1)
	}

	sc, err := buildScenario(*scenarioFile, *workloadName, *protocol, *unprotected,
		*cycles, *seed, *interval, *clbKB, *dropAt, *dropEvery, *killNode, *killAt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snsim:", err)
		os.Exit(1)
	}
	if *short {
		sc.ScaleTo(shortBudgetCycles)
	}

	sys, err := sc.System()
	if err != nil {
		fmt.Fprintln(os.Stderr, "snsim:", err)
		os.Exit(1)
	}
	if *verbose {
		sys.Observe(eventLogger())
	}
	sys.Start()
	sys.Run(sc.TotalCycles())
	res := sys.Result()
	fmt.Print(sys.Summary())

	if sc.Expect != nil {
		if err := sc.Check(res); err != nil {
			fmt.Fprintln(os.Stderr, "snsim: scenario expectation failed:", err)
			os.Exit(1)
		}
		fmt.Println("scenario expectations met")
		return
	}
	if res.Crashed {
		os.Exit(2)
	}
}

// runFlagsSet reports the explicitly-set flags that describe the run
// itself and therefore conflict with -scenario.
func runFlagsSet() []string {
	runFlags := map[string]bool{
		"workload": true, "protocol": true, "unprotected": true,
		"cycles": true, "seed": true, "interval": true, "clb": true,
		"drop-at": true, "drop-every": true, "kill-node": true, "kill-at": true,
	}
	var set []string
	flag.Visit(func(f *flag.Flag) {
		if runFlags[f.Name] {
			set = append(set, "-"+f.Name)
		}
	})
	return set
}

// buildScenario loads the scenario file, or assembles the equivalent
// scenario from the legacy flags — both paths run through the same
// declarative description, so flag runs and file runs cannot drift.
func buildScenario(path, workload, protocol string, unprotected bool,
	cycles, seed, interval uint64, clbKB int,
	dropAt, dropEvery uint64, killNode int, killAt uint64) (*safetynet.Scenario, error) {
	if path != "" {
		return safetynet.LoadScenario(path)
	}
	protected := !unprotected
	clbBytes := clbKB << 10
	sc := &safetynet.Scenario{
		Workload:      workload,
		MeasureCycles: cycles,
		Overrides: &safetynet.ScenarioOverrides{
			Protocol:                 &protocol,
			SafetyNetEnabled:         &protected,
			Seed:                     &seed,
			CheckpointIntervalCycles: &interval,
			CLBBytes:                 &clbBytes,
		},
	}
	if dropAt > 0 {
		sc.Faults = append(sc.Faults, safetynet.DropOnce(dropAt))
	}
	if dropEvery > 0 {
		sc.Faults = append(sc.Faults, safetynet.DropEvery(dropEvery, dropEvery))
	}
	if killNode >= 0 {
		sc.Faults = append(sc.Faults, safetynet.KillEWSwitch(killNode, killAt))
	}
	return sc, nil
}

// eventLogger prints run events with their simulation timestamps.
func eventLogger() *safetynet.RunObserver {
	return &safetynet.RunObserver{
		CheckpointAdvanced: func(cycle uint64, ckpt uint32) {
			fmt.Printf("[%10d] recovery point -> checkpoint %d\n", cycle, ckpt)
		},
		RecoveryStarted: func(cycle uint64, cause string) {
			fmt.Printf("[%10d] recovery started: %s\n", cycle, cause)
		},
		RecoveryCompleted: func(cycle uint64, ckpt uint32, latency uint64) {
			fmt.Printf("[%10d] recovery complete: back to checkpoint %d after %d cycles\n",
				cycle, ckpt, latency)
		},
		FaultFired: func(cycle uint64, kind string) {
			fmt.Printf("[%10d] fault fired: %s\n", cycle, kind)
		},
		Crashed: func(cycle uint64, cause string) {
			fmt.Printf("[%10d] CRASH: %s\n", cycle, cause)
		},
	}
}
