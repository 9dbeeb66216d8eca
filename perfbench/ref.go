package main

import (
	"context"
	"fmt"
	"time"

	refbackend "safetynet/perfbench/refsim/backend"
	refrunner "safetynet/perfbench/refsim/runner"
	refscenario "safetynet/perfbench/refsim/scenario"
	refsim "safetynet/perfbench/refsim/sim"
	refworkload "safetynet/perfbench/refsim/workload"
)

// The reference simulator is refsim/: a frozen copy of the simulator's
// packages as they were when this benchmark was defined, with only their
// import paths changed. The end-to-end speed metric times every part of
// the program's work next to the same part on the reference, so whatever
// the host is doing at that moment slows both alike and cancels in their
// ratio (README.md, "Host time"). The reference reads the same scenario
// documents through its own copy of the scenario package, so it depends
// on the program only through that file format.

// refSetup builds and starts the reference backend for a scenario
// document, the same steps setupSingle takes on the program.
func refSetup(input []byte) (refbackend.Backend, refsim.Time, error) {
	sc, err := refscenario.Parse(input)
	if err != nil {
		return nil, 0, fmt.Errorf("reference: parse input: %w", err)
	}
	p, err := sc.Params()
	if err != nil {
		return nil, 0, fmt.Errorf("reference: %w", err)
	}
	prof, err := refworkload.ByName(sc.Workload)
	if err != nil {
		return nil, 0, fmt.Errorf("reference: %w", err)
	}
	be, err := refrunner.NewBackend(p, prof)
	if err != nil {
		return nil, 0, fmt.Errorf("reference: build backend: %w", err)
	}
	if err := sc.Faults.Arm(be.FaultTarget()); err != nil {
		return nil, 0, fmt.Errorf("reference: arm fault plan: %w", err)
	}
	be.Start()
	return be, refsim.Time(sc.TotalCycles()), nil
}

// refRunConfig is the reference's runner description of one campaign run,
// assembled from the run's scenario document the way
// campaign.RunConfigs assembles the program's.
func refRunConfig(doc []byte) (refrunner.RunConfig, error) {
	sc, err := refscenario.Parse(doc)
	if err != nil {
		return refrunner.RunConfig{}, fmt.Errorf("reference: parse run: %w", err)
	}
	p, err := sc.Params()
	if err != nil {
		return refrunner.RunConfig{}, fmt.Errorf("reference: %w", err)
	}
	return refrunner.RunConfig{Params: p, Workload: sc.Workload,
		Warmup: refsim.Time(sc.WarmupCycles), Measure: refsim.Time(sc.MeasureCycles), Fault: sc.Faults}, nil
}

// refRun runs one campaign run on the reference and returns its host time.
func refRun(rc refrunner.RunConfig) (time.Duration, error) {
	t := time.Now()
	res, err := refrunner.RunCtx(context.Background(), rc)
	d := time.Since(t)
	if err == nil && res.Crashed {
		err = fmt.Errorf("reference run crashed: %s", res.CrashCause)
	}
	return d, err
}
