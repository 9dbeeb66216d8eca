// Package checker is the randomized protocol and recovery tester, in the
// spirit of the random tester the paper used to exercise its protocol
// implementation "for billions of cycles ... injecting faults and
// stressing corner cases by exploiting false sharing and reordering
// messages" (§4.1, after Wood et al.). Each run builds a small-cache,
// short-interval machine under the false-sharing-heavy stress workload,
// injects randomized faults, and verifies the MOSI and SafetyNet
// invariants at every recovery and at the end of the run.
package checker

import (
	"fmt"

	"safetynet/internal/backend"
	"safetynet/internal/cache"
	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/machine"
	"safetynet/internal/msg"
	"safetynet/internal/sim"
	"safetynet/internal/snoop"
	"safetynet/internal/topology"
	"safetynet/internal/workload"
)

// Options sizes a checker campaign.
type Options struct {
	// Seeds is the number of randomized runs.
	Seeds int
	// CyclesPerRun is each run's length.
	CyclesPerRun uint64
	// Protected selects SafetyNet (true) or the unprotected baseline
	// (false; fault injection is then disabled since any loss crashes).
	Protected bool
}

// DefaultOptions is a CI-sized campaign.
func DefaultOptions() Options {
	return Options{Seeds: 10, CyclesPerRun: 400_000, Protected: true}
}

// Violation is one invariant failure, structured so CI logs answer
// "which seed, when, what broke" without rerunning: the backend and
// seed reproduce the run, the cycle localizes the failure in it, and
// the invariant names the broken property.
type Violation struct {
	// Backend is the checked system ("directory" or "snoop").
	Backend string
	// Seed reproduces the failing run.
	Seed uint64
	// Cycle is the simulation time at which the violation was observed
	// (0 when the run never started, e.g. a fault plan that failed to
	// arm).
	Cycle uint64
	// Invariant is the broken property's stable short name (e.g.
	// "post-recovery-coherence", "quiesce", "forward-progress").
	Invariant string
	// Detail is the human-readable specifics.
	Detail string
}

// String renders the violation as one log line.
func (v Violation) String() string {
	return fmt.Sprintf("%s seed %d @ cycle %d: %s: %s",
		v.Backend, v.Seed, v.Cycle, v.Invariant, v.Detail)
}

// Report is a campaign's outcome.
type Report struct {
	Runs       int
	Recoveries int
	Faults     int
	Violations []Violation
}

// OK reports whether the campaign found no violations.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// String summarizes the report.
func (r *Report) String() string {
	status := "PASS"
	if !r.OK() {
		status = fmt.Sprintf("FAIL (%d violations)", len(r.Violations))
	}
	return fmt.Sprintf("checker: %d runs, %d injected faults, %d recoveries: %s",
		r.Runs, r.Faults, r.Recoveries, status)
}

// stressConfig shrinks the machine so short runs exercise evictions,
// writebacks, checkpoint churn, and CLB pressure.
func stressConfig(protected bool, seed uint64) config.Params {
	p := config.Default()
	p.SafetyNetEnabled = protected
	p.L1Bytes = 8 << 10
	p.L2Bytes = 64 << 10
	p.CheckpointIntervalCycles = 10_000
	p.ValidationSignoffCycles = 10_000
	p.CLBBytes = 96 << 10
	p.RequestTimeoutCycles = 15_000
	p.ValidationWatchdogCycles = 80_000
	p.CheckpointClockSkewCycles = 8 // below min message latency
	p.LatencyPerturbation = 4
	p.Seed = seed
	return p
}

// Check runs the campaign.
func Check(o Options) *Report {
	rep := &Report{}
	for seed := uint64(1); seed <= uint64(o.Seeds); seed++ {
		rep.Runs++
		rep.run(o, seed)
	}
	return rep
}

func (rep *Report) violate(backend string, seed, cycle uint64, invariant, format string, a ...any) {
	rep.Violations = append(rep.Violations, Violation{
		Backend:   backend,
		Seed:      seed,
		Cycle:     cycle,
		Invariant: invariant,
		Detail:    fmt.Sprintf(format, a...),
	})
}

// Backend names for violation records.
const (
	backendDirectory = "directory"
	backendSnoop     = "snoop"
)

// watchRecoveredCNs checks the post-recovery-cn invariant on b's nodes
// at each recovery's completion, before any processor restarts: no
// valid L2 line may carry a CN above the recovery point. Recovery finds
// the lines to discard through each L2's CN journal; this scan of every
// frame is the oracle the journal replaced.
func (rep *Report) watchRecoveredCNs(b backend.Backend, nodes int, name string, seed uint64) {
	b.Observe(&backend.Observer{RecoveryCompleted: func(cycle uint64, ckpt uint32, _ uint64) {
		rpcn := msg.CN(ckpt)
		for i := 0; i < nodes; i++ {
			var bad []cache.Line
			b.L2(i).ForEachValid(func(l *cache.Line) {
				if l.CN() > rpcn {
					bad = append(bad, *l)
				}
			})
			if len(bad) != 0 {
				rep.violate(name, seed, cycle, "post-recovery-cn",
					"node %d keeps %d lines above recovery point %d, first block %#x at CN %d",
					i, len(bad), rpcn, bad[0].Addr, bad[0].CN())
			}
		}
	}})
}

func (rep *Report) run(o Options, seed uint64) {
	p := stressConfig(o.Protected, seed)
	if !o.Protected {
		p.CheckpointClockSkewCycles = 0
	}
	m := machine.New(p, workload.Stress())
	rep.watchRecoveredCNs(m, p.NumNodes, backendDirectory, seed)
	r := sim.NewRand(seed * 77)

	// Randomized fault plan (protected runs only), armed through the same
	// composable plans the harness and facade use.
	if o.Protected {
		var plan fault.Plan
		horizon := o.CyclesPerRun
		at := sim.Time(20_000 + r.Uint64n(horizon/2))
		switch r.Intn(7) {
		case 1:
			plan = fault.Plan{fault.DropOnce{At: at}}
		case 2:
			plan = fault.Plan{fault.DropEvery{Start: 20_000, Period: sim.Time(horizon / 4)}}
		case 3:
			victim := r.Intn(2 * p.NumNodes)
			axis := topology.EW
			if victim >= p.NumNodes {
				victim -= p.NumNodes
				axis = topology.NS
			}
			plan = fault.Plan{fault.KillSwitch{Node: victim, Axis: axis, At: at}}
		case 4:
			plan = fault.Plan{fault.CorruptOnce{At: at}}
		case 5:
			plan = fault.Plan{fault.MisrouteOnce{At: at}}
		case 6:
			plan = fault.Plan{fault.DuplicateOnce{At: at}}
		}
		if err := plan.Arm(m.FaultTarget()); err != nil {
			rep.violate(backendDirectory, seed, 0, "fault-arm", "fault plan failed to arm: %v", err)
			return
		}
		rep.Faults += len(plan)
	}

	// Verify coherence at the instant each recovery completes (the
	// restored state must already be consistent, before re-execution).
	recoveredOK := true
	m.AfterRecovery = func() {
		if errs := m.CheckCoherence(); len(errs) != 0 {
			recoveredOK = false
			rep.violate(backendDirectory, seed, uint64(m.Now()), "post-recovery-coherence", "%s", errs[0])
		}
	}

	m.Start()
	m.Run(sim.Time(o.CyclesPerRun))

	if o.Protected && m.Crashed {
		rep.violate(backendDirectory, seed, uint64(m.Now()), "protected-crash", "protected system crashed: %s", m.CrashCause)
		return
	}
	if svc := m.ActiveService(); svc != nil {
		rep.Recoveries += len(svc.Recoveries())
	}
	if !recoveredOK {
		return
	}
	if !m.Quiesce(sim.Time(o.CyclesPerRun)) {
		// A quiesce failure after a hard fault can mean the system is
		// still recovering; allow extra budget before declaring it hung.
		if !m.Quiesce(sim.Time(o.CyclesPerRun)) {
			rep.violate(backendDirectory, seed, uint64(m.Now()), "quiesce", "system failed to quiesce")
			return
		}
	}
	if errs := m.CheckCoherence(); len(errs) != 0 {
		rep.violate(backendDirectory, seed, uint64(m.Now()), "final-coherence", "final-state violation (%d total): %s", len(errs), errs[0])
	}
	if m.TotalInstrs() == 0 {
		rep.violate(backendDirectory, seed, uint64(m.Now()), "forward-progress", "no forward progress")
	}
}

// CheckSnoop runs the randomized campaign against the broadcast snooping
// variant: randomized data-network faults (drops, corruptions,
// duplications) armed through composable fault plans, plus the same
// invariant checks.
func CheckSnoop(o Options) *Report {
	rep := &Report{}
	for seed := uint64(1); seed <= uint64(o.Seeds); seed++ {
		rep.Runs++
		rep.runSnoop(o, seed)
	}
	return rep
}

func (rep *Report) runSnoop(o Options, seed uint64) {
	p := config.SmallSnoop()
	p.Seed = seed
	s := snoop.New(p, workload.Stress())
	rep.watchRecoveredCNs(s, p.NumNodes, backendSnoop, seed)
	r := sim.NewRand(seed * 131)

	var plan fault.Plan
	for i, n := 0, r.Intn(3); i < n; i++ {
		at := sim.Time(20_000 + r.Uint64n(o.CyclesPerRun/2))
		switch r.Intn(3) {
		case 0:
			plan = append(plan, fault.DropOnce{At: at})
		case 1:
			plan = append(plan, fault.CorruptOnce{At: at})
		case 2:
			plan = append(plan, fault.DuplicateOnce{At: at})
		}
	}
	if err := plan.Arm(s.FaultTarget()); err != nil {
		rep.violate(backendSnoop, seed, 0, "fault-arm", "fault plan failed to arm: %v", err)
		return
	}
	rep.Faults += len(plan)
	s.Start()
	s.Run(sim.Time(o.CyclesPerRun))
	rep.Recoveries += s.Recoveries
	if s.Dropped()+s.Corrupted() > 0 && s.Recoveries == 0 {
		rep.violate(backendSnoop, seed, uint64(s.Now()), "fault-recovery", "lost data response never recovered")
		return
	}
	if !s.Quiesce(sim.Time(o.CyclesPerRun)) {
		rep.violate(backendSnoop, seed, uint64(s.Now()), "quiesce", "failed to quiesce")
		return
	}
	if errs := s.CheckCoherence(); len(errs) != 0 {
		rep.violate(backendSnoop, seed, uint64(s.Now()), "final-coherence", "%s", errs[0])
	}
	if s.TotalInstrs() == 0 {
		rep.violate(backendSnoop, seed, uint64(s.Now()), "forward-progress", "no forward progress")
	}
}
