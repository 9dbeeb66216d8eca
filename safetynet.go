// Package safetynet is a full-system reproduction of "SafetyNet: Improving
// the Availability of Shared Memory Multiprocessors with Global
// Checkpoint/Recovery" (Sorin, Martin, Hill, Wood — ISCA 2002).
//
// It simulates a 16-way shared-memory multiprocessor — blocking
// processors, two-level caches, a MOSI directory protocol, and a 2D-torus
// interconnect of half-switches — and implements SafetyNet on top:
// Checkpoint Log Buffers, checkpoint coordination in logical time,
// pipelined background validation, and global recovery/restart. The two
// running-example faults of the paper (a dropped coherence message and a
// killed half-switch) can be injected into any run; the unprotected
// baseline crashes where the protected system takes a sub-millisecond
// recovery.
//
// Two coherence backends share one harness (paper footnote 1, §2.3):
// Config.Protocol selects the evaluated directory/torus machine
// (ProtocolDirectory, the default) or the broadcast snooping system on a
// totally ordered bus (ProtocolSnoop), where logical time is simply the
// total snoop order. Experiments, fault plans, and CLI flags work on
// both; events a backend cannot express (a half-switch kill on the bus)
// are rejected at arm time with ErrFaultUnsupported.
//
// Quick start:
//
//	cfg := safetynet.DefaultConfig()
//	sys, err := safetynet.New(cfg, "oltp")
//	if err != nil { ... }
//	sys.Start()
//	sys.Run(2_000_000)
//	fmt.Println(sys.Summary())
//
// Runs are also first-class data: a Scenario bundles workload,
// configuration overrides, warmup/measurement phases, and a typed fault
// plan into one JSON-round-trippable value (LoadScenario, Scenario.Run),
// and a backend-neutral RunObserver hooks checkpoint advances,
// recoveries, fault firings, and crashes without white-box access.
//
// The experiment harness regenerating every table and figure of the
// paper's evaluation is a fixed catalog: Experiments() lists it and
// RunExperiment runs one entry, optionally fanning its independent
// simulations across a worker pool, and returns a structured Report that
// renders as text, flattens to a CSV table and marshals to JSON. Every
// experiment is a grid of runs plus one reduce that builds its Report;
// cmd/snbench drives the catalog. New sweeps are campaigns
// (LoadCampaign), run by cmd/sncampaign and cmd/snserved.
package safetynet

import (
	"fmt"
	"strings"

	"safetynet/internal/backend"
	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/harness"
	"safetynet/internal/runner"
	"safetynet/internal/sim"
	"safetynet/internal/topology"
	"safetynet/internal/workload"
)

// Config holds every parameter of the simulated target system; see
// DefaultConfig for the paper's Table 2 values.
type Config = config.Params

// Protocol backends selectable through Config.Protocol: the paper's
// evaluated MOSI directory over a 2D torus, and footnote 1's broadcast
// snooping variant on a totally ordered bus.
const (
	ProtocolDirectory = config.ProtocolDirectory
	ProtocolSnoop     = config.ProtocolSnoop
)

// Protocols lists the available coherence-protocol backends.
func Protocols() []string { return config.Protocols() }

// DefaultConfig returns the paper's target system with SafetyNet enabled.
func DefaultConfig() Config { return config.Default() }

// UnprotectedConfig returns the baseline system without SafetyNet.
func UnprotectedConfig() Config { return config.Unprotected() }

// SnoopConfig returns the default configuration aimed at the broadcast
// snooping backend (always SafetyNet-protected; the snoop system is
// built from these same parameters, its checkpoint interval counted in
// bus slots).
func SnoopConfig() Config {
	p := config.Default()
	p.Protocol = config.ProtocolSnoop
	return p
}

// Workloads lists the available workload presets (the paper's five
// evaluation workloads plus a protocol stress profile).
func Workloads() []string { return workload.Names() }

// PaperWorkloads lists the five evaluation workloads in Figure 5 order.
func PaperWorkloads() []string { return workload.PaperWorkloads() }

// System is one simulated machine running a workload, on whichever
// coherence backend the configuration selects. The backend is sealed:
// instrumentation goes through Observe and the protocol-neutral
// Result/Counters surface, never through white-box accessors.
type System struct {
	be       backend.Backend
	cfg      Config
	workload string
}

// New builds a system running the named workload preset on every
// processor. Config.Protocol selects the backend: the MOSI directory
// machine (default) or the broadcast snooping system. Dependent
// SafetyNet parameters are normalized first (config.Params.Normalize),
// so front ends adjusting the checkpoint interval alone cannot assemble
// an inconsistent signoff or watchdog.
func New(cfg Config, workloadName string) (*System, error) {
	cfg = cfg.Normalize()
	prof, err := workload.ByName(workloadName)
	if err != nil {
		return nil, err
	}
	be, err := runner.NewBackend(cfg, prof)
	if err != nil {
		return nil, err
	}
	return &System{be: be, cfg: cfg, workload: workloadName}, nil
}

// Start launches the processors and, when SafetyNet is enabled, the
// checkpoint clock and service controllers.
func (s *System) Start() { s.be.Start() }

// Run advances the simulation to the given absolute cycle (1 cycle = 1 ns
// at the modeled 1 GHz) and returns the reached time. A crash of the
// unprotected baseline stops the run early.
func (s *System) Run(untilCycle uint64) uint64 {
	return uint64(s.be.Run(sim.Time(untilCycle)))
}

// RunFor advances the simulation by the given number of cycles.
func (s *System) RunFor(cycles uint64) uint64 {
	return uint64(s.be.Run(s.be.Now() + sim.Time(cycles)))
}

// Now returns the current simulation time in cycles.
func (s *System) Now() uint64 { return uint64(s.be.Now()) }

// Quiesce pauses the processors and drains outstanding transactions
// within the budget, reporting success. CheckCoherence is only
// meaningful at quiescence.
func (s *System) Quiesce(budgetCycles uint64) bool {
	return s.be.Quiesce(sim.Time(budgetCycles))
}

// Resume restarts the processors after a Quiesce.
func (s *System) Resume() { s.be.Resume() }

// CheckCoherence verifies the protocol invariants at quiescence and
// returns the violations (empty means coherent).
func (s *System) CheckCoherence() []string { return s.be.CheckCoherence() }

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

// FaultEvent is one typed fault of a composable plan; build events with
// DropOnce, DropEvery, KillEWSwitch, KillNSSwitch, CorruptOnce,
// MisrouteOnce and DuplicateOnce, and arm any combination with
// System.Inject — a single run can layer faults (e.g. periodic message
// drops plus a half-switch kill).
type FaultEvent = fault.Event

// FaultPlan is an ordered list of fault events armed together on one
// run; the zero value is fault-free.
type FaultPlan = fault.Plan

// DropOnce is a one-shot transient interconnect fault: the first
// data-bearing coherence message sent at or after the given cycle is lost
// (paper Table 1, "Dropped Message").
func DropOnce(atCycle uint64) FaultEvent {
	return fault.DropOnce{At: sim.Time(atCycle)}
}

// DropEvery is the periodic transient fault of Experiment 2: one message
// lost per period (the paper drops one per 100M cycles — ten per second).
func DropEvery(startCycle, periodCycles uint64) FaultEvent {
	return fault.DropEvery{Start: sim.Time(startCycle), Period: sim.Time(periodCycles)}
}

// KillEWSwitch is the hard fault of Experiment 3: the node's east-west
// half-switch dies at the given cycle, losing its buffered messages;
// routing reconfigures around it (paper Table 1, "Failed Switch").
func KillEWSwitch(node int, atCycle uint64) FaultEvent {
	return fault.KillSwitch{Node: node, Axis: topology.EW, At: sim.Time(atCycle)}
}

// KillNSSwitch kills the node's north-south half-switch instead.
func KillNSSwitch(node int, atCycle uint64) FaultEvent {
	return fault.KillSwitch{Node: node, Axis: topology.NS, At: sim.Time(atCycle)}
}

// CorruptOnce damages one data-bearing coherence message in flight; the
// endpoint's error-detecting code discovers it (the paper's CRC example).
func CorruptOnce(atCycle uint64) FaultEvent {
	return fault.CorruptOnce{At: sim.Time(atCycle)}
}

// MisrouteOnce delivers one data-bearing coherence message to the wrong
// node (paper §5.1).
func MisrouteOnce(atCycle uint64) FaultEvent {
	return fault.MisrouteOnce{At: sim.Time(atCycle)}
}

// DuplicateOnce delivers one coherence message twice (paper §5.1).
func DuplicateOnce(atCycle uint64) FaultEvent {
	return fault.DuplicateOnce{At: sim.Time(atCycle)}
}

// ErrFaultUnsupported marks a fault event the selected backend cannot
// express (e.g. a half-switch kill on the snooping bus); Inject wraps it,
// so callers test with errors.Is.
var ErrFaultUnsupported = fault.ErrUnsupported

// Inject arms the given fault events on this system, in order. Call it
// before Start; an event with impossible parameters — or one the selected
// backend cannot express (ErrFaultUnsupported) — reports an error and
// arms nothing further.
func (s *System) Inject(events ...FaultEvent) error {
	return fault.Plan(events).Arm(s.be.FaultTarget())
}

// Result summarizes a run.
type Result struct {
	Workload string
	// Protocol is the coherence backend the run used.
	Protocol  string
	Protected bool
	Cycles    uint64
	// Instrs is durable forward progress: instructions retired and not
	// rolled back by recoveries.
	Instrs uint64
	// IPC is aggregate instructions per cycle across all processors.
	IPC float64

	Crashed    bool
	CrashCause string

	Recoveries       int
	RecoveryPoint    uint32
	InstrsRolledBack uint64

	StoresLogged    uint64
	TransfersLogged uint64
	MessagesSent    uint64
	MessagesDropped uint64
}

// Result returns the current run summary.
func (s *System) Result() Result {
	c := s.be.Counters()
	crashed, cause := s.be.CrashInfo()
	r := Result{
		Workload:         s.workload,
		Protocol:         s.cfg.ProtocolName(),
		Protected:        s.cfg.SafetyNetEnabled,
		Cycles:           uint64(s.be.Now()),
		Instrs:           c.Instrs,
		Crashed:          crashed,
		CrashCause:       cause,
		RecoveryPoint:    uint32(s.be.RPCN()),
		Recoveries:       c.Recoveries,
		InstrsRolledBack: c.InstrsRolledBack,
		StoresLogged:     c.StoresLogged,
		TransfersLogged:  c.TransfersLogged,
		MessagesSent:     c.MessagesSent,
		MessagesDropped:  c.MessagesDropped,
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Instrs) / float64(r.Cycles)
	}
	return r
}

// Summary renders the run summary as text.
func (s *System) Summary() string {
	r := s.Result()
	var b strings.Builder
	mode := "SafetyNet"
	if !r.Protected {
		mode = "unprotected"
	}
	fmt.Fprintf(&b, "workload %s on %d-node %s %s system\n",
		r.Workload, s.cfg.NumNodes, r.Protocol, mode)
	fmt.Fprintf(&b, "  cycles:            %d (%.3f ms at 1 GHz)\n", r.Cycles, float64(r.Cycles)/1e6)
	fmt.Fprintf(&b, "  instructions:      %d (aggregate IPC %.3f)\n", r.Instrs, r.IPC)
	if r.Crashed {
		fmt.Fprintf(&b, "  CRASHED: %s\n", r.CrashCause)
	}
	if r.Protected {
		fmt.Fprintf(&b, "  recovery point:    checkpoint %d\n", r.RecoveryPoint)
		fmt.Fprintf(&b, "  recoveries:        %d (rolled back %d instructions)\n", r.Recoveries, r.InstrsRolledBack)
		fmt.Fprintf(&b, "  CLB log appends:   %d store overwrites, %d ownership transfers\n",
			r.StoresLogged, r.TransfersLogged)
	}
	fmt.Fprintf(&b, "  network:           %d messages sent, %d dropped\n", r.MessagesSent, r.MessagesDropped)
	return b.String()
}

// RunObserver receives backend-neutral run events — recovery-point
// advances, recovery start/completion, armed faults firing, and crashes
// of the unprotected baseline. Every callback is optional (nil fields are
// skipped), the same observer works on both backends, and callbacks run
// synchronously inside the simulation, so common instrumentation no
// longer needs the white-box Machine()/Snoop() accessors.
type RunObserver = backend.Observer

// Observe registers a run observer. Call before Start; multiple
// observers fire in registration order.
func (s *System) Observe(o *RunObserver) { s.be.Observe(o) }

// Protocol reports which coherence backend this system runs
// ("directory" or "snoop").
func (s *System) Protocol() string { return s.cfg.ProtocolName() }

// ---------------------------------------------------------------------
// Experiment harness (the catalog of tables and figures)
// ---------------------------------------------------------------------

// ExperimentOptions sizes an experiment run; see DefaultOptions and
// QuickOptions. It is the one sizing surface shared by experiments,
// campaigns, and explorations (runner.Options): Workers is the
// worker-pool width (0 = one per CPU) everywhere.
type ExperimentOptions = runner.Options

// DefaultOptions is the standard experiment sizing (three perturbed runs).
func DefaultOptions() ExperimentOptions { return runner.DefaultOptions() }

// QuickOptions trades precision for speed.
func QuickOptions() ExperimentOptions { return runner.QuickOptions() }

// Report is the structured result of one experiment: labeled design
// points with mean ± stddev values and crash markers. Render prints the
// paper-style text table, Table returns the flat CSV table, and
// encoding/json marshals it losslessly.
type Report = harness.Report

// Row is one report row: label cells followed by numeric cells.
type Row = harness.Row

// Value is one numeric report cell: a mean with an error bar, or a
// crash marker.
type Value = harness.Value

// ExperimentInfo describes one experiment of the catalog.
type ExperimentInfo struct {
	Name        string
	Title       string
	Description string
}

// Experiments lists the experiment catalog in paper order.
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range harness.Experiments() {
		out = append(out, ExperimentInfo{Name: e.Name, Title: e.Title, Description: e.Description})
	}
	return out
}

// RunExperiment runs one experiment of the catalog against the given
// configuration. Options.Workers sizes the worker pool the experiment's
// independent simulations fan across without changing any result.
// Unknown names report the valid ones.
func RunExperiment(name string, cfg Config, o ExperimentOptions) (*Report, error) {
	return harness.RunExperiment(name, cfg, o)
}

// Cycles is the simulation-time unit (1 cycle = 1 ns at the modeled
// 1 GHz); experiment options and run windows are expressed in it.
type Cycles = sim.Time

// ExperimentRunResult carries everything a run measured; campaign and
// exploration progress callbacks receive one per completed run.
type ExperimentRunResult = runner.RunResult
