package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"safetynet/internal/backend"
	"safetynet/internal/config"
	"safetynet/internal/core"
	"safetynet/internal/machine"
	"safetynet/internal/runner"
	"safetynet/internal/scenario"
	"safetynet/internal/sim"
	"safetynet/internal/workload"
	refbackend "safetynet/perfbench/refsim/backend"
	refsim "safetynet/perfbench/refsim/sim"
)

// singleSpec describes a single-run workload: one SafetyNet-protected
// directory run at the paper's Table 2 configuration, with deviations.
type singleSpec struct {
	preset   string
	horizon  uint64 // simulated cycles per repetition
	interval uint64 // checkpoint interval; 0 keeps Table 2's 100k
	faults   string // JSON fault plan; "" is fault-free
}

var singles = map[string]singleSpec{
	"oltp-steady": {preset: "oltp", horizon: 4_000_000},
	"stress-recovery": {preset: "stress", horizon: 6_000_000, interval: 10_000,
		faults: `[{"kind":"drop-every","start":50000,"period":260000}]`},
}

// quickHorizon shrinks every workload for smoke tests; pinned statistics
// do not apply at it.
const quickHorizon = 200_000

// singleInput renders a single-run workload's input document, a scenario
// in the repository's JSON format, for one seed.
func singleInput(name string, spec singleSpec, seed uint64, quick bool) ([]byte, error) {
	h := spec.horizon
	if quick {
		h = quickHorizon
	}
	ov := map[string]any{"seed": seed}
	if spec.interval > 0 {
		ov["checkpoint_interval_cycles"] = spec.interval
	}
	doc := map[string]any{"name": name, "workload": spec.preset, "overrides": ov, "measure_cycles": h}
	if spec.faults != "" {
		doc["faults"] = json.RawMessage(spec.faults)
	}
	return json.Marshal(doc)
}

// simStats are the simulated statistics a run must reproduce exactly:
// a change that only speeds up the simulator leaves every one identical.
type simStats struct {
	Cycles          uint64
	Instrs          uint64
	RecoveryPoint   uint32
	Recoveries      int
	RolledBack      uint64
	StoresLogged    uint64
	TransfersLogged uint64
	MsgsSent        uint64
	MsgsDropped     uint64
}

// layerCounters are the layers' own statistics after a directory run,
// read through their public accessors.
type layerCounters struct {
	loads, l1Hits, l2Hits, misses uint64
	requests, retries, clbStall   uint64
	memRefs, backpressure         uint64
	events                        uint64
	sent, hops, dropped           uint64
	clbAppends, clbFull           uint64
	clbPeakBytes                  int
	validations, unrolled         uint64
	recoveryCycles                []float64
	strideNs                      int64
}

func (l *layerCounters) add(o *layerCounters) {
	l.loads += o.loads
	l.l1Hits += o.l1Hits
	l.l2Hits += o.l2Hits
	l.misses += o.misses
	l.requests += o.requests
	l.retries += o.retries
	l.clbStall += o.clbStall
	l.memRefs += o.memRefs
	l.backpressure += o.backpressure
	l.events += o.events
	l.sent += o.sent
	l.hops += o.hops
	l.dropped += o.dropped
	l.clbAppends += o.clbAppends
	l.clbFull += o.clbFull
	l.clbPeakBytes = max(l.clbPeakBytes, o.clbPeakBytes)
	l.validations += o.validations
	l.unrolled += o.unrolled
	l.recoveryCycles = append(l.recoveryCycles, o.recoveryCycles...)
	l.strideNs += o.strideNs
}

// readLayers reads the directory machine's per-layer statistics.
func readLayers(m *machine.Machine) *layerCounters {
	l := &layerCounters{events: m.Eng.Executed()}
	for _, n := range m.Nodes {
		cs := n.CC.Stats()
		l.loads += cs.Loads
		l.l1Hits += cs.L1Hits
		l.l2Hits += cs.L2Hits
		l.misses += cs.Misses
		l.requests += cs.RequestsIssued
		l.retries += cs.NacksReceived + cs.Retries + cs.Timeouts
		l.clbStall += cs.CLBStallCycles + n.Dir.Stats().CLBStallCycles
		ps := n.Proc.Stats()
		l.memRefs += ps.MemRefs
		l.backpressure += ps.BackpressureStalls
		for _, clb := range []*core.CLB{n.CC.CLB(), n.Dir.CLB()} {
			if clb == nil {
				continue
			}
			l.clbAppends += clb.Appends()
			l.clbFull += clb.FullRejections()
			l.clbPeakBytes = max(l.clbPeakBytes, clb.PeakBytes())
		}
		l.unrolled += uint64(n.RecoveredEntries)
	}
	ns := m.Net.Stats()
	l.sent, l.hops, l.dropped = ns.Sent, ns.HopsTotal, m.Net.DroppedTotal()
	if svc := m.ActiveService(); svc != nil {
		l.validations = svc.Validations()
		for _, r := range svc.Recoveries() {
			l.recoveryCycles = append(l.recoveryCycles, float64(r.Duration()))
		}
	}
	return l
}

// liveHeap returns the bytes still reachable after two forced
// collections; the second empties the sync.Pool victim caches the first
// leaves behind, so pooled messages do not count.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// repResult is one repetition of a single run.
type repResult struct {
	stats          simStats
	setup, run     time.Duration
	stepped        time.Duration // inside the program's Run calls
	refRun         time.Duration // inside the reference's Run calls
	alloc, mallocs uint64        // host allocation during setup and run
	heapLive       uint64        // liveHeap after the run, backend reachable
	failure        string        // why the run was wrong; "" when it was right
	layers         *layerCounters
}

// stride is how far one Run call advances the simulation; it matches
// runner's cancellation stride, so a traced run has one span per stride.
const stride = 1 << 16

// quiesceBudget bounds the post-run drain before the coherence check.
const quiesceBudget = 1_000_000

// setupSingle is the set-up the end-to-end setup_s metric times: parse
// the input, build the backend, arm the fault plan, and start it.
func setupSingle(input []byte, tr *tracer, parent int) (backend.Backend, sim.Time, error) {
	sp := tr.begin("parse", parent)
	sc, err := scenario.Parse(input)
	var p config.Params
	var prof workload.Profile
	if err == nil {
		p, err = sc.Params()
	}
	if err == nil {
		prof, err = workload.ByName(sc.Workload)
	}
	tr.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("parse input: %w", err)
	}
	sp = tr.begin("NewBackend", parent)
	be, err := runner.NewBackend(p, prof)
	tr.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("build backend: %w", err)
	}
	sp = tr.begin("Arm", parent)
	err = sc.Faults.Arm(be.FaultTarget())
	tr.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("arm fault plan: %w", err)
	}
	sp = tr.begin("Start", parent)
	be.Start()
	tr.end(sp)
	return be, sim.Time(sc.TotalCycles()), nil
}

// runSingle executes one repetition: set-up, the run in strides, the
// statistics reads, then (outside the timed window) quiesce and the
// coherence check. With a tracer it also reads the layers' counters.
// With a reference backend built from the same input, each stride is
// followed by the same stride on the reference, timed apart; the
// repetition's allocation figures then include the reference's.
func runSingle(input []byte, tr *tracer, parent int, ref refbackend.Backend) (repResult, error) {
	var out repResult
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	be, horizon, err := setupSingle(input, tr, parent)
	if err != nil {
		return out, err
	}
	t1 := time.Now()
	var strideNs int64
	// refStep runs the reference's copy of a stride on even strides after
	// the program's and on odd ones before it, so neither side always
	// finds the caches holding the other's data.
	refStep := func(k int, next sim.Time, after bool) {
		if ref != nil && (k%2 == 0) == after {
			ts := time.Now()
			ref.Run(refsim.Time(next))
			out.refRun += time.Since(ts)
		}
	}
	runSp := tr.begin("run", parent)
	for k, now := 0, be.Now(); now < horizon; k++ {
		next := min(now+stride, horizon)
		refStep(k, next, false)
		sp := tr.begin("Run", runSp)
		ts := time.Now()
		reached := be.Run(next)
		d := time.Since(ts)
		tr.end(sp)
		strideNs += d.Nanoseconds()
		refStep(k, next, true)
		if reached < next {
			break // an unprotected system crashed; CrashInfo reports it
		}
		now = reached
	}
	tr.end(runSp)
	t2 := time.Now()
	runtime.ReadMemStats(&m1)
	out.setup, out.run, out.stepped = t1.Sub(t0), t2.Sub(t1), time.Duration(strideNs)
	out.alloc, out.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs

	sp := tr.begin("Counters", parent)
	c := be.Counters()
	tr.end(sp)
	out.stats = simStats{
		Cycles: uint64(be.Now()), Instrs: c.Instrs, RecoveryPoint: uint32(be.RPCN()),
		Recoveries: c.Recoveries, RolledBack: c.InstrsRolledBack,
		StoresLogged: c.StoresLogged, TransfersLogged: c.TransfersLogged,
		MsgsSent: c.MessagesSent, MsgsDropped: c.MessagesDropped,
	}
	if m, ok := be.(*machine.Machine); ok && tr != nil {
		sp = tr.begin("Stats", parent)
		out.layers = readLayers(m)
		tr.end(sp)
		out.layers.strideNs = strideNs
	}
	out.heapLive = liveHeap()

	if crashed, cause := be.CrashInfo(); crashed {
		out.failure = "protected run crashed: " + cause
		return out, nil
	}
	sp = tr.begin("Quiesce", parent)
	ok := be.Quiesce(quiesceBudget) || be.Quiesce(quiesceBudget)
	tr.end(sp)
	if !ok {
		out.failure = "system failed to quiesce"
		return out, nil
	}
	sp = tr.begin("CheckCoherence", parent)
	viol := be.CheckCoherence()
	tr.end(sp)
	if len(viol) > 0 {
		out.failure = fmt.Sprintf("coherence violation (%d): %s", len(viol), viol[0])
	}
	return out, nil
}

// mcyclesPerS is the repetition's simulated Mcycles per host second of
// its Run strides.
func (r repResult) mcyclesPerS() float64 {
	return float64(r.stats.Cycles) / 1e6 / r.run.Seconds()
}

// judge returns why a repetition failed: its own failure, or statistics
// that differ from the expected ones (the pinned statistics at the
// default seed, otherwise the workload's first repetition).
func (r repResult) judge(want *simStats) string {
	if r.failure != "" {
		return r.failure
	}
	if want != nil && r.stats != *want {
		return fmt.Sprintf("simulated statistics %+v differ from %+v", r.stats, *want)
	}
	return ""
}
