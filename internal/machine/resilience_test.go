package machine

import (
	"testing"

	"safetynet/internal/config"
	"safetynet/internal/msg"
	"safetynet/internal/workload"
)

// TestSkewedCheckpointClock runs the full stack with a nonzero loosely
// synchronized clock skew (below the minimum message latency, paper
// §3.2 fn. 2) and verifies coherence, validation progress, and recovery.
func TestSkewedCheckpointClock(t *testing.T) {
	p := smallConfig(true)
	p.CheckpointClockSkewCycles = 9 // < one hop + ctrl serialization
	p.Seed = 11
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	m := New(p, workload.Stress())
	m.Net.InjectDropOnce(80_000)
	m.Start()
	m.Run(500_000)
	if m.Crashed {
		t.Fatal("crashed under skewed clock")
	}
	if m.RPCN() < 5 {
		t.Fatalf("validation stalled under skew: RPCN=%d", m.RPCN())
	}
	if len(m.ActiveService().Recoveries()) == 0 {
		t.Fatal("fault not recovered under skew")
	}
	if !m.Quiesce(300_000) {
		t.Fatal("failed to quiesce")
	}
	if errs := m.CheckCoherence(); len(errs) != 0 {
		t.Fatalf("violations under skewed clock: %v", errs[:min(len(errs), 5)])
	}
}

// TestExcessiveSkewRejected: skew at or above the minimum message latency
// breaks the logical time base and must be rejected up front.
func TestExcessiveSkewRejected(t *testing.T) {
	p := smallConfig(true)
	p.CheckpointClockSkewCycles = 50_000
	if err := p.Validate(); err == nil {
		t.Fatal("excessive skew accepted")
	}
}

// TestServiceControllerFailover kills the primary service controller
// mid-run; the standby takes over with mirrored state and both validation
// and recovery keep working (paper §5.3: redundant controllers remove the
// single point of failure).
func TestServiceControllerFailover(t *testing.T) {
	m := stressMachine(t, true, 12)
	m.Start()
	m.Run(100_000)
	rpcnBefore := m.RPCN()

	m.Svc[0].Deactivate()
	m.Svc[1].Activate()

	m.Run(300_000)
	if got := m.RPCN(); got <= rpcnBefore {
		t.Fatalf("standby did not advance validation: %d -> %d", rpcnBefore, got)
	}
	// Recovery still works through the standby.
	m.Net.InjectDropOnce(m.Eng.Now() + 10_000)
	m.Run(m.Eng.Now() + 300_000)
	if m.Crashed {
		t.Fatal("crashed after failover")
	}
	if len(m.Svc[1].Recoveries()) == 0 {
		t.Fatal("standby did not coordinate the recovery")
	}
}

// TestRepeatedRecoveries hammers the system with frequent transient
// faults; it must keep making forward progress and stay coherent.
func TestRepeatedRecoveries(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := stressMachine(t, true, 13)
	disarm := m.Net.InjectDropEvery(50_000, 120_000)
	m.Start()
	m.Run(1_500_000)
	if m.Crashed {
		t.Fatal("crashed under repeated faults")
	}
	recs := len(m.ActiveService().Recoveries())
	if recs < 3 {
		t.Fatalf("expected several recoveries, got %d", recs)
	}
	if m.TotalInstrs() == 0 {
		t.Fatal("no durable forward progress")
	}
	// Stop injecting; a timeout from the last drop may still trigger one
	// more recovery (whose restart resumes the processors), so retry the
	// freeze until it sticks.
	disarm()
	settled := false
	for attempt := 0; attempt < 6 && !settled; attempt++ {
		for i := 0; i < 500 && m.Recovering(); i++ {
			m.Run(m.Eng.Now() + 1_000)
		}
		settled = m.Quiesce(200_000)
	}
	if !settled {
		t.Fatal("failed to quiesce")
	}
	if errs := m.CheckCoherence(); len(errs) != 0 {
		t.Fatalf("violations after %d recoveries: %v", recs, errs[:min(len(errs), 5)])
	}
}

// TestCLBBackpressureDoesNotDeadlock shrinks the CLB far below the
// steady-state footprint: the system may throttle, nack and even take
// watchdog recoveries (the paper's §3.3 backstop) but must neither crash
// nor wedge.
func TestCLBBackpressureDoesNotDeadlock(t *testing.T) {
	p := smallConfig(true)
	p.CLBBytes = 72 * 64 // 32 entries per side
	p.Seed = 14
	m := New(p, workload.Stress())
	m.Start()
	m.Run(800_000)
	if m.Crashed {
		t.Fatal("crashed under CLB backpressure")
	}
	if m.TotalInstrs() == 0 {
		t.Fatal("no forward progress under CLB backpressure")
	}
	var stalls, nacks uint64
	for _, n := range m.Nodes {
		stalls += n.CC.Stats().CLBStallCycles
		nacks += n.Dir.Stats().Nacks
	}
	if stalls == 0 && nacks == 0 {
		t.Fatal("tiny CLB exerted no backpressure (suspicious)")
	}
}

// TestCLBRefusalsCounted runs Table 2 OLTP with a 32 KB CLB, small
// enough that the caches throttle. A cache stalls only when its CLB has
// no room for an entry the action needs, so the cache-side CLBs must
// count refusals whenever the caches stalled.
func TestCLBRefusalsCounted(t *testing.T) {
	p := config.Default()
	p.CLBBytes = 32 << 10
	m := New(p, workload.OLTP())
	m.Start()
	m.Run(1_500_000)
	var stalls, refusals uint64
	for _, n := range m.Nodes {
		stalls += n.CC.Stats().CLBStallCycles
		refusals += n.CC.CLB().FullRejections()
	}
	if stalls == 0 {
		t.Fatal("a 32 KB CLB never stalled the caches")
	}
	if refusals == 0 {
		t.Fatalf("the caches stalled %d cycles on a full CLB, but their CLBs counted no refusal", stalls)
	}
}

// TestDroppedControlMessageRecoversViaWatchdog drops an invalidation ack
// — a control message no requestor timeout observes directly... the GETX
// requestor's own timeout does fire since its transaction never
// completes. Either path (timeout or validation watchdog) must convert
// the loss into a recovery, never a hang (paper §3.5: "any lost message
// will prevent recovery point advancement").
func TestDroppedControlMessageRecoversViaWatchdog(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := stressMachine(t, true, 15)
	dropped := false
	m.Net.AddDropRule(func(mm *msg.Message) bool {
		if !dropped && mm.Type == msg.InvAck && m.Eng.Now() > 60_000 {
			dropped = true
			return true
		}
		return false
	})
	m.Start()
	m.Run(800_000)
	if !dropped {
		t.Skip("no invalidation ack crossed the network in the window")
	}
	if m.Crashed {
		t.Fatal("crashed")
	}
	if len(m.ActiveService().Recoveries()) == 0 {
		t.Fatal("lost InvAck never triggered a recovery")
	}
	before := m.TotalInstrs()
	m.Run(m.Eng.Now() + 200_000)
	if m.TotalInstrs() <= before {
		t.Fatal("system wedged after the recovery")
	}
}

// TestRecoveryRecordAccounting sanity-checks the recovery telemetry that
// the §4.2 experiment reports.
func TestRecoveryRecordAccounting(t *testing.T) {
	m := stressMachine(t, true, 16)
	m.Net.InjectDropOnce(100_000)
	m.Start()
	m.Run(800_000)
	recs := m.ActiveService().Recoveries()
	if len(recs) == 0 {
		t.Fatal("no recovery")
	}
	r := recs[0]
	if r.Restarted <= r.Detected {
		t.Fatalf("record times inverted: %+v", r)
	}
	if r.RecoveryPoint == 0 {
		t.Fatal("recovery point missing from record")
	}
	if m.InstrsRolledBack == 0 {
		t.Fatal("no lost work accounted")
	}
	var entries int
	for _, n := range m.Nodes {
		entries += n.RecoveredEntries
	}
	if entries == 0 {
		t.Fatal("no CLB entries unrolled during recovery")
	}
}
