package machine

import (
	"testing"

	"safetynet/internal/config"
	"safetynet/internal/network"
	"safetynet/internal/sim"
	"safetynet/internal/workload"
)

// smallConfig shrinks caches and intervals so tests exercise evictions,
// writebacks and many checkpoints quickly.
func smallConfig(sn bool) config.Params {
	p := config.Default()
	p.SafetyNetEnabled = sn
	p.L1Bytes = 8 << 10  // 32 sets
	p.L2Bytes = 64 << 10 // 256 sets
	p.CheckpointIntervalCycles = 10_000
	p.ValidationSignoffCycles = 10_000
	p.CLBBytes = 128 << 10
	p.RequestTimeoutCycles = 15_000
	p.ValidationWatchdogCycles = 80_000
	return p
}

func stressMachine(t *testing.T, sn bool, seed uint64) *Machine {
	t.Helper()
	p := smallConfig(sn)
	p.Seed = seed
	return New(p, workload.Stress())
}

func TestFaultFreeRunQuiescesCoherent(t *testing.T) {
	m := stressMachine(t, true, 1)
	m.Start()
	m.Run(300_000)
	if m.Crashed {
		t.Fatalf("fault-free run crashed: %s", m.CrashCause)
	}
	if !m.Quiesce(200_000) {
		t.Fatal("system failed to quiesce")
	}
	if errs := m.CheckCoherence(); len(errs) != 0 {
		for _, e := range errs[:min(len(errs), 10)] {
			t.Error(e)
		}
		t.Fatalf("%d coherence violations", len(errs))
	}
	if m.TotalInstrs() == 0 {
		t.Fatal("no instructions retired")
	}
}

func TestRecoveryPointAdvancesFaultFree(t *testing.T) {
	m := stressMachine(t, true, 2)
	m.Start()
	m.Run(200_000) // 20 checkpoint intervals
	rpcn := m.RPCN()
	if rpcn < 10 {
		t.Fatalf("RPCN = %d after 20 intervals; validation is not pipelining", rpcn)
	}
	svc := m.ActiveService()
	if svc.Validations() == 0 {
		t.Fatal("no validations recorded")
	}
	if len(svc.Recoveries()) != 0 {
		t.Fatalf("fault-free run recovered: %+v", svc.Recoveries())
	}
}

func TestOutstandingCheckpointsBounded(t *testing.T) {
	m := stressMachine(t, true, 3)
	m.Start()
	for i := 0; i < 30; i++ {
		m.Run(m.Eng.Now() + 10_000)
		for _, n := range m.Nodes {
			lag := int(n.CC.CCN() - n.rpcn)
			// The bound may be transiently exceeded by one interval
			// (the edge that triggers the pause still fires).
			if lag > m.P.MaxOutstandingCheckpoints+1 {
				t.Fatalf("node %d: %d checkpoints outstanding, bound %d",
					n.ID, lag, m.P.MaxOutstandingCheckpoints)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		m := stressMachine(t, true, 7)
		m.Start()
		m.Run(200_000)
		s := m.Net.Stats()
		return m.TotalInstrs(), s.Sent, uint64(m.RPCN())
	}
	i1, s1, r1 := run()
	i2, s2, r2 := run()
	if i1 != i2 || s1 != s2 || r1 != r2 {
		t.Fatalf("identical seeds diverged: (%d,%d,%d) vs (%d,%d,%d)", i1, s1, r1, i2, s2, r2)
	}
}

func TestSeedChangesExecution(t *testing.T) {
	m1 := stressMachine(t, true, 1)
	m1.Start()
	m1.Run(100_000)
	m2 := stressMachine(t, true, 99)
	m2.Start()
	m2.Run(100_000)
	if m1.TotalInstrs() == m2.TotalInstrs() && m1.Net.Stats().Sent == m2.Net.Stats().Sent {
		t.Fatal("different seeds produced identical executions (suspicious)")
	}
}

func TestUnprotectedRunsWithoutSafetyNetMachinery(t *testing.T) {
	m := stressMachine(t, false, 1)
	m.Start()
	m.Run(200_000)
	if m.Crashed {
		t.Fatalf("fault-free unprotected run crashed: %s", m.CrashCause)
	}
	if m.Clock != nil || m.Svc[0] != nil {
		t.Fatal("unprotected build must not construct SafetyNet machinery")
	}
	for _, n := range m.Nodes {
		if n.CC.CLB() != nil || n.Dir.CLB() != nil {
			t.Fatal("unprotected build must not allocate CLBs")
		}
	}
	if !m.Quiesce(200_000) {
		t.Fatal("unprotected system failed to quiesce")
	}
	if errs := m.CheckCoherence(); len(errs) != 0 {
		t.Fatalf("unprotected coherence violations: %v", errs[:min(len(errs), 5)])
	}
}

func TestDroppedMessageRecoversProtected(t *testing.T) {
	m := stressMachine(t, true, 5)
	m.Net.InjectDropOnce(50_000)
	m.Start()
	m.Run(600_000)
	if m.Crashed {
		t.Fatal("SafetyNet system must not crash on a dropped message")
	}
	svc := m.ActiveService()
	if len(svc.Recoveries()) == 0 {
		t.Fatal("dropped message did not trigger a recovery")
	}
	rec := svc.Recoveries()[0]
	if rec.Duration() == 0 || rec.Duration() > 200_000 {
		t.Fatalf("recovery latency %d cycles implausible", rec.Duration())
	}
	// The system keeps making progress afterwards.
	if !m.Quiesce(300_000) {
		t.Fatal("system failed to quiesce after recovery")
	}
	if errs := m.CheckCoherence(); len(errs) != 0 {
		t.Fatalf("post-recovery coherence violations: %v", errs[:min(len(errs), 5)])
	}
}

func TestDroppedMessageCrashesUnprotected(t *testing.T) {
	m := stressMachine(t, false, 5)
	m.Net.InjectDropOnce(50_000)
	m.Start()
	m.Run(600_000)
	if !m.Crashed {
		t.Fatal("unprotected system must crash on a dropped message")
	}
	if m.CrashTime == 0 {
		t.Fatal("crash time not recorded")
	}
}

func TestKilledSwitchRecoversAndContinues(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// A half-switch kill only forces a recovery if messages were lost in
	// it; scan kill times deterministically until one catches traffic.
	var m *Machine
	lost := false
	for kill := sim.Time(50_000); kill <= 70_000 && !lost; kill += 1_000 {
		m = stressMachine(t, true, 6)
		m.Net.KillSwitchAt(m.Topo.EWSwitch(5), kill)
		m.Start()
		m.Run(800_000)
		lost = m.Net.Stats().Dropped[network.DropDeadSwitch] > 0
	}
	if !lost {
		t.Fatal("no kill time caught in-flight traffic; stress workload too quiet")
	}
	if m.Crashed {
		t.Fatal("SafetyNet system must survive a killed half-switch")
	}
	if m.Topo.DeadCount() != 1 {
		t.Fatal("switch kill not applied")
	}
	svc := m.ActiveService()
	if len(svc.Recoveries()) == 0 {
		t.Fatal("killed switch lost messages but did not trigger a recovery")
	}
	before := m.TotalInstrs()
	m.Run(1_000_000)
	if m.TotalInstrs() <= before {
		t.Fatal("no forward progress after reconfiguration")
	}
	if !m.Quiesce(300_000) {
		t.Fatal("system failed to quiesce after switch loss")
	}
	if errs := m.CheckCoherence(); len(errs) != 0 {
		t.Fatalf("post-switch-loss coherence violations: %v", errs[:min(len(errs), 5)])
	}
}

// TestCheckpointSoundness is the core SafetyNet property (paper §3.6):
// the architectural state after a recovery equals the architectural
// state that existed when the recovery point was created.
func TestCheckpointSoundness(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		m := stressMachine(t, true, seed)
		interval := sim.Time(m.P.CheckpointIntervalCycles)
		m.Start()
		m.Run(100_000)

		// Drain all traffic, then idle across two checkpoint edges: the
		// states captured by those edges equal the quiesced state, and
		// validation catches the recovery point up to them.
		if !m.Quiesce(200_000) {
			t.Fatal("pre-snapshot quiesce failed")
		}
		ref := m.ArchValues()
		m.Run(m.Eng.Now() + 2*interval + 5_000)

		// Settle: away from edges with a stable recovery point, so no
		// in-flight validation can move it during the dirty window.
		var refRPCN = m.RPCN()
		var now, nextEdge sim.Time
		for i := 0; ; i++ {
			if i > 50 {
				t.Fatal("recovery point never settled")
			}
			now = m.Eng.Now()
			nextEdge = (now/interval + 1) * interval
			if nextEdge-now < 3_000 {
				m.Run(nextEdge + 3_000)
				continue
			}
			r1 := m.RPCN()
			m.Run(now + 1_500)
			if m.RPCN() == r1 {
				refRPCN = r1
				now = m.Eng.Now()
				break
			}
		}
		// Capture the restored state at the instant recovery completes,
		// before the restart lets processors re-execute the rolled-back
		// work (which would legitimately change state again).
		var got map[uint64]uint64
		var violations []string
		m.AfterRecovery = func() {
			got = m.ArchValues()
			violations = m.CheckCoherence()
		}
		trigger := now + (nextEdge-now)/2
		m.ResumeAll()
		m.Eng.Schedule(trigger, func() { m.ActiveService().TriggerRecovery("test-forced") })
		m.Run(trigger + 100)

		// Wait for the recovery round trip to finish.
		for i := 0; i < 500 && (m.Recovering() || len(m.ActiveService().Recoveries()) == 0); i++ {
			m.Run(m.Eng.Now() + 1_000)
		}
		if got == nil {
			t.Fatal("recovery did not complete")
		}
		if n := len(m.ActiveService().Recoveries()); n != 1 {
			t.Fatalf("seed %d: %d recoveries, want 1", seed, n)
		}
		if gotRPCN := m.RPCN(); gotRPCN != refRPCN {
			t.Fatalf("seed %d: recovery point moved %d -> %d unexpectedly", seed, refRPCN, gotRPCN)
		}
		for addr, v := range ref {
			if gv, ok := got[addr]; !ok || gv != v {
				t.Fatalf("seed %d: block %#x = %#x after recovery, want %#x (ok=%v)", seed, addr, gv, v, ok)
			}
		}
		// No block changed value relative to the snapshot either.
		for addr, gv := range got {
			if rv, ok := ref[addr]; ok && rv != gv {
				t.Fatalf("seed %d: block %#x changed %#x -> %#x", seed, addr, rv, gv)
			}
		}
		if len(violations) != 0 {
			t.Fatalf("seed %d: post-recovery violations: %v", seed, violations[:min(len(violations), 5)])
		}
		// Re-execution after restart keeps the system live and coherent.
		if !m.Quiesce(300_000) {
			t.Fatal("post-restart quiesce failed")
		}
		if errs := m.CheckCoherence(); len(errs) != 0 {
			t.Fatalf("seed %d: post-restart violations: %v", seed, errs[:min(len(errs), 5)])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Benchmark-ish sanity: the machine should simulate at a usable rate.
func TestSimulationThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := stressMachine(t, true, 1)
	m.Start()
	m.Run(sim.Time(1_000_000))
	if m.Eng.Executed() == 0 {
		t.Fatal("no events")
	}
}
