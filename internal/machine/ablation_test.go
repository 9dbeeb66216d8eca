package machine

import (
	"testing"

	"safetynet/internal/fault"
	"safetynet/internal/sim"
	"safetynet/internal/workload"
)

// TestAblationLogDedup quantifies the paper's §2.2 claim: logging only
// the first update-action per block per interval cuts log traffic by an
// order of magnitude or more versus naive always-log.
func TestAblationLogDedup(t *testing.T) {
	run := func(disable bool) uint64 {
		p := smallConfig(true)
		p.DisableLogDedup = disable
		p.CLBBytes = 2 << 20 // ample, so the ablation measures traffic not stalls
		m := New(p, workload.Stress())
		m.Start()
		m.Run(300_000)
		var appends uint64
		for _, n := range m.Nodes {
			appends += n.CC.CLB().Appends()
		}
		return appends
	}
	with := run(false)
	without := run(true)
	if with == 0 || without == 0 {
		t.Fatalf("no logging observed: with=%d without=%d", with, without)
	}
	ratio := float64(without) / float64(with)
	if ratio < 4 {
		t.Fatalf("dedup saves only %.1fx log traffic; paper claims one to two orders of magnitude", ratio)
	}
	t.Logf("dedup ablation: %d appends with dedup, %d without (%.1fx)", with, without, ratio)
}

// TestAblationLogDedupStaysSound: disabling the optimization must not
// break recovery — extra entries unroll to the same state.
func TestAblationLogDedupStaysSound(t *testing.T) {
	p := smallConfig(true)
	p.DisableLogDedup = true
	p.CLBBytes = 2 << 20
	p.Seed = 21
	m := New(p, workload.Stress())
	var violations []string
	m.AfterRecovery = func() { violations = m.CheckCoherence() }
	arm(t, m, fault.DropOnce{At: 80_000})
	m.Start()
	m.Run(600_000)
	if m.Crashed {
		t.Fatal("crashed")
	}
	if len(m.ActiveService().Recoveries()) == 0 {
		t.Fatal("no recovery")
	}
	if len(violations) != 0 {
		t.Fatalf("recovery with dedup disabled is unsound: %v", violations[:min(len(violations), 5)])
	}
}

// TestAblationPipelinedValidation quantifies the paper's contribution #2:
// validating checkpoints in the background (off the critical path) versus
// stalling execution at every edge until validation completes.
func TestAblationPipelinedValidation(t *testing.T) {
	run := func(disable bool) uint64 {
		p := smallConfig(true)
		p.DisablePipelinedValidation = disable
		m := New(p, workload.Stress())
		m.Start()
		m.Run(400_000)
		if m.Crashed {
			t.Fatal("crashed")
		}
		return m.TotalInstrs()
	}
	pipelined := run(false)
	synchronous := run(true)
	if synchronous >= pipelined {
		t.Fatalf("synchronous validation should cost throughput: %d vs %d", synchronous, pipelined)
	}
	loss := 1 - float64(synchronous)/float64(pipelined)
	if loss < 0.10 {
		t.Fatalf("synchronous validation lost only %.0f%%; the ablation is not biting", loss*100)
	}
	t.Logf("pipelined validation worth %.0f%% throughput (%d vs %d instrs)", loss*100, pipelined, synchronous)
}

// TestCorruptionDetectedAndRecovered: a CRC-detected corrupt data message
// triggers recovery on the protected system and a crash on the baseline
// (paper Table 1's dropped-message fault, corruption flavor).
func TestCorruptionDetectedAndRecovered(t *testing.T) {
	m := stressMachine(t, true, 22)
	arm(t, m, fault.CorruptOnce{At: 60_000})
	m.Start()
	m.Run(600_000)
	if m.Crashed {
		t.Fatal("protected system crashed on corruption")
	}
	if m.Net.Stats().Corrupted != 1 {
		t.Fatalf("Corrupted = %d, want 1", m.Net.Stats().Corrupted)
	}
	if len(m.ActiveService().Recoveries()) == 0 {
		t.Fatal("corruption did not trigger a recovery")
	}
	// Detection is fast (endpoint CRC, not a timeout): the recovery must
	// begin well before the timeout latency after injection.
	rec := m.ActiveService().Recoveries()[0]
	if rec.Detected > sim.Time(60_000+m.P.RequestTimeoutCycles) {
		t.Fatalf("corruption detected at %d; CRC detection should beat the %d-cycle timeout",
			rec.Detected, m.P.RequestTimeoutCycles)
	}

	up := stressMachine(t, false, 22)
	arm(t, up, fault.CorruptOnce{At: 60_000})
	up.Start()
	up.Run(600_000)
	if !up.Crashed {
		t.Fatal("unprotected system must crash on corruption")
	}
}

// TestMisroutedMessageRecovers: paper §5.1 — a misrouted message is
// discarded by the surprised endpoint (its transaction matching finds no
// owner for it) and the true requestor's timeout triggers recovery.
func TestMisroutedMessageRecovers(t *testing.T) {
	m := stressMachine(t, true, 23)
	arm(t, m, fault.MisrouteOnce{At: 60_000})
	m.Start()
	m.Run(600_000)
	if m.Crashed {
		t.Fatal("protected system crashed on misroute")
	}
	if m.Net.Stats().Misrouted != 1 {
		t.Fatalf("Misrouted = %d, want 1", m.Net.Stats().Misrouted)
	}
	if len(m.ActiveService().Recoveries()) == 0 {
		t.Fatal("misrouted message never recovered")
	}
	if !m.Quiesce(300_000) {
		t.Fatal("failed to quiesce")
	}
	if errs := m.CheckCoherence(); len(errs) != 0 {
		t.Fatalf("violations after misroute: %v", errs[:min(len(errs), 5)])
	}
}

// TestDuplicateMessageAbsorbed: paper §5.1 — the protocol's transaction
// matching must absorb a duplicated message without state corruption,
// with or without a recovery.
func TestDuplicateMessageAbsorbed(t *testing.T) {
	m := stressMachine(t, true, 24)
	arm(t, m, fault.DuplicateOnce{At: 60_000})
	m.Start()
	m.Run(600_000)
	if m.Crashed {
		t.Fatal("protected system crashed on duplicate")
	}
	if m.Net.Stats().Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", m.Net.Stats().Duplicated)
	}
	if !m.Quiesce(300_000) {
		t.Fatal("failed to quiesce")
	}
	if errs := m.CheckCoherence(); len(errs) != 0 {
		t.Fatalf("violations after duplicate: %v", errs[:min(len(errs), 5)])
	}
	if m.TotalInstrs() == 0 {
		t.Fatal("no progress")
	}
}
