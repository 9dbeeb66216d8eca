package checker

import (
	"strings"
	"testing"

	"safetynet/internal/backend"
	"safetynet/internal/cache"
	"safetynet/internal/config"
	"safetynet/internal/machine"
	"safetynet/internal/msg"
	"safetynet/internal/snoop"
	"safetynet/internal/workload"
)

func TestCheckerProtectedCampaign(t *testing.T) {
	o := DefaultOptions()
	if testing.Short() {
		o.Seeds = 4
	}
	rep := Check(o)
	if !rep.OK() {
		for _, v := range rep.Violations {
			t.Error(v)
		}
	}
	if rep.Runs != o.Seeds {
		t.Fatalf("Runs = %d, want %d", rep.Runs, o.Seeds)
	}
	if rep.Faults == 0 {
		t.Fatal("campaign injected no faults; seeds too uniform")
	}
	if !strings.Contains(rep.String(), "PASS") {
		t.Fatalf("report = %q", rep.String())
	}
}

func TestCheckerUnprotectedFaultFree(t *testing.T) {
	rep := Check(Options{Seeds: 3, CyclesPerRun: 300_000, Protected: false})
	if !rep.OK() {
		for _, v := range rep.Violations {
			t.Error(v)
		}
	}
	if rep.Faults != 0 {
		t.Fatal("unprotected campaign must not inject faults")
	}
}

func TestReportString(t *testing.T) {
	r := &Report{Runs: 2, Violations: []Violation{{Backend: "directory", Seed: 3}}}
	if !strings.Contains(r.String(), "FAIL") {
		t.Fatalf("report = %q", r.String())
	}
}

// TestViolationString: a violation line carries everything needed to
// reproduce and localize the failure — backend, seed, cycle, invariant.
func TestViolationString(t *testing.T) {
	v := Violation{
		Backend: "snoop", Seed: 7, Cycle: 123_456,
		Invariant: "quiesce", Detail: "failed to quiesce",
	}
	s := v.String()
	for _, want := range []string{"snoop", "seed 7", "cycle 123456", "quiesce"} {
		if !strings.Contains(s, want) {
			t.Errorf("violation %q lacks %q", s, want)
		}
	}
}

func TestCheckerSnoopCampaign(t *testing.T) {
	o := Options{Seeds: 6, CyclesPerRun: 300_000, Protected: true}
	rep := CheckSnoop(o)
	if !rep.OK() {
		for _, v := range rep.Violations {
			t.Error(v)
		}
	}
	if rep.Runs != o.Seeds {
		t.Fatalf("Runs = %d, want %d", rep.Runs, o.Seeds)
	}
}

// TestPostRecoveryCN runs two recoveries on each backend. The first is
// clean and must pass the post-recovery-cn check. Before the check sees
// the second, an observer registered ahead of it leaves one line above
// the recovery point in node 0's L2, as a recovery that missed a line
// would, and the check must name that node and block.
func TestPostRecoveryCN(t *testing.T) {
	m := machine.New(stressConfig(true, 1), workload.Stress())
	s := snoop.New(config.SmallSnoop(), workload.Stress())
	for _, tc := range []struct {
		name    string
		b       backend.Backend
		nodes   int
		recover func()
	}{
		{backendDirectory, m, m.P.NumNodes, func() { m.ActiveService().TriggerRecovery("test") }},
		{backendSnoop, s, len(s.Nodes()), s.Recover},
	} {
		t.Run(tc.name, func(t *testing.T) {
			planted := false
			tc.b.Observe(&backend.Observer{RecoveryCompleted: func(_ uint64, ckpt uint32, _ uint64) {
				if planted {
					l2 := tc.b.L2(0)
					l2.Install(l2.Victim(0x40, nil), 0x40, cache.Shared, msg.CN(ckpt)+1, 0)
				}
			}})
			rep := &Report{}
			rep.watchRecoveredCNs(tc.b, tc.nodes, tc.name, 1)
			tc.b.Start()
			tc.b.Run(100_000)
			tc.recover()
			tc.b.Run(150_000)
			if n := tc.b.Counters().Recoveries; n != 1 || !rep.OK() {
				t.Fatalf("clean recovery: %d recoveries, violations %v", n, rep.Violations)
			}
			planted = true
			tc.recover()
			tc.b.Run(200_000)
			if n := tc.b.Counters().Recoveries; n != 2 || len(rep.Violations) != 1 {
				t.Fatalf("planted line: %d recoveries, violations %v", n, rep.Violations)
			}
			if v := rep.Violations[0]; v.Invariant != "post-recovery-cn" || !strings.Contains(v.Detail, "node 0 ") ||
				!strings.Contains(v.Detail, "block 0x40") {
				t.Fatalf("violation = %v", v)
			}
		})
	}
}
