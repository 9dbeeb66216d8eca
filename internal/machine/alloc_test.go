package machine

import (
	"runtime"
	"runtime/debug"
	"testing"

	"safetynet/internal/config"
	"safetynet/internal/workload"
)

// TestWarmMachineAllocsPerRequest bounds the steady-state allocation
// rate of the directory machine: once the Table 2 OLTP machine is warm,
// a coherence request (and everything the processor does between
// requests) allocates almost nothing, and its event queue holds only
// live events. The collector is off in the measured window so the
// message and transit pools keep their items.
func TestWarmMachineAllocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	m := New(config.Default(), workload.OLTP())
	m.Start()
	m.Run(1_000_000)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	requests := func() uint64 {
		var n uint64
		for _, node := range m.Nodes {
			n += node.CC.Stats().RequestsIssued
		}
		return n
	}
	var before, after runtime.MemStats
	r0 := requests()
	runtime.ReadMemStats(&before)
	m.Run(1_200_000)
	runtime.ReadMemStats(&after)
	reqs := requests() - r0
	if reqs == 0 {
		t.Fatal("no coherence requests in the measured window")
	}
	perReq := float64(after.Mallocs-before.Mallocs) / float64(reqs)
	t.Logf("%d allocations over %d coherence requests: %.3f per request",
		after.Mallocs-before.Mallocs, reqs, perReq)
	if perReq > 0.5 {
		t.Fatalf("%.2f allocations per coherence request, want <= 0.5", perReq)
	}
	// Every request arms a timeout far beyond the calendar window, and a
	// cancelled one leaves the queue at once, so the warm queue holds
	// only live events: a handful per node.
	if pend, bound := m.Eng.Pending(), 8*len(m.Nodes); pend > bound {
		t.Fatalf("%d events pending on %d nodes, want <= %d", pend, len(m.Nodes), bound)
	}
}
