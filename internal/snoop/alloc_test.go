package snoop

import (
	"runtime"
	"testing"

	"safetynet/internal/config"
	"safetynet/internal/workload"
)

// TestWarmSystemAllocsPerMiss bounds the steady-state allocation rate of
// the snooping system at the Table 2 geometry: once warm, processor references, bus
// transactions and data messages allocate almost nothing, so a miss
// (with the hits between misses) costs at most one allocation, and the
// event queue holds only live events. Every recycled record lives on a
// free list that the collector never empties, so the bound holds with
// the collector running and under -race.
func TestWarmSystemAllocsPerMiss(t *testing.T) {
	p := config.Default()
	p.Protocol = config.ProtocolSnoop
	s := New(p, workload.OLTP())
	s.Start()
	s.Run(1_000_000)

	misses := func() uint64 {
		var n uint64
		for _, node := range s.nodes {
			n += node.Misses
		}
		return n
	}
	var before, after runtime.MemStats
	m0 := misses()
	runtime.ReadMemStats(&before)
	s.Run(1_200_000)
	runtime.ReadMemStats(&after)
	ms := misses() - m0
	if ms == 0 {
		t.Fatal("no misses in the measured window")
	}
	perMiss := float64(after.Mallocs-before.Mallocs) / float64(ms)
	t.Logf("%d allocations over %d misses: %.3f per miss",
		after.Mallocs-before.Mallocs, ms, perMiss)
	if perMiss > 1 {
		t.Fatalf("%.2f allocations per miss, want <= 1", perMiss)
	}
	// Every bus transaction arms a timeout, and a cancelled one leaves
	// the queue at once, so the warm queue holds only live events: a
	// handful per node.
	if pend, bound := s.eng.Pending(), 8*len(s.nodes); pend > bound {
		t.Fatalf("%d events pending on %d nodes, want <= %d", pend, len(s.nodes), bound)
	}
}
