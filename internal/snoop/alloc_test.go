package snoop

import (
	"runtime"
	"runtime/debug"
	"testing"

	"safetynet/internal/config"
	"safetynet/internal/workload"
)

// TestWarmSystemAllocsPerMiss bounds the steady-state allocation rate of
// the snooping system at the Table 2 geometry: once warm, processor references, bus
// transactions and data messages allocate almost nothing, so a miss
// (with the hits between misses) costs at most one allocation. The
// collector is off in the measured window so the data-message pool
// keeps its items.
func TestWarmSystemAllocsPerMiss(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	s := New(FromParams(config.Default()), workload.OLTP())
	s.Start()
	s.Run(1_000_000)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

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
}
