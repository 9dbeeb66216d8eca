package machine

import (
	"testing"

	"safetynet/internal/iodev"
	"safetynet/internal/workload"
)

// ioMachine builds a stress machine whose workload emits I/O outputs.
func ioMachine(t *testing.T, seed uint64) *Machine {
	t.Helper()
	p := smallConfig(true)
	p.Seed = seed
	prof := workload.Stress()
	prof.IOPer100k = 3000 // frequent enough to observe in short runs
	return New(p, prof)
}

// TestOutputCommitHoldsUnvalidatedOutputs: outputs never escape before
// their checkpoint validates (paper §2.4).
func TestOutputCommitHoldsUnvalidatedOutputs(t *testing.T) {
	m := ioMachine(t, 1)
	m.Start()
	m.Run(300_000)
	var pending, released int
	for _, n := range m.Nodes {
		pending += n.Out.PendingCount()
		released += len(n.Out.Released())
	}
	if pending+released == 0 {
		t.Fatal("workload produced no I/O")
	}
	if released == 0 {
		t.Fatal("validation never released outputs")
	}
}

// TestOutputCommitExactlyOnceAcrossRecovery: the outputs released with
// faults and recoveries form exactly the fault-free sequence — nothing
// lost, nothing duplicated, nothing out of order.
func TestOutputCommitExactlyOnceAcrossRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	collect := func(m *Machine) [][]uint64 {
		out := make([][]uint64, len(m.Nodes))
		for i, n := range m.Nodes {
			out[i] = append([]uint64{}, n.Out.Released()...)
		}
		return out
	}

	// The reference run extends past the horizon: a recovery reshuffles
	// interleavings, so the faulty run's per-node progress at the same
	// horizon may exceed the fault-free run's — the invariant is that
	// released outputs form a prefix of the node's deterministic output
	// stream, which the longer fault-free run materializes.
	ref := ioMachine(t, 2)
	ref.Start()
	ref.Run(1_200_000)
	want := collect(ref)

	faulty := ioMachine(t, 2)
	faulty.Net.InjectDropOnce(150_000)
	faulty.Start()
	faulty.Run(600_000)
	if len(faulty.ActiveService().Recoveries()) == 0 {
		t.Fatal("no recovery; fault missed")
	}
	got := collect(faulty)

	for node := range want {
		w, g := want[node], got[node]
		// The faulty run's releases must form a prefix of the node's
		// deterministic output stream.
		if len(g) > len(w) {
			t.Fatalf("node %d: reference run too short (%d vs %d)", node, len(w), len(g))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("node %d output %d = %#x, fault-free had %#x (duplicate or reorder)",
					node, i, g[i], w[i])
			}
		}
	}
	// Recoveries must actually have discarded some unvalidated outputs.
	var discarded uint64
	for _, n := range faulty.Nodes {
		discarded += n.Out.Discarded
	}
	if discarded == 0 {
		t.Log("no outputs were in flight at recovery (weak run, but not a failure)")
	}
}

// TestInputLogReplaysAcrossRecovery wires an input stream to node 0 and
// checks consumed-input continuity across a forced recovery.
func TestInputLogReplaysAcrossRecovery(t *testing.T) {
	m := stressMachine(t, true, 3)
	src := uint64(0)
	m.Nodes[0].In = iodev.NewInputLog(func() (uint64, bool) { src++; return src, true })

	m.Start()
	m.Run(50_000)
	// Consume a few inputs at the current checkpoint.
	var consumed []uint64
	take := func(n int) {
		for i := 0; i < n; i++ {
			v, ok := m.Nodes[0].In.Consume(m.Nodes[0].CC.CCN())
			if !ok {
				t.Fatal("source exhausted")
			}
			consumed = append(consumed, v)
		}
	}
	take(3)
	m.ActiveService().TriggerRecovery("test-input-replay")
	for i := 0; i < 300 && m.Recovering(); i++ {
		m.Run(m.Eng.Now() + 1_000)
	}
	// The three consumed inputs were unvalidated; they must replay in
	// order before any fresh input.
	replay := consumed[len(consumed)-3:]
	for i := 0; i < 3; i++ {
		v, ok := m.Nodes[0].In.Consume(m.Nodes[0].CC.CCN())
		if !ok || v != replay[i] {
			t.Fatalf("replay %d = %d (ok=%v), want %d", i, v, ok, replay[i])
		}
	}
	v, _ := m.Nodes[0].In.Consume(m.Nodes[0].CC.CCN())
	if v != 4 {
		t.Fatalf("post-replay input = %d, want 4 (fresh)", v)
	}
}
