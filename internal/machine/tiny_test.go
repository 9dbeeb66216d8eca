package machine

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"safetynet/internal/cache"
	"safetynet/internal/fault"
	"safetynet/internal/sim"
	"safetynet/internal/workload"
)

// tinyPin is what a tiny-geometry run must reproduce: digests of its
// backend counters, of every node's cache statistics and of the
// architectural values at quiescence.
type tinyPin struct {
	counters, cacheStats, arch string
	// countersText is the counters the digest covers, for a failure
	// message.
	countersText string
}

// pinnedTiny holds each workload's tiny-geometry run. The oltp run was
// captured before the L1 answered loads on its own, when every load
// touched the L2.
//
// The stress run was captured when recovery-time writebacks began to
// wait for every node to recover. Before, at cycle 215,061 node 5's CLB
// unroll displaced its validated owned copy of block 0x1000005c0 and
// wrote it home at once, and four cycles later the home's directory
// unroll restored node 5 as the block's owner, so each later request
// for the block was forwarded to node 5, reported illegal and
// recovered: 135 recoveries from 4 drops. Now each drop costs one
// recovery.
var pinnedTiny = map[string]tinyPin{
	"stress": {
		counters:   "155fd7ac25b5d14a",
		cacheStats: "d600575bcd55fd40",
		arch:       "4c8e3b97fb06dca1",
	},
	"oltp": {
		counters:   "3cfc67e8458b2d84",
		cacheStats: "171d4897a66976e6",
		arch:       "b7eb51e48c54db05",
	},
}

// TestTinyGeometryPinned runs stress and oltp on a one-set, 4-way L1 over
// a two-set, 2-way L2, so L2 sets fill, L2 victims leave L1 tags behind,
// and every L1 fill evicts: the paths the L1's deferred ages must keep
// exact, which Table 2 geometry never reaches. Periodic drops add
// recoveries. The run must reproduce the pinned counters, statistics and
// architectural state, end coherent, and every L1 word must agree with
// the L2 every 50k cycles and at the end.
func TestTinyGeometryPinned(t *testing.T) {
	for _, name := range []string{"stress", "oltp"} {
		t.Run(name, func(t *testing.T) {
			prof, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			got := tinyRun(t, prof)
			want := pinnedTiny[name]
			if got.counters != want.counters {
				t.Errorf("counters digest %s, pinned %s; counters: %s", got.counters, want.counters, got.countersText)
			}
			if got.cacheStats != want.cacheStats {
				t.Errorf("cache statistics digest %s, pinned %s", got.cacheStats, want.cacheStats)
			}
			if got.arch != want.arch {
				t.Errorf("architectural state digest %s, pinned %s", got.arch, want.arch)
			}
		})
	}
}

// tinyRun runs prof for 600k cycles at tiny geometry, seed 3, with a drop
// every 150k cycles from cycle 50k, then quiesces and returns the run's
// pin.
func tinyRun(t *testing.T, prof workload.Profile) tinyPin {
	t.Helper()
	p := smallConfig(true)
	p.L1Bytes, p.L1Ways = 256, 4
	p.L2Bytes, p.L2Ways = 256, 2
	p.Seed = 3
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	m := New(p, prof)
	defer m.Release()
	arm(t, m, fault.DropEvery{Start: 50_000, Period: 150_000})
	m.Start()
	for now := uint64(50_000); now <= 600_000; now += 50_000 {
		m.Run(sim.Time(now))
		checkL1Words(t, m)
	}
	if m.Crashed {
		t.Fatalf("crashed: %s", m.CrashCause)
	}
	if len(m.ActiveService().Recoveries()) == 0 {
		t.Fatal("no recovery: the drops missed")
	}
	m.Net.Faults().Disarm()
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
	checkL1Words(t, m)
	if v := m.CheckCoherence(); len(v) > 0 {
		t.Errorf("coherence violations at quiescence: %v", v)
	}

	stats := sha256.New()
	for _, n := range m.Nodes {
		fmt.Fprintf(stats, "%d %+v\n", n.ID, n.CC.Stats())
	}
	counters := fmt.Sprintf("%+v", m.Counters())
	return tinyPin{
		counters:     hash16(counters),
		countersText: counters,
		cacheStats:   hex.EncodeToString(stats.Sum(nil))[:16],
		arch:         archDigest(m),
	}
}

// archDigest hashes, for every block with a directory entry in address
// order, the value an idealized load would observe: memory's copy, or
// the owner's. Unlike ArchValues it does not panic when the owner holds
// no copy; it hashes a marker instead, and CheckCoherence names the
// block.
func archDigest(m *Machine) string {
	type val struct {
		addr, data uint64
		lost       bool
	}
	var vals []val
	for _, n := range m.Nodes {
		n.Dir.ForEachEntry(func(addr uint64, owner int, sharers uint32, busy bool) {
			if owner == -1 {
				vals = append(vals, val{addr: addr, data: n.Dir.MemData(addr)})
				return
			}
			v, ok := m.Nodes[owner].CC.OwnedValue(addr)
			vals = append(vals, val{addr: addr, data: v, lost: !ok})
		})
	}
	slices.SortFunc(vals, func(a, b val) int { return cmp.Compare(a.addr, b.addr) })
	h := sha256.New()
	for _, v := range vals {
		fmt.Fprintf(h, "%x %x %t\n", v.addr, v.data, v.lost)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkL1Words checks what each L1 frame's word says about the L2: a
// nonzero word always has a valid L2 line for its block, and a tag whose
// block the L2 holds always has a nonzero word.
func checkL1Words(t *testing.T, m *Machine) {
	t.Helper()
	for _, n := range m.Nodes {
		l2 := n.CC.L2()
		n.CC.L1().ForEachValid(func(l1 *cache.Line) {
			held := l2.Lookup(l1.Addr) != nil
			switch {
			case l1.Data != 0 && !held:
				t.Errorf("cycle %d node %d: L1 word %d for %#x, which the L2 does not hold", m.Eng.Now(), n.ID, l1.Data, l1.Addr)
			case l1.Data == 0 && held:
				t.Errorf("cycle %d node %d: zero L1 word for %#x, which the L2 holds", m.Eng.Now(), n.ID, l1.Addr)
			}
		})
	}
}

// hash16 returns the first 16 hex digits of the SHA-256 of s.
func hash16(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])[:16]
}
