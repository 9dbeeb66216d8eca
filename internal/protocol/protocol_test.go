package protocol

import (
	"testing"

	"safetynet/internal/cache"
	"safetynet/internal/config"
	"safetynet/internal/core"
	"safetynet/internal/msg"
	"safetynet/internal/network"
	"safetynet/internal/sim"
	"safetynet/internal/topology"
)

// rig is a minimal 4-node protocol testbench: cache and directory
// controllers wired to a real network, with the checkpoint clock and
// service controllers replaced by manual calls.
type rig struct {
	t    testing.TB
	eng  *sim.Engine
	nw   *network.Network
	p    config.Params
	ccs  []*CacheController
	dirs []*DirController
	home HomeFunc
}

func newRig(t testing.TB, mut func(*config.Params)) *rig {
	t.Helper()
	p := config.Default()
	p.NumNodes = 4
	p.TorusWidth, p.TorusHeight = 2, 2
	p.L1Bytes = 4 << 10
	p.L2Bytes = 16 << 10
	if mut != nil {
		mut(&p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	r := &rig{t: t, eng: sim.NewEngine(), p: p}
	r.nw = network.New(r.eng, topology.New(2, 2), p)
	r.home = InterleavedHome(p.BlockBytes, p.NumNodes)
	for n := 0; n < 4; n++ {
		cc := NewCacheController(n, r.eng, r.nw, p, r.home)
		dir := NewDirController(n, r.eng, r.nw, p)
		r.ccs = append(r.ccs, cc)
		r.dirs = append(r.dirs, dir)
	}
	for n := 0; n < 4; n++ {
		n := n
		r.nw.Attach(n, func(m *msg.Message) {
			switch m.Type {
			case msg.GETS, msg.GETX, msg.PUTX, msg.AckDone:
				r.dirs[n].Handle(m)
			default:
				r.ccs[n].Handle(m)
			}
		})
	}
	return r
}

// run advances until fn reports done or the budget expires.
func (r *rig) run(budget sim.Time, done func() bool) {
	r.t.Helper()
	deadline := r.eng.Now() + budget
	for r.eng.Now() < deadline && !done() {
		r.eng.Run(r.eng.Now() + 100)
	}
	if !done() {
		r.t.Fatal("operation did not complete in budget")
	}
}

func (r *rig) load(node int, addr uint64) uint64 {
	r.t.Helper()
	var got uint64
	ok := false
	r.ccs[node].Load(addr, func(v uint64) { got = v; ok = true })
	r.run(1<<20, func() bool { return ok })
	return got
}

func (r *rig) store(node int, addr, val uint64) {
	r.t.Helper()
	ok := false
	r.ccs[node].Store(addr, val, func() { ok = true })
	r.run(1<<20, func() bool { return ok })
}

// drain waits for every in-flight transaction (including final acks and
// writebacks) to resolve so directory state is stable.
func (r *rig) drain() {
	r.t.Helper()
	r.run(1<<21, func() bool {
		for i := range r.ccs {
			if r.ccs[i].OutstandingTxns() != 0 || r.dirs[i].BusyEntries() != 0 {
				return false
			}
		}
		return true
	})
}

// edge ticks every component's checkpoint clock once.
func (r *rig) edge() {
	for i := range r.ccs {
		r.ccs[i].OnEdge()
		r.dirs[i].OnEdge()
	}
}

// addrHomedAt returns a block address whose home is the given node.
func (r *rig) addrHomedAt(node int, i int) uint64 {
	return uint64(node)*64 + uint64(i)*64*uint64(r.p.NumNodes)
}

func TestLoadMissTwoHop(t *testing.T) {
	r := newRig(t, nil)
	addr := r.addrHomedAt(1, 0)
	got := r.load(0, addr)
	if want := InitialData(addr); got != want {
		t.Fatalf("load = %#x, want initial data %#x", got, want)
	}
	owner, sharers := r.dirs[1].Entry(addr)
	if owner != MemOwner || sharers&1 == 0 {
		t.Fatalf("dir after GETS: owner=%d sharers=%b", owner, sharers)
	}
	st, _, ok := r.ccs[0].LineState(addr)
	if !ok || st != cache.Shared {
		t.Fatalf("requestor line = %v (ok=%v), want S", st, ok)
	}
}

func TestStoreMissGETX(t *testing.T) {
	r := newRig(t, nil)
	addr := r.addrHomedAt(2, 0)
	r.store(0, addr, 42)
	r.drain()
	owner, _ := r.dirs[2].Entry(addr)
	if owner != 0 {
		t.Fatalf("dir owner = %d, want 0", owner)
	}
	st, val, _ := r.ccs[0].LineState(addr)
	if st != cache.Modified || val != 42 {
		t.Fatalf("line = %v/%d, want M/42", st, val)
	}
	if got := r.load(0, addr); got != 42 {
		t.Fatalf("reload = %d, want 42", got)
	}
}

func TestThreeHopGETSMakesOwnerOwned(t *testing.T) {
	r := newRig(t, nil)
	addr := r.addrHomedAt(3, 0)
	r.store(0, addr, 7)
	if got := r.load(1, addr); got != 7 {
		t.Fatalf("3-hop load = %d, want 7", got)
	}
	st, _, _ := r.ccs[0].LineState(addr)
	if st != cache.Owned {
		t.Fatalf("previous owner state = %v, want O (MOSI keeps dirty data at owner)", st)
	}
	r.drain()
	owner, sharers := r.dirs[3].Entry(addr)
	if owner != 0 || sharers&(1<<1) == 0 {
		t.Fatalf("dir: owner=%d sharers=%b, want owner 0 with node 1 sharing", owner, sharers)
	}
}

func TestThreeHopGETXTransfersOwnershipAndInvalidates(t *testing.T) {
	r := newRig(t, nil)
	addr := r.addrHomedAt(3, 0)
	r.store(0, addr, 7)
	r.load(1, addr) // node 1 becomes a sharer
	r.store(2, addr, 8)
	r.drain()
	owner, sharers := r.dirs[3].Entry(addr)
	if owner != 2 || sharers != 0 {
		t.Fatalf("dir: owner=%d sharers=%b, want 2 with no sharers", owner, sharers)
	}
	if st, _, ok := r.ccs[0].LineState(addr); ok && st != cache.Invalid {
		t.Fatalf("old owner still %v", st)
	}
	if st, _, ok := r.ccs[1].LineState(addr); ok && st != cache.Invalid {
		t.Fatalf("old sharer still %v", st)
	}
	if got := r.load(2, addr); got != 8 {
		t.Fatalf("owner readback = %d", got)
	}
}

func TestUpgradeSharedToModified(t *testing.T) {
	r := newRig(t, nil)
	addr := r.addrHomedAt(1, 1)
	r.load(0, addr) // S copy
	misses := r.ccs[0].Stats().Misses
	r.store(0, addr, 9)
	if got := r.ccs[0].Stats().Upgrades; got != 1 {
		t.Fatalf("Upgrades = %d, want 1", got)
	}
	if got := r.ccs[0].Stats().Misses; got != misses {
		t.Fatal("upgrade must not count as a miss")
	}
	st, val, _ := r.ccs[0].LineState(addr)
	if st != cache.Modified || val != 9 {
		t.Fatalf("line = %v/%d, want M/9", st, val)
	}
}

func TestUpgradeOwnedToModified(t *testing.T) {
	r := newRig(t, nil)
	addr := r.addrHomedAt(1, 2)
	r.store(0, addr, 5) // node 0: M
	r.load(2, addr)     // node 0: O, node 2: S
	r.store(0, addr, 6) // O -> M upgrade, invalidating node 2
	st, val, _ := r.ccs[0].LineState(addr)
	if st != cache.Modified || val != 6 {
		t.Fatalf("line = %v/%d, want M/6", st, val)
	}
	if st, _, ok := r.ccs[2].LineState(addr); ok && st != cache.Invalid {
		t.Fatalf("sharer not invalidated: %v", st)
	}
}

func TestStoreToRecentlyEvictedSharedBlock(t *testing.T) {
	// Regression for the stale-sharer upgrade hazard: the directory must
	// not grant a data-less upgrade to a node whose copy is gone.
	r := newRig(t, nil)
	addr := r.addrHomedAt(1, 0)
	r.load(0, addr) // S copy, sharer bit set
	// Silently evict by filling the set (L2: 16KB/4-way/64B = 64 sets;
	// same set every 64*64 bytes... walk conflicting addresses).
	setStride := uint64(64 * 64)
	for i := uint64(1); i <= 4; i++ {
		r.load(0, addr+i*setStride)
	}
	if _, _, ok := r.ccs[0].LineState(addr); ok {
		t.Skip("block survived eviction; set mapping changed")
	}
	r.store(0, addr, 11) // dir still lists node 0 as sharer
	st, val, _ := r.ccs[0].LineState(addr)
	if st != cache.Modified || val != 11 {
		t.Fatalf("line = %v/%d, want M/11", st, val)
	}
}

func TestWritebackToMemory(t *testing.T) {
	r := newRig(t, nil)
	addr := r.addrHomedAt(1, 0)
	r.store(0, addr, 13)
	// Evict by filling the set with stores.
	setStride := uint64(64 * 64)
	for i := uint64(1); i <= 4; i++ {
		r.store(0, addr+i*setStride, i)
	}
	// Wait for the writeback to drain.
	r.run(1<<20, func() bool { return r.ccs[0].OutstandingTxns() == 0 })
	if got := r.ccs[0].Stats().Writebacks; got == 0 {
		t.Fatal("no writeback issued")
	}
	owner, _ := r.dirs[1].Entry(addr)
	if owner != MemOwner {
		t.Fatalf("owner = %d after writeback, want memory", owner)
	}
	if got := r.dirs[1].MemData(addr); got != 13 {
		t.Fatalf("memory = %d, want 13", got)
	}
	// The block is re-loadable with the written value.
	if got := r.load(2, addr); got != 13 {
		t.Fatalf("reload = %d, want 13", got)
	}
}

func TestConcurrentGETXSerializedByNacks(t *testing.T) {
	r := newRig(t, nil)
	addr := r.addrHomedAt(0, 0)
	done := 0
	r.ccs[1].Store(addr, 100, func() { done++ })
	r.ccs[2].Store(addr, 200, func() { done++ })
	r.run(1<<21, func() bool { return done == 2 })
	r.drain()
	if r.ccs[1].Stats().NacksReceived+r.ccs[2].Stats().NacksReceived == 0 {
		t.Fatal("concurrent GETX should nack one requestor")
	}
	owner, _ := r.dirs[0].Entry(addr)
	val, ok := r.ccs[owner].OwnedValue(addr)
	if !ok || (val != 100 && val != 200) {
		t.Fatalf("final owner %d value %d", owner, val)
	}
}

func TestLoggingOncePerInterval(t *testing.T) {
	r := newRig(t, nil)
	addr := r.addrHomedAt(1, 0)
	clb := r.ccs[0].CLB()
	storesLogged := func() uint64 { return clb.Appends() - clb.TransferAppends() }
	r.store(0, addr, 1)
	base := storesLogged()
	r.store(0, addr, 2)
	r.store(0, addr, 3)
	if got := storesLogged(); got != base {
		t.Fatalf("repeat stores logged %d times, want 0 (paper §3.3)", got-base)
	}
	r.edge()
	r.store(0, addr, 4)
	if got := storesLogged(); got != base+1 {
		t.Fatalf("first store of new interval logged %d times, want 1", got-base)
	}
}

func TestUnprotectedSkipsLogging(t *testing.T) {
	r := newRig(t, func(p *config.Params) { p.SafetyNetEnabled = false })
	addr := r.addrHomedAt(1, 0)
	r.store(0, addr, 1)
	r.store(2, addr, 2)
	if r.ccs[0].CLB() != nil || r.dirs[1].CLB() != nil {
		t.Fatal("unprotected controllers must not allocate CLBs")
	}
	if got := r.ccs[0].Bandwidth().LoggingCycles; got != 0 {
		t.Fatalf("unprotected stores spent %d cycles logging", got)
	}
}

func TestReadyCkptHeldByOutstandingTransaction(t *testing.T) {
	r := newRig(t, nil)
	// Drop the data response so the transaction stays outstanding.
	r.nw.AddDropRule(func(m *msg.Message) bool { return m.Type == msg.Data })
	addr := r.addrHomedAt(1, 0)
	got := false
	r.ccs[0].Load(addr, func(uint64) { got = true })
	startCCN := r.ccs[0].CCN()
	r.eng.Run(r.eng.Now() + 5_000)
	if got {
		t.Fatal("load completed despite dropped response")
	}
	r.edge()
	r.edge()
	if ready := r.ccs[0].ReadyCkpt(); ready != startCCN {
		t.Fatalf("ReadyCkpt = %d, want held at %d while the transaction is outstanding", ready, startCCN)
	}
	if free := r.ccs[2].ReadyCkpt(); free != r.ccs[2].CCN() {
		t.Fatalf("idle node ReadyCkpt = %d, want its CCN %d", free, r.ccs[2].CCN())
	}
}

func TestRequestTimeoutReportsFault(t *testing.T) {
	r := newRig(t, func(p *config.Params) { p.RequestTimeoutCycles = 5_000 })
	r.nw.AddDropRule(func(m *msg.Message) bool { return m.Type == msg.Data })
	var fault string
	r.ccs[0].OnFault = func(cause string) { fault = cause }
	r.ccs[0].Load(r.addrHomedAt(1, 0), func(uint64) {})
	r.eng.Run(r.eng.Now() + 20_000)
	if fault == "" {
		t.Fatal("dropped response did not time out")
	}
	if r.ccs[0].Stats().Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", r.ccs[0].Stats().Timeouts)
	}
}

func TestNackResetsTimeout(t *testing.T) {
	// A directory that keeps nacking must not cause a timeout (the nack
	// proves liveness); this guards the detection false-positive rate.
	r := newRig(t, func(p *config.Params) { p.RequestTimeoutCycles = 3_000 })
	addr := r.addrHomedAt(1, 0)
	// Hold the entry busy: drop AckDone messages so a GETX never closes.
	r.nw.AddDropRule(func(m *msg.Message) bool { return m.Type == msg.AckDone })
	stored := false
	r.ccs[2].Store(addr, 1, func() { stored = true })
	r.run(1<<20, func() bool { return stored }) // dir now wedged busy
	var fault string
	r.ccs[0].OnFault = func(cause string) { fault = cause }
	r.ccs[0].Load(addr, func(uint64) {})
	r.eng.Run(r.eng.Now() + 10_000)
	_ = fault
	// Node 0 keeps getting nacked (busy entry) — that is not a fault;
	// only genuinely missing responses are.
	if r.ccs[0].Stats().NacksReceived == 0 {
		t.Fatal("expected nacks from the busy entry")
	}
	if r.ccs[0].Stats().Timeouts != 0 {
		t.Fatal("nacked requestor must not time out")
	}
}

func TestDirCLBFullNacksRequests(t *testing.T) {
	r := newRig(t, func(p *config.Params) {
		p.CLBBytes = 72 * 4 // two entries per side
	})
	// Fill node 1's memory-side CLB directly (deterministic setup).
	clb := r.dirs[1].CLB()
	for !clb.Full() {
		clb.Append(core.Entry{Addr: 0xdead, Tag: 2, MemEntry: true})
	}
	nacks := r.dirs[1].Stats().Nacks
	// A GETX needing a log entry must now be nacked; it cannot complete
	// (no validation frees space here), so just count nacks.
	r.ccs[2].Store(r.addrHomedAt(1, 30), 99, func() {})
	r.eng.Run(r.eng.Now() + 10_000)
	if r.dirs[1].Stats().Nacks == nacks {
		t.Fatal("full memory-side CLB must nack coherence requests (paper §3.3)")
	}
}

func TestTransferCNRidesDataResponses(t *testing.T) {
	r := newRig(t, nil)
	addr := r.addrHomedAt(1, 0)
	r.edge() // CCN 2
	r.edge() // CCN 3
	r.store(0, addr, 1)
	st, _, _ := r.ccs[0].LineState(addr)
	if st != cache.Modified {
		t.Fatal("setup failed")
	}
	// The line's CN must be CCN+1 = 4 (paper: an update-action at CCN=3
	// belongs to checkpoint 4).
	found := false
	r.ccs[0].L2().ForEachValid(func(l *cache.Line) {
		if l.Addr == addr {
			found = true
			if l.CN() != 4 {
				t.Fatalf("line CN = %d, want 4", l.CN())
			}
		}
	})
	if !found {
		t.Fatal("line missing")
	}
}

func TestInitialDataDeterministic(t *testing.T) {
	if InitialData(0x40) != InitialData(0x40) {
		t.Fatal("InitialData must be a pure function")
	}
	if InitialData(0x40) == InitialData(0x80) {
		t.Fatal("InitialData should differ across blocks")
	}
}

func TestInterleavedHome(t *testing.T) {
	h := InterleavedHome(64, 16)
	if h(0) != 0 || h(64) != 1 || h(64*16) != 0 {
		t.Fatal("home interleaving wrong")
	}
}
