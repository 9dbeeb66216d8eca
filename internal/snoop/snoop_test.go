package snoop

import (
	"errors"
	"testing"

	"safetynet/internal/cache"
	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/sim"
	"safetynet/internal/topology"
	"safetynet/internal/workload"
)

// testParams returns the small snooping system with the given seed.
func testParams(seed uint64) config.Params {
	p := config.SmallSnoop()
	p.Seed = seed
	return p
}

func testSystem(t *testing.T, seed uint64) *System {
	t.Helper()
	return New(testParams(seed), workload.Stress())
}

// arm arms the given fault events on s's data network.
func arm(t *testing.T, s *System, events ...fault.Event) {
	t.Helper()
	if err := fault.Plan(events).Arm(s.FaultTarget()); err != nil {
		t.Fatal(err)
	}
}

// TestConfigValidation checks that the snooping system refuses the
// parameters its bus cannot run: Validate rejects each, and New panics.
func TestConfigValidation(t *testing.T) {
	if err := testParams(1).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		mut  func(*config.Params)
	}{
		{"one node", func(p *config.Params) { p.NumNodes = 1 }},
		{"beyond presence mask", func(p *config.Params) { p.NumNodes = 65 }},
		{"block not pow2", func(p *config.Params) { p.BlockBytes = 48 }},
		{"zero l2", func(p *config.Params) { p.L2Bytes = 0 }},
		{"clb too small", func(p *config.Params) { p.CLBBytes = 10 }},
		// A CLB whose halves fit a 72-byte entry but not an 8-byte tag
		// plus a 128-byte block.
		{"clb half below one entry", func(p *config.Params) { p.BlockBytes = 128; p.CLBBytes = 200 }},
		{"zero interval", func(p *config.Params) { p.CheckpointIntervalCycles = 0 }},
		{"zero ckpts", func(p *config.Params) { p.MaxOutstandingCheckpoints = 0 }},
		{"watchdog not above timeout", func(p *config.Params) { p.RequestTimeoutCycles = p.ValidationWatchdogCycles }},
	}
	for _, b := range bad {
		p := testParams(1)
		b.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid config", b.name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New accepted an invalid config", b.name)
				}
			}()
			New(p, workload.Stress())
		}()
	}
}

func TestFaultFreeRunCoherent(t *testing.T) {
	s := testSystem(t, 1)
	s.Start()
	s.Run(300_000)
	if s.TotalInstrs() == 0 {
		t.Fatal("no progress")
	}
	if s.Recoveries != 0 {
		t.Fatalf("fault-free run recovered %d times", s.Recoveries)
	}
	if !s.Quiesce(200_000) {
		t.Fatal("failed to quiesce")
	}
	if errs := s.CheckCoherence(); len(errs) != 0 {
		t.Fatalf("violations: %v", errs[:minInt(len(errs), 5)])
	}
}

func TestLogicalTimeIsSharedSnoopOrder(t *testing.T) {
	s := testSystem(t, 2)
	s.Start()
	s.Run(200_000)
	// Every node counts the same stream: CCNs are identical across the
	// machine at any instant (no skew machinery needed — the §2.3
	// observation for ordered interconnects).
	first := s.nodes[0].ccn
	if first < 2 {
		t.Fatalf("logical time did not advance: CCN=%d", first)
	}
	for _, n := range s.nodes[1:] {
		if n.ccn != first {
			t.Fatalf("nodes disagree on logical time: %d vs %d", n.ccn, first)
		}
	}
}

func TestValidationAdvances(t *testing.T) {
	s := testSystem(t, 3)
	s.Start()
	s.Run(300_000)
	if s.RPCN() < 2 || s.Validations == 0 {
		t.Fatalf("recovery point stuck: rpcn=%d validations=%d", s.RPCN(), s.Validations)
	}
}

func TestDroppedDataResponseRecovers(t *testing.T) {
	s := testSystem(t, 4)
	arm(t, s, fault.DropOnce{At: 50_000})
	s.Start()
	s.Run(400_000)
	if s.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", s.Dropped())
	}
	if s.Recoveries == 0 {
		t.Fatal("lost data response did not trigger a recovery")
	}
	before := s.TotalInstrs()
	s.Run(600_000)
	if s.TotalInstrs() <= before {
		t.Fatal("no forward progress after recovery")
	}
	if !s.Quiesce(200_000) {
		t.Fatal("failed to quiesce post-recovery")
	}
	if errs := s.CheckCoherence(); len(errs) != 0 {
		t.Fatalf("post-recovery violations: %v", errs[:minInt(len(errs), 5)])
	}
}

// TestRecoveryKeepsInvariants forces recoveries at arbitrary points and
// checks coherence invariants and liveness afterwards. (Exact-value
// rollback is verified by TestRollbackRestoresStoreValues with a
// controlled writer.)
func TestRecoveryKeepsInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		s := testSystem(t, seed)
		s.Start()
		s.Run(120_000)
		s.Recover()
		s.Run(s.Engine().Now() + 10_000)
		if !s.Quiesce(200_000) {
			t.Fatalf("seed %d: quiesce failed after recovery", seed)
		}
		if errs := s.CheckCoherence(); len(errs) != 0 {
			t.Fatalf("seed %d: post-recovery violations: %v", seed, errs[:minInt(len(errs), 5)])
		}
		s.Resume()
		before := s.TotalInstrs()
		s.Run(s.Engine().Now() + 100_000)
		if s.TotalInstrs() <= before {
			t.Fatalf("seed %d: wedged after forced recovery", seed)
		}
	}
}

// txnResult records the completion of a hand-issued transaction.
type txnResult struct {
	done bool
	val  uint64
}

// issueTxn hands n a bus transaction for addr without running its
// processor, which would retire instructions and issue its own. A store
// writes val. The result is filled in when the transaction completes.
func issueTxn(s *System, n *Node, kind ReqKind, addr uint64, store bool, val uint64) *txnResult {
	if n.txn != nil {
		panic("issueTxn: transaction already in flight")
	}
	res := &txnResult{}
	t := &txn{kind: kind, addr: addr, isStore: store, storeVal: val, startCCN: n.ccn,
		done: func(v uint64) { res.done, res.val = true, v }}
	n.txn = t
	t.slot = s.bus.Issue(&Request{Kind: kind, Addr: addr, Requestor: n.id})
	return res
}

// runUntil advances s a cycle at a time until cond holds, for at most
// budget cycles, and reports whether it held.
func runUntil(s *System, budget sim.Time, cond func() bool) bool {
	deadline := s.eng.Now() + budget
	for !cond() && s.eng.Now() < deadline {
		s.eng.Run(s.eng.Now() + 1)
	}
	return cond()
}

// TestRollbackRestoresStoreValues verifies exact value rollback with a
// controlled single writer. The processors never run: the test quiesces
// the system first (the pause is sticky across recoveries) and drives
// node 0's transactions by hand.
func TestRollbackRestoresStoreValues(t *testing.T) {
	s := testSystem(t, 9)
	if !s.Quiesce(1_000) {
		t.Fatal("fresh system failed to quiesce")
	}
	n0 := s.nodes[0]

	write := func(addr, val uint64) {
		t.Helper()
		res := issueTxn(s, n0, BusGETX, addr, true, val)
		if !runUntil(s, 100_000, func() bool { return res.done }) {
			t.Fatalf("write to %#x never completed", addr)
		}
	}
	const addr = 0x1000
	checkValue := func(want uint64, what string) {
		t.Helper()
		if n := s.TotalInstrs(); n != 0 {
			t.Fatalf("%s: %d instructions retired; the processors must stay paused", what, n)
		}
		if got := s.valueOf(addr); got != want {
			t.Fatalf("%s: value = %d, want %d", what, got, want)
		}
	}

	write(addr, 111)

	// Advance logical time past an edge by issuing filler traffic, so
	// checkpoint k captures value 111, then validate.
	for i := uint64(0); i < s.interval+4; i++ {
		write(0x40000+i*64, i)
	}
	s.tryValidate()
	rpcn := s.RPCN()
	if rpcn < 2 {
		t.Fatalf("validation did not advance: %d", rpcn)
	}
	checkValue(111, "pre-fault")

	// Overwrite in the unvalidated present, then recover.
	write(addr, 222)
	checkValue(222, "overwrite")
	s.Recover()
	s.Run(s.eng.Now() + 10_000)
	if s.RPCN() < rpcn {
		t.Fatal("recovery point regressed")
	}
	// The write of 222 happened after the last validated edge, so it
	// must have been undone.
	checkValue(111, "after recovery")
}

// TestParkedWritebackResponds covers the writeback buffer as a snoop
// responder: an evicted owned block stays its owner's until the PUTX
// slot orders the writeback, so a request ordered between the eviction
// and that slot is served from the buffer. With 1-set, 1-way L2s, node
// 0's fill of B evicts A; a long bus occupancy and a short data latency,
// set before any traffic, let node 1's request for A, issued beside that
// fill, take the slot after it, before the PUTX the fill issues.
func TestParkedWritebackResponds(t *testing.T) {
	for _, kind := range []ReqKind{BusGETS, BusGETX} {
		t.Run(kind.String(), func(t *testing.T) {
			p := config.SmallSnoop()
			p.L2Bytes, p.L2Ways = p.BlockBytes, 1
			s := New(p, workload.Stress())
			s.bus.occupancy, s.dataLatency = 100, 5
			if !s.Quiesce(1_000) {
				t.Fatal("fresh system failed to quiesce")
			}
			n0, n1 := s.nodes[0], s.nodes[1]
			// Homes 2 and 3: neither requestor's own bank.
			const a, b, aVal = 0x80, 0xc0, 0xa1
			parked := func() bool { _, ok := n0.wbs[a]; return ok }

			w := issueTxn(s, n0, BusGETX, a, true, aVal)
			if !runUntil(s, 1_000, func() bool { return w.done }) {
				t.Fatal("node 0's write of A never completed")
			}
			issueTxn(s, n0, BusGETX, b, true, 0xb2)
			req := issueTxn(s, n1, kind, a, false, 0)
			reqSlot := n1.txn.slot
			if !runUntil(s, 1_000, parked) {
				t.Fatal("filling B did not park A in node 0's writeback buffer")
			}
			putxSlot := s.bus.slots
			if reqSlot >= putxSlot {
				t.Fatalf("node 1's slot %d is not before the PUTX slot %d", reqSlot, putxSlot)
			}

			if !runUntil(s, 1_000, func() bool { return req.done }) {
				t.Fatal("node 1's request for A never completed")
			}
			if s.bus.Broadcasts >= putxSlot {
				t.Fatal("the PUTX was ordered before node 1's data arrived")
			}
			if req.val != aVal {
				t.Fatalf("node 1 received %#x, want %#x", req.val, aVal)
			}
			wantState := cache.Shared
			if kind == BusGETX {
				wantState = cache.Modified
			}
			if l := n1.l2.Lookup(a); l == nil || l.State != wantState || l.Data != aVal {
				t.Fatalf("node 1's copy of A = %+v, want %v with %#x", l, wantState, aVal)
			}
			// A GETS leaves ownership in the buffer; a GETX takes it.
			if got, want := parked(), kind == BusGETS; got != want {
				t.Fatalf("A parked in node 0's buffer = %v, want %v", got, want)
			}

			if !runUntil(s, 1_000, func() bool { return s.bus.Broadcasts >= putxSlot }) {
				t.Fatal("the PUTX was never ordered")
			}
			if parked() {
				t.Fatal("A still parked after its PUTX slot")
			}
			if !s.Quiesce(10_000) {
				t.Fatal("failed to quiesce")
			}
			if errs := s.CheckCoherence(); len(errs) != 0 {
				t.Fatalf("violations: %v", errs)
			}
			if got := s.valueOf(a); got != aVal {
				t.Fatalf("A = %#x after the writeback, want %#x", got, aVal)
			}
			if n := s.TotalInstrs(); n != 0 {
				t.Fatalf("%d instructions retired; the processors must stay paused", n)
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		s := testSystem(t, 7)
		s.Start()
		s.Run(200_000)
		return s.TotalInstrs(), s.bus.Broadcasts
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", a1, b1, a2, b2)
	}
}

func TestLoggingDedupOnSnoopSubstrate(t *testing.T) {
	s := testSystem(t, 8)
	s.Start()
	s.Run(300_000)
	var stores, logged uint64
	for _, n := range s.nodes {
		stores += n.Stores
		logged += n.clb.Appends() - n.clb.TransferAppends()
	}
	if stores == 0 || logged == 0 {
		t.Fatalf("no store activity: %d/%d", logged, stores)
	}
	if logged >= stores {
		t.Fatalf("dedup ineffective: %d logged of %d stores", logged, stores)
	}
}

// TestFaultPlanOnSnoopBackend arms the shared composable fault events on
// the snoop data network: drops and corruptions recover, duplicates are
// absorbed by transaction matching, and events the bus cannot express are
// rejected at arm time.
func TestFaultPlanOnSnoopBackend(t *testing.T) {
	s := testSystem(t, 11)
	plan := fault.Plan{
		fault.DropOnce{At: 50_000},
		fault.DuplicateOnce{At: 150_000},
	}
	if err := plan.Arm(s.FaultTarget()); err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Run(500_000)
	if s.Dropped() != 1 || s.Duplicated() != 1 {
		t.Fatalf("dropped=%d duplicated=%d, want 1/1", s.Dropped(), s.Duplicated())
	}
	if s.Recoveries == 0 {
		t.Fatal("dropped data response did not recover")
	}
	if !s.Quiesce(300_000) {
		t.Fatal("failed to quiesce")
	}
	if errs := s.CheckCoherence(); len(errs) != 0 {
		t.Fatalf("violations: %v", errs[:minInt(len(errs), 5)])
	}
}

// TestLayeredPeriodicDrops: two DropEvery schedules armed on one run
// both fire, mirroring the directory network's independent drop rules.
func TestLayeredPeriodicDrops(t *testing.T) {
	s := testSystem(t, 14)
	plan := fault.Plan{
		fault.DropEvery{Start: 40_000, Period: 400_000},
		fault.DropEvery{Start: 120_000, Period: 400_000},
	}
	if err := plan.Arm(s.FaultTarget()); err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Run(350_000)
	if s.Dropped() < 2 {
		t.Fatalf("dropped = %d, want both schedules to fire", s.Dropped())
	}
	if s.Recoveries == 0 {
		t.Fatal("no recovery despite layered drops")
	}
}

func TestCorruptedDataResponseRecovers(t *testing.T) {
	s := testSystem(t, 12)
	if err := (fault.Plan{fault.CorruptOnce{At: 60_000}}).Arm(s.FaultTarget()); err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Run(500_000)
	if s.Corrupted() != 1 {
		t.Fatalf("corrupted = %d, want 1", s.Corrupted())
	}
	if s.Recoveries == 0 {
		t.Fatal("corrupted data response did not trigger a recovery")
	}
	if !s.Quiesce(300_000) {
		t.Fatal("failed to quiesce")
	}
	if errs := s.CheckCoherence(); len(errs) != 0 {
		t.Fatalf("violations: %v", errs[:minInt(len(errs), 5)])
	}
}

func TestUnsupportedEventsRejectedAtArmTime(t *testing.T) {
	s := testSystem(t, 13)
	for _, ev := range []fault.Event{
		fault.KillSwitch{Node: 1, Axis: topology.EW, At: 10_000},
		fault.MisrouteOnce{At: 10_000},
	} {
		err := ev.Arm(s.FaultTarget())
		if !errors.Is(err, fault.ErrUnsupported) {
			t.Fatalf("%s: err = %v, want ErrUnsupported", ev, err)
		}
	}
}

// TestNonStandardBlockSize covers the satellite fix for the formerly
// hardcoded 64-byte home interleave: with 128-byte blocks the home
// function must still spread blocks across every bank, and a full run
// must stay coherent.
func TestNonStandardBlockSize(t *testing.T) {
	p := testParams(5)
	p.BlockBytes = 128
	p.L2Bytes = 32 << 10 // 64 sets, as at 64-byte blocks
	s := New(p, workload.Stress())

	seen := make(map[int]bool)
	for i := uint64(0); i < 64; i++ {
		h := s.home(i * uint64(p.BlockBytes))
		if h < 0 || h >= p.NumNodes {
			t.Fatalf("home(%d) = %d out of range", i, h)
		}
		seen[h] = true
	}
	if len(seen) != p.NumNodes {
		// The old addr/64 interleave maps 128-byte-aligned addresses onto
		// even banks only; deriving from the configured block size must
		// reach all of them.
		t.Fatalf("homes cover %d of %d banks", len(seen), p.NumNodes)
	}

	s.Start()
	s.Run(300_000)
	if s.TotalInstrs() == 0 {
		t.Fatal("no progress with 128-byte blocks")
	}
	if !s.Quiesce(200_000) {
		t.Fatal("failed to quiesce")
	}
	if errs := s.CheckCoherence(); len(errs) != 0 {
		t.Fatalf("violations: %v", errs[:minInt(len(errs), 5)])
	}
}

// TestCheckpointIntervalInSlots checks the one derivation New makes: the
// checkpoint interval is re-expressed in bus slots, clamped to one.
func TestCheckpointIntervalInSlots(t *testing.T) {
	for _, c := range []struct{ cycles, slots uint64 }{
		{1_536, 128},
		{100_000, 8_333},
		{busOccupancy, 1},
		{busOccupancy - 1, 1},
	} {
		p := testParams(1)
		p.CheckpointIntervalCycles, p.ValidationSignoffCycles = c.cycles, c.cycles
		if got := New(p, workload.Stress()).interval; got != c.slots {
			t.Errorf("%d-cycle interval = %d slots, want %d", c.cycles, got, c.slots)
		}
	}
}

// BenchmarkSnoopDataSend covers the satellite fix moving the data
// network's per-message closure onto the pooled ScheduleArg path: the
// steady-state send-deliver round trip must not allocate.
func BenchmarkSnoopDataSend(b *testing.B) {
	p := config.SmallSnoop()
	// Push the watchdog beyond the benchmark horizon: the processors are
	// never started, so a watchdog recovery would wake them and measure
	// the whole system instead of the data network.
	p.ValidationWatchdogCycles = 1 << 40
	s := New(p, workload.Stress())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.sendData(0, 1, 0x1000, uint64(i), 1, 0)
		s.eng.Run(s.eng.Now() + s.dataLatency + 1)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
