package network

import (
	"testing"

	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/msg"
	"safetynet/internal/sim"
	"safetynet/internal/topology"
)

func testNet(t *testing.T) (*sim.Engine, *Network, *[]*msg.Message) {
	t.Helper()
	eng := sim.NewEngine()
	topo := topology.New(4, 4)
	nw := New(eng, topo, config.Default())
	var got []*msg.Message
	for n := 0; n < 16; n++ {
		n := n
		nw.Attach(n, func(m *msg.Message) {
			if m.Dst != n {
				t.Errorf("node %d received message for %d", n, m.Dst)
			}
			got = append(got, m)
		})
	}
	return eng, nw, &got
}

func TestDeliveryBasic(t *testing.T) {
	eng, nw, got := testNet(t)
	nw.Send(&msg.Message{Type: msg.GETS, Src: 0, Dst: 5})
	eng.Run(10_000)
	if len(*got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(*got))
	}
	s := nw.Stats()
	if s.Sent != 1 || s.Delivered != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDeliveryLatencyUncontended(t *testing.T) {
	eng, nw, got := testNet(t)
	p := config.Default()
	// 0 -> 1: inject + 2 switches + eject = 3 links, 3 hop latencies... the
	// model: inject link then per-switch (hop + out-link). Route len 2.
	// Latency = (ser + hop) * (len(route)+1) with ser = ctrl serialization.
	ser := sim.Time(p.SerializationCycles(msg.Size(msg.GETS, p.BlockBytes)))
	hop := sim.Time(p.SwitchHopCycles)
	want := (ser + hop) * 3
	var at sim.Time
	nw.Attach(1, func(m *msg.Message) { at = eng.Now() })
	nw.Send(&msg.Message{Type: msg.GETS, Src: 0, Dst: 1})
	eng.Run(1 << 30)
	_ = got
	if at != want {
		t.Fatalf("latency = %d, want %d", at, want)
	}
}

func TestLocalDelivery(t *testing.T) {
	eng, nw, got := testNet(t)
	nw.Send(&msg.Message{Type: msg.GETS, Src: 3, Dst: 3})
	eng.Run(1000)
	if len(*got) != 1 {
		t.Fatal("local message not delivered")
	}
}

func TestFIFOOrderOnSameRoute(t *testing.T) {
	eng, nw, got := testNet(t)
	for i := 0; i < 20; i++ {
		nw.Send(&msg.Message{Type: msg.Data, Src: 0, Dst: 2, Txn: uint64(i)})
	}
	eng.Run(1 << 20)
	if len(*got) != 20 {
		t.Fatalf("delivered %d, want 20", len(*got))
	}
	for i, m := range *got {
		if m.Txn != uint64(i) {
			t.Fatalf("FIFO violated: position %d got txn %d", i, m.Txn)
		}
	}
}

func TestContentionSerializesSharedLink(t *testing.T) {
	// Two data messages on the same route must not arrive at the same
	// time: the second pays serialization behind the first.
	eng, nw, _ := testNet(t)
	var times []sim.Time
	nw.Attach(2, func(m *msg.Message) { times = append(times, eng.Now()) })
	nw.Send(&msg.Message{Type: msg.Data, Src: 0, Dst: 2})
	nw.Send(&msg.Message{Type: msg.Data, Src: 0, Dst: 2})
	eng.Run(1 << 20)
	if len(times) != 2 {
		t.Fatalf("delivered %d, want 2", len(times))
	}
	p := config.Default()
	ser := sim.Time(p.SerializationCycles(msg.Size(msg.Data, p.BlockBytes)))
	if gap := times[1] - times[0]; gap < ser {
		t.Fatalf("arrival gap %d < serialization %d: contention not modeled", gap, ser)
	}
}

func TestDropRuleEatsMessage(t *testing.T) {
	eng, nw, got := testNet(t)
	nw.AddDropRule(func(m *msg.Message) bool { return m.Type == msg.Data })
	nw.Send(&msg.Message{Type: msg.Data, Src: 0, Dst: 5})
	nw.Send(&msg.Message{Type: msg.GETS, Src: 0, Dst: 5})
	eng.Run(1 << 20)
	if len(*got) != 1 || (*got)[0].Type != msg.GETS {
		t.Fatalf("drop rule failed: delivered %v", *got)
	}
	if nw.Stats().Dropped[DropInjectedFault] != 1 {
		t.Fatalf("drop not recorded: %+v", nw.Stats().Dropped)
	}
}

// arm arms a fault plan on the network's injector.
func arm(t *testing.T, eng *sim.Engine, nw *Network, p fault.Plan) {
	t.Helper()
	if err := p.Arm(fault.Target{Faults: nw.Faults(), Eng: eng, Topo: nw.Topology()}); err != nil {
		t.Fatal(err)
	}
}

func TestInjectDropOnce(t *testing.T) {
	eng, nw, got := testNet(t)
	arm(t, eng, nw, fault.Plan{fault.DropOnce{At: 100}})
	send := func(at sim.Time, ty msg.Type, txn uint64) {
		eng.Schedule(at, func() { nw.Send(&msg.Message{Type: ty, Src: 0, Dst: 5, Txn: txn}) })
	}
	send(10, msg.Data, 1)  // before arming: delivered
	send(150, msg.GETS, 2) // control: not eligible
	send(200, msg.Data, 3) // first eligible after arming: dropped
	send(300, msg.Data, 4) // one-shot: delivered
	eng.Run(1 << 20)
	if len(*got) != 3 {
		t.Fatalf("delivered %d, want 3", len(*got))
	}
	for _, m := range *got {
		if m.Txn == 3 {
			t.Fatal("message 3 should have been dropped")
		}
	}
}

func TestInjectDropEvery(t *testing.T) {
	eng, nw, got := testNet(t)
	arm(t, eng, nw, fault.Plan{fault.DropEvery{Start: 0, Period: 1000}})
	for i := 0; i < 5; i++ {
		at := sim.Time(i * 1000)
		txn := uint64(i)
		eng.Schedule(at+1, func() { nw.Send(&msg.Message{Type: msg.Data, Src: 0, Dst: 5, Txn: txn}) })
	}
	eng.Run(1 << 20)
	// Each period's first data message is dropped; all five land in
	// distinct periods, so all five drop.
	if len(*got) != 0 {
		t.Fatalf("delivered %d, want 0", len(*got))
	}
	nw.Faults().Disarm()
	nw.Send(&msg.Message{Type: msg.Data, Src: 0, Dst: 5, Txn: 99})
	eng.Run(1 << 21)
	if len(*got) != 1 {
		t.Fatal("disarm must stop the fault")
	}
}

func TestKilledSwitchDropsInFlightAndReroutes(t *testing.T) {
	eng, nw, got := testNet(t)
	// Kill node 1's EW half-switch, the destination switch of 0 -> 1, at
	// cycle 1 so the in-flight message meets a dead switch.
	arm(t, eng, nw, fault.Plan{fault.KillSwitch{Node: 1, Axis: topology.EW, At: 1}})
	nw.Send(&msg.Message{Type: msg.Data, Src: 0, Dst: 1, Txn: 1}) // routed through victim
	eng.Run(1 << 20)
	if nw.Stats().Dropped[DropDeadSwitch] != 1 {
		t.Fatalf("in-flight message should die at the dead switch: %+v", nw.Stats().Dropped)
	}
	// Post-fault traffic reroutes and arrives.
	nw.Send(&msg.Message{Type: msg.Data, Src: 0, Dst: 1, Txn: 2})
	eng.Run(1 << 21)
	if len(*got) != 1 || (*got)[0].Txn != 2 {
		t.Fatalf("rerouted message not delivered: %v", *got)
	}
}

func TestEpochDiscardsInFlightCoherence(t *testing.T) {
	eng, nw, got := testNet(t)
	nw.Send(&msg.Message{Type: msg.Data, Src: 0, Dst: 5, Txn: 1})
	nw.BumpEpoch() // recovery begins while the message is in flight
	eng.Run(1 << 20)
	if len(*got) != 0 {
		t.Fatal("stale-epoch coherence message must be discarded")
	}
	if nw.Stats().Dropped[DropStaleEpoch] != 1 {
		t.Fatalf("drop reason missing: %+v", nw.Stats().Dropped)
	}
	// Coordination messages survive epoch bumps.
	nw.Send(&msg.Message{Type: msg.Recover, Src: 0, Dst: 5})
	nw.BumpEpoch()
	eng.Run(1 << 21)
	if len(*got) != 1 {
		t.Fatal("coordination traffic must survive epoch bumps")
	}
}

func TestRecoveringModeQuiescesCoherence(t *testing.T) {
	eng, nw, got := testNet(t)
	nw.SetRecovering(true)
	nw.Send(&msg.Message{Type: msg.GETS, Src: 0, Dst: 5})
	nw.Send(&msg.Message{Type: msg.RecoverDone, Src: 0, Dst: 5})
	eng.Run(1 << 20)
	if len(*got) != 1 || (*got)[0].Type != msg.RecoverDone {
		t.Fatalf("recovering mode must pass only coordination traffic, got %v", *got)
	}
	nw.SetRecovering(false)
	nw.Send(&msg.Message{Type: msg.GETS, Src: 0, Dst: 5})
	eng.Run(1 << 21)
	if len(*got) != 2 {
		t.Fatal("coherence must flow again after recovery")
	}
}

func TestUnattachedHandlerPanics(t *testing.T) {
	eng := sim.NewEngine()
	nw := New(eng, topology.New(4, 4), config.Default())
	defer func() {
		if recover() == nil {
			t.Fatal("sending to an unattached node must panic")
		}
	}()
	nw.Send(&msg.Message{Type: msg.GETS, Src: 0, Dst: 5})
}
