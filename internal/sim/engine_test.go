package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 100 {
		t.Fatalf("clock should advance to until when idle, got %d", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run(5)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events must fire in scheduling order, got %v", order)
		}
	}
}

func TestEngineRunUntilBoundary(t *testing.T) {
	e := NewEngine()
	ran := map[Time]bool{}
	e.Schedule(10, func() { ran[10] = true })
	e.Schedule(11, func() { ran[11] = true })
	if got := e.Run(10); got != 10 {
		t.Fatalf("Run(10) = %d, want 10", got)
	}
	if !ran[10] {
		t.Fatal("event at the until boundary must run")
	}
	if ran[11] {
		t.Fatal("event past the boundary must not run")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	if got := e.Run(11); got != 11 {
		t.Fatalf("Run(11) = %d, want 11", got)
	}
	if !ran[11] {
		t.Fatal("resumed run must dispatch the remaining event")
	}

	// Run reaches until whether or not events remain beyond it, and an
	// empty queue still advances the clock.
	e = NewEngine()
	e.Schedule(5, func() {})
	e.Schedule(500, func() {})
	if got := e.Run(100); got != 100 || e.Now() != 100 {
		t.Fatalf("Run(100) = %d (now %d), want 100 with an event pending at 500", got, e.Now())
	}
	if got := NewEngine().Run(77); got != 77 {
		t.Fatalf("Run(77) on an empty engine = %d, want 77", got)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(50, func() {})
	e.Run(50)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past must panic")
		}
	}()
	e.Schedule(10, func() {})
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.After(7, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run(1000)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Executed() != 5 {
		t.Fatalf("executed = %d, want 5", e.Executed())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(1, func() { ran++; e.Stop() })
	e.Schedule(2, func() { ran++ })
	if got := e.Run(10); got != 1 {
		t.Fatalf("Run(10) = %d, want 1: a stopped run returns the cycle of the event that stopped it", got)
	}
	if ran != 1 {
		t.Fatalf("ran = %d, want 1 (Stop must halt dispatch)", ran)
	}
	if !e.Stopped() {
		t.Fatal("Stopped() must report true after Stop")
	}
}

func TestEngineCancelable(t *testing.T) {
	e := NewEngine()
	fired := false
	cancel := e.ScheduleCancelable(10, func() { fired = true })
	far := e.ScheduleCancelable(10*wheelSize, func() { fired = true })
	cancel.Cancel()
	far.Cancel()
	if e.Pending() != 0 {
		t.Fatalf("pending after cancel = %d, want 0: a cancelled event leaves the queue at once", e.Pending())
	}
	e.Run(20)
	if fired {
		t.Fatal("canceled event must not fire")
	}
	// Canceling twice, or after the window, is harmless.
	cancel.Cancel()

	fired2 := false
	c2 := e.ScheduleCancelable(30, func() { fired2 = true })
	e.Run(40)
	if !fired2 {
		t.Fatal("non-canceled event must fire")
	}
	c2.Cancel() // after firing: no-op
}

// ScheduleCancelableArg delivers its argument, cancels like
// ScheduleCancelable, and keeps the ordering key a plain schedule from
// the same site would get.
func TestEngineCancelableArg(t *testing.T) {
	e := NewEngine()
	var got []int
	record := func(a any) { got = append(got, *a.(*int)) }
	one, two, three := 1, 2, 3
	c := e.ScheduleCancelableArg(10, record, &one)
	e.ScheduleCancelableArg(10, record, &two)
	e.ScheduleArg(10, record, &three)
	c.Cancel()
	e.Run(20)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("fired %v, want [2 3]", got)
	}
	c.Cancel() // after the window: no-op
	if n := testing.AllocsPerRun(100, func() {
		e.ScheduleCancelableArg(e.Now()+5, record, &one).Cancel()
		e.Run(e.Now() + 10)
	}); n != 0 {
		t.Fatalf("ScheduleCancelableArg allocates %.1f per call", n)
	}
}

// A Canceler must stay inert after its event fired, even when the slot
// has been recycled for a newer event (the generation count protects the
// new occupant).
func TestEngineCancelAfterFireDoesNotKillReusedSlot(t *testing.T) {
	e := NewEngine()
	c1 := e.ScheduleCancelable(5, func() {})
	e.Run(10)
	fired := false
	// The freed slot is recycled for this event.
	e.ScheduleCancelable(20, func() { fired = true })
	c1.Cancel() // stale handle: generation mismatch, must be a no-op
	e.Run(30)
	if !fired {
		t.Fatal("stale Cancel killed an unrelated rescheduled event")
	}
}

// The zero-value Canceler cancels nothing and never panics.
func TestEngineZeroCanceler(t *testing.T) {
	var c Canceler
	c.Cancel()
	c.Cancel()
}

func TestEngineDrain(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(5, func() { fired = true })
	e.Schedule(6, func() { fired = true })
	e.Drain()
	if e.Pending() != 0 {
		t.Fatalf("pending after drain = %d, want 0", e.Pending())
	}
	e.Run(10)
	if fired {
		t.Fatal("drained events must not fire")
	}
	// The engine remains usable after a drain.
	ok := false
	e.Schedule(20, func() { ok = true })
	e.Run(20)
	if !ok {
		t.Fatal("engine must accept events after drain")
	}
}

// Same-cycle FIFO order must hold even when the tied events entered the
// queue through different paths: one beyond the calendar window (overflow
// heap, migrated into its bucket as the window slides) and one scheduled
// directly into the window later.
func TestEngineFIFOTiesAcrossBucketBoundary(t *testing.T) {
	e := NewEngine()
	far := Time(3 * wheelSize) // well beyond the initial window
	var order []int
	e.Schedule(far, func() { order = append(order, 1) }) // via overflow
	e.Schedule(far-1, func() {
		// By now the window covers far: this lands in the bucket the
		// overflow event migrated into, and must fire after it.
		e.Schedule(far, func() { order = append(order, 2) })
	})
	e.Run(far + 1)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("overflow-migrated event must keep FIFO priority, got %v", order)
	}
}

// Two pending events whose cycles are congruent modulo the wheel size must
// not share a bucket list: the later one sits in the overflow until the
// window reaches it.
func TestEngineCongruentCyclesStaySorted(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(5+wheelSize, func() { order = append(order, 2) })
	e.Schedule(5, func() { order = append(order, 1) })
	e.Run(5 + 2*wheelSize)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("congruent cycles dispatched out of order: %v", order)
	}
}

// Drain must also discard overflow events, and the engine must accept and
// dispatch new near- and far-horizon work afterwards.
func TestEngineDrainDiscardsOverflowThenReschedules(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(3, func() { fired = true })
	e.Schedule(10*wheelSize, func() { fired = true })
	c := e.ScheduleCancelable(7, func() { fired = true })
	e.Drain()
	if e.Pending() != 0 {
		t.Fatalf("pending after drain = %d, want 0", e.Pending())
	}
	c.Cancel() // stale handle into a drained slot: must be a no-op
	var order []int
	e.Schedule(2*wheelSize, func() { order = append(order, 2) })
	e.Schedule(50, func() { order = append(order, 1) })
	e.Run(3 * wheelSize)
	if fired {
		t.Fatal("drained events must not fire")
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("post-drain dispatch order wrong: %v", order)
	}
}

// Scheduling at exactly Now() between runs must dispatch promptly and in
// time order, even when the previous Run dispatched an event exactly at
// its until boundary with later events still pending (the window must not
// slide past the clock).
func TestEngineScheduleAtNowAfterBoundaryRun(t *testing.T) {
	e := NewEngine()
	var order []int
	var times []Time
	e.Schedule(100, func() { order = append(order, 1); times = append(times, e.Now()) })
	e.Schedule(150, func() { order = append(order, 3); times = append(times, e.Now()) })
	e.Run(100) // fires the cycle-100 event; the cycle-150 event stays pending
	e.Schedule(e.Now(), func() { order = append(order, 2); times = append(times, e.Now()) })
	e.Run(1000)
	want := []int{1, 2, 3}
	wantT := []Time{100, 100, 150}
	for i := range want {
		if i >= len(order) || order[i] != want[i] || times[i] != wantT[i] {
			t.Fatalf("dispatch (order, time) = (%v, %v), want (%v, %v)", order, times, want, wantT)
		}
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("clock ran backwards: %v", times)
		}
	}
}

// When an idle Run re-anchors the window at the clock, overflow events the
// raised horizon now covers must keep FIFO priority over same-cycle events
// scheduled directly afterwards.
func TestEngineFIFOAfterIdleRunReanchor(t *testing.T) {
	e := NewEngine()
	far := wheelSize + 8
	var order []int
	e.Schedule(far, func() { order = append(order, 1) }) // overflow at schedule time
	e.Run(100)                                           // idle: re-anchors the window at 100, far is now inside it
	e.Schedule(far, func() { order = append(order, 2) }) // same cycle, later seq
	e.Run(2 * wheelSize)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("re-anchor broke FIFO within cycle %d: %v", far, order)
	}
}

// Property: for any set of (time, id) pairs, dispatch order is sorted by
// time with FIFO tie-break.
func TestEngineDispatchOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, d := range delays {
			at := Time(d)
			i := i
			e.Schedule(at, func() { got = append(got, rec{at, i}) })
		}
		e.Run(1 << 20)
		if len(got) != len(delays) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].at > got[i].at {
				return false
			}
			if got[i-1].at == got[i].at && got[i-1].seq > got[i].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFreeListRecycles(t *testing.T) {
	var f FreeList[[4]uint64]
	a := f.Get()
	a[0] = 7
	f.Put(a)
	if b := f.Get(); b != a || b[0] != 7 {
		t.Fatal("Get must return the recycled record with its contents")
	}
	if c := f.Get(); c == a || c[0] != 0 {
		t.Fatal("an empty list must return a new zero record")
	}
	f.Put(a)
	if n := testing.AllocsPerRun(100, func() { f.Put(f.Get()) }); n != 0 {
		t.Fatalf("steady-state Get/Put allocates %.1f", n)
	}
}
