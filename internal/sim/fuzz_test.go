package sim

import "testing"

// FuzzEngineOps decodes its input into a mix of queue operations —
// schedules of every flavour at horizons from 0 to about 4×wheelSize,
// cross-node posts from a few owners, cancels of live, fired and
// already-cancelled handles, drains, runs to random limits, and the
// merged executor's peek and single step — and applies each to an
// Engine and to a plain reference model in lock step.
// The model keeps its live events in a slice and always dispatches the
// least by (cycle, owner, class, source, sequence), the order the package
// comment promises. Events may act when they fire (schedule, post or
// cancel), so cancels also land in the bucket being dispatched. After
// every operation and every dispatch, Pending must equal the number of
// live events: a cancelled event must leave the queue at once.
func FuzzEngineOps(f *testing.F) {
	// Pseudo-random seeds reach every operation with queues of up to
	// about 80 events. The first hand-made seed cancels the middle, tail
	// and head of one cycle's bucket, then a timer below the overflow
	// heap's root, and schedules into the bucket again; the second
	// cancels a heap entry whose replacement must sift up; the third
	// cancels the event a peek just reported.
	for seed := uint64(1); seed <= 12; seed++ {
		r := NewRand(seed)
		b := make([]byte, 128*int(seed))
		for i := range b {
			b[i] = byte(r.Uint64())
		}
		f.Add(b)
	}
	f.Add([]byte{
		0x33, 2, 0, 0x33, 2, 0, 0x33, 2, 0, 0x33, 2, 0, // four timers at now+2
		0x33, 0xff, 0xff, 0, 0x33, 0xc0, 0, 0, 0x33, 0xa0, 0, 0, // three in the heap
		8, 4, 8, 3, 8, 6, 8, 2, 8, 4, // cancel middle, tail, head, a heap leaf, stale
		0x33, 2, 0, // append to the bucket behind its remaining event
		13, 0x90, // run 144 cycles
	})
	f.Add([]byte{
		// Timers at 10000, 20000, 11000, 21000, 22000 and 12000 make a
		// heap whose last entry (12000) lands under 20000 when 21000 is
		// cancelled.
		0x33, 0xa7, 0x10, 0, 0x33, 0xce, 0x20, 0, 0x33, 0xaa, 0xf8, 0,
		0x33, 0xd2, 0x08, 0, 0x33, 0xd5, 0xf0, 0, 0x33, 0xae, 0xe0, 0,
		8, 2,
	})
	f.Add([]byte{
		0x33, 2, 0, 0x33, 3, 0, // timers at now+2 and now+3
		0x0c, 8, 1, 0x1c, // peek, cancel the head peek reported, step
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		newOpsHarness(t, data).run()
	})
}

const fuzzOwners = 4 // owners 0..3 besides the global owner -1

// fuzzEvent is one event of the reference model. Local schedules order
// by their owner's schedule sequence; posts (class 1) after them, by
// source owner and the source's post sequence.
type fuzzEvent struct {
	at    Time
	owner int32
	class int
	src   int32
	seq   uint64
	act   byte // what the event does when it fires
}

func fuzzLess(a, b *fuzzEvent) bool {
	switch {
	case a.at != b.at:
		return a.at < b.at
	case a.owner != b.owner:
		return a.owner < b.owner
	case a.class != b.class:
		return a.class < b.class
	case a.src != b.src:
		return a.src < b.src
	}
	return a.seq < b.seq
}

// opsHarness drives an Engine and the reference model from one input.
type opsHarness struct {
	t      *testing.T
	in     []byte
	e      *Engine
	fireFn func(any)

	// Reference model: clock, current owner, per-owner counters, live
	// events, and the Run limit in force.
	now    Time
	owner  int32
	local  [fuzzOwners + 1]uint64
	remote [fuzzOwners + 1]uint64
	live   []*fuzzEvent
	limit  Time

	handles []fuzzHandle
}

type fuzzHandle struct {
	c  Canceler
	ev *fuzzEvent
}

func newOpsHarness(t *testing.T, data []byte) *opsHarness {
	h := &opsHarness{t: t, in: data, e: NewEngine(), owner: -1}
	h.fireFn = func(a any) { h.fire(a.(*fuzzEvent)) }
	return h
}

// next consumes one input byte; an exhausted input reads as zeros.
func (h *opsHarness) next() byte {
	if len(h.in) == 0 {
		return 0
	}
	b := h.in[0]
	h.in = h.in[1:]
	return b
}

// horizon decodes a delay: 0–7 cycles half the time, so buckets hold
// several events, otherwise anything up to 4×wheelSize.
func (h *opsHarness) horizon() Time {
	b := h.next()
	if b&0x80 == 0 {
		return Time(b & 7)
	}
	return Time(b&0x7f)<<8 | Time(h.next())
}

func (h *opsHarness) run() {
	for len(h.in) > 0 {
		op := h.next()
		// Most runs advance under 256 cycles and drains are rare, so
		// far timers pile up in the overflow heap (dozens deep) before
		// the window reaches them.
		switch op % 16 {
		case 0, 1, 2, 3, 4, 5:
			h.schedule(op >> 4)
		case 6, 7:
			h.post()
		case 8, 9, 10:
			h.cancel()
		case 11:
			h.owner = int32(op>>4)%(fuzzOwners+1) - 1
			h.e.SetOwner(int(h.owner))
		case 12:
			h.peekStep(op&0x10 != 0)
		case 15:
			switch op >> 4 {
			case 15:
				h.e.Drain()
				h.live = h.live[:0]
			case 14:
				h.runTo(h.now + h.horizon())
			default:
				h.runTo(h.now + Time(h.next()))
			}
		default:
			h.runTo(h.now + Time(h.next()))
		}
		h.check()
	}
	h.runTo(h.now + 5*wheelSize)
	if len(h.live) != 0 {
		h.t.Fatalf("%d live events never fired", len(h.live))
	}
}

func (h *opsHarness) add(ev *fuzzEvent) {
	ev.act = h.next()
	h.live = append(h.live, ev)
}

// schedule makes a local schedule through one of the four entry points.
func (h *opsHarness) schedule(kind byte) {
	at := h.now + h.horizon()
	o := h.owner + 1
	ev := &fuzzEvent{at: at, owner: h.owner, seq: h.local[o]}
	h.local[o]++
	h.add(ev)
	switch kind % 4 {
	case 0:
		h.e.Schedule(at, func() { h.fire(ev) })
	case 1:
		h.e.ScheduleArg(at, h.fireFn, ev)
	case 2:
		h.handles = append(h.handles, fuzzHandle{h.e.ScheduleCancelable(at, func() { h.fire(ev) }), ev})
	case 3:
		h.handles = append(h.handles, fuzzHandle{h.e.ScheduleCancelableArg(at, h.fireFn, ev), ev})
	}
}

// post sends a cross-node event from the current owner.
func (h *opsHarness) post() {
	to := int32(h.next() % fuzzOwners)
	at := h.now + h.horizon()
	o := h.owner + 1
	ev := &fuzzEvent{at: at, owner: to, class: 1, src: h.owner, seq: h.remote[o]}
	h.remote[o]++
	h.add(ev)
	h.e.Post(int(h.owner), int(to), at, h.fireFn, ev)
}

// cancel cancels one of the 256 most recent handles, which may be live,
// fired, cancelled or drained, or the zero Canceler when none exists.
func (h *opsHarness) cancel() {
	n := len(h.handles)
	if n == 0 {
		Canceler{}.Cancel()
		return
	}
	fh := h.handles[n-1-int(h.next())%min(n, 256)]
	fh.c.Cancel()
	for i, ev := range h.live {
		if ev == fh.ev {
			h.live = append(h.live[:i], h.live[i+1:]...)
			break
		}
	}
}

func (h *opsHarness) runTo(limit Time) {
	h.limit = limit
	h.e.Run(limit)
	for _, ev := range h.live {
		if ev.at <= limit {
			h.t.Fatalf("Run(%d) left the event at cycle %d undispatched", limit, ev.at)
		}
	}
	h.now, h.owner = limit, -1
	if h.e.Now() != h.now || h.e.Owner() != -1 {
		h.t.Fatalf("after Run(%d): now %d owner %d, want %d and -1", limit, h.e.Now(), h.e.Owner(), h.now)
	}
}

// peekStep checks peek against the model's least live event and, when
// step is set, dispatches that one event the way the sharded engine's
// merged executor does.
func (h *opsHarness) peekStep(step bool) {
	at, owner, _, ok := h.e.peek()
	m := h.least()
	if !ok || m < 0 {
		if ok || m >= 0 {
			h.t.Fatalf("peek ok = %v with %d live events", ok, len(h.live))
		}
		return
	}
	if ev := h.live[m]; at != ev.at || owner != ev.owner {
		h.t.Fatalf("peek = (%d, %d), want (%d, %d)", at, owner, ev.at, ev.owner)
	}
	if step {
		h.limit = at
		h.e.AdvanceTo(at)
		h.e.stepOne()
	}
}

// least returns the index of the model's least live event, or -1.
func (h *opsHarness) least() int {
	m := -1
	for i := range h.live {
		if m < 0 || fuzzLess(h.live[i], h.live[m]) {
			m = i
		}
	}
	return m
}

// fire is every event's callback: ev must be the model's least live
// event, within the Run limit, and the engine must dispatch it in its
// owner's context. Then it performs ev's action on both sides.
func (h *opsHarness) fire(ev *fuzzEvent) {
	m := h.least()
	if m < 0 || h.live[m] != ev || ev.at > h.limit {
		h.t.Fatalf("dispatched %+v out of order (limit %d, %d live)", *ev, h.limit, len(h.live))
	}
	h.live = append(h.live[:m], h.live[m+1:]...)
	if h.e.Now() != ev.at || h.e.Owner() != int(ev.owner) {
		h.t.Fatalf("%+v dispatched at now %d owner %d", *ev, h.e.Now(), h.e.Owner())
	}
	h.now, h.owner = ev.at, ev.owner
	h.check()
	switch ev.act % 8 {
	case 5:
		h.schedule(h.next())
	case 6:
		h.post()
	case 7:
		h.cancel()
	}
}

// check compares Pending with the model's live events, and checks the
// overflow heap's order and the positions its slots record.
func (h *opsHarness) check() {
	if got := h.e.Pending(); got != len(h.live) {
		h.t.Fatalf("Pending() = %d, want %d live events", got, len(h.live))
	}
	ov := h.e.overflow
	for i := range ov {
		if hi := h.e.slots[ov[i].idx].hidx; int(hi) != i {
			h.t.Fatalf("overflow entry %d records heap index %d", i, hi)
		}
		if i > 0 && ovLess(ov[i], ov[(i-1)/2]) {
			h.t.Fatalf("overflow entry %d orders before its parent", i)
		}
	}
}
