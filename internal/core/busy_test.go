package core

import (
	"math"
	"testing"

	"safetynet/internal/msg"
	"safetynet/internal/sim"
)

// refBusy is the map the controllers kept before BusyQueue: a count per
// start CN, scanned on every readiness query.
type refBusy map[msg.CN]int

func (r refBusy) ready(ccn msg.CN) msg.CN {
	out := ccn
	for start, n := range r {
		if n > 0 && start < out {
			out = start
		}
	}
	return out
}

func (r refBusy) len() int {
	n := 0
	for _, c := range r {
		n += c
	}
	return n
}

// TestBusyQueueMatchesMap drives the queue and the map it replaces with
// seeded random operation sequences: starts at the current CN, CN
// advances (some skipping a CN), completions of any live transaction in
// any order (which leave gaps between busy CNs), drains to empty followed
// by a restart at a higher CN, and resets to a lower CN as a recovery
// does. After every operation the oldest busy CN and the total count must
// agree.
func TestBusyQueueMatchesMap(t *testing.T) {
	const ceiling = msg.CN(math.MaxUint32)
	for seed := uint64(1); seed <= 200; seed++ {
		rng := sim.NewRand(seed)
		var q BusyQueue
		ref := refBusy{}
		var live []msg.CN
		ccn := msg.CN(1 + rng.Intn(3))
		complete := func(i int) {
			cn := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			q.Done(cn)
			if ref[cn]--; ref[cn] == 0 {
				delete(ref, cn)
			}
		}
		for op := 0; op < 400; op++ {
			var what string
			switch k := rng.Intn(100); {
			case k < 40:
				what = "start"
				q.Add(ccn)
				ref[ccn]++
				live = append(live, ccn)
			case k < 55:
				what = "advance"
				ccn += msg.CN(1 + rng.Intn(2))
			case k < 93:
				if len(live) == 0 {
					continue
				}
				what = "complete"
				complete(rng.Intn(len(live)))
			case k < 97:
				what = "drain"
				for len(live) > 0 {
					complete(rng.Intn(len(live)))
				}
				ccn += msg.CN(1 + rng.Intn(3))
			default:
				what = "reset"
				q.Reset()
				clear(ref)
				live = live[:0]
				ccn = msg.CN(1 + rng.Intn(int(ccn)))
			}
			if got, want := q.Ready(ceiling), ref.ready(ceiling); got != want {
				t.Fatalf("seed %d op %d (%s): oldest busy CN %d, map says %d", seed, op, what, got, want)
			}
			if got, want := q.Ready(ccn), ref.ready(ccn); got != want {
				t.Fatalf("seed %d op %d (%s): Ready(%d) = %d, map says %d", seed, op, what, ccn, got, want)
			}
			if got, want := q.Len(), ref.len(); got != want {
				t.Fatalf("seed %d op %d (%s): Len = %d, map says %d", seed, op, what, got, want)
			}
		}
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestBusyQueueRejectsMisuse(t *testing.T) {
	mustPanic(t, "completion on an empty queue", func() {
		var q BusyQueue
		q.Done(1)
	})
	mustPanic(t, "completion at a CN never started", func() {
		var q BusyQueue
		q.Add(2)
		q.Add(4)
		q.Done(3)
	})
	mustPanic(t, "completion at a CN whose transactions all completed", func() {
		var q BusyQueue
		q.Add(2)
		q.Add(3)
		q.Add(4)
		q.Done(3)
		q.Done(3)
	})
	mustPanic(t, "completion past the newest start", func() {
		var q BusyQueue
		q.Add(2)
		q.Done(5)
	})
	mustPanic(t, "start below the oldest busy CN", func() {
		var q BusyQueue
		q.Add(3)
		q.Add(2)
	})
}

func TestBusyQueueSteadyStateAllocatesNothing(t *testing.T) {
	var q BusyQueue
	cn := msg.CN(1)
	q.Add(cn)
	allocs := testing.AllocsPerRun(1000, func() {
		cn++
		q.Add(cn)
		q.Add(cn)
		q.Done(cn - 1)
		q.Done(cn)
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per start/complete round, want 0", allocs)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
}
