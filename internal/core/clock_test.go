package core

import (
	"testing"

	"safetynet/internal/sim"
)

func TestClockEdgesFirePerNode(t *testing.T) {
	eng := sim.NewEngine()
	counts := make([]int, 4)
	c := NewClock(eng, 100, 4, nil, nil)
	for n := 0; n < 4; n++ {
		n := n
		c.OnEdge(n, func() { counts[n]++ })
	}
	c.Start()
	eng.Run(1000)
	for n, got := range counts {
		if got != 10 {
			t.Fatalf("node %d saw %d edges in 1000 cycles at interval 100, want 10", n, got)
		}
	}
	if c.Edges() != 40 {
		t.Fatalf("Edges = %d, want 40", c.Edges())
	}
}

func TestClockSkewOffsetsEdges(t *testing.T) {
	eng := sim.NewEngine()
	var at [2]sim.Time
	c := NewClock(eng, 100, 2, []sim.Time{0, 7}, nil)
	c.OnEdge(0, func() {
		if at[0] == 0 {
			at[0] = eng.Now()
		}
	})
	c.OnEdge(1, func() {
		if at[1] == 0 {
			at[1] = eng.Now()
		}
	})
	c.Start()
	eng.Run(500)
	if at[0] != 100 || at[1] != 107 {
		t.Fatalf("first edges at %v, want [100 107]", at)
	}
}

func TestClockPauseSuppressesEdges(t *testing.T) {
	eng := sim.NewEngine()
	paused := false
	count := 0
	c := NewClock(eng, 100, 1, nil, func() bool { return paused })
	c.OnEdge(0, func() { count++ })
	c.Start()
	eng.Run(250) // edges at 100, 200
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	paused = true
	eng.Run(550) // edges at 300, 400, 500 suppressed
	if count != 2 {
		t.Fatalf("paused clock delivered edges: count = %d", count)
	}
	paused = false
	eng.Run(650) // edge at 600 resumes
	if count != 3 {
		t.Fatalf("count after resume = %d, want 3", count)
	}
}

func TestClockValidation(t *testing.T) {
	eng := sim.NewEngine()
	for _, f := range []func(){
		func() { NewClock(eng, 0, 1, nil, nil) },
		func() { NewClock(eng, 100, 2, []sim.Time{0}, nil) },
		func() { NewClock(eng, 100, 1, []sim.Time{100}, nil) },
		func() {
			c := NewClock(eng, 100, 1, nil, nil)
			c.Start()
			c.Start()
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestRegRing(t *testing.T) {
	var r RegRing[string]
	r.Add(2, "a")
	r.Add(3, "b")
	r.Add(4, "c")
	if s, ok := r.Get(3); !ok || s != "b" {
		t.Fatalf("Get(3) = %v %v", s, ok)
	}
	r.DropBelow(3)
	if _, ok := r.Get(2); ok {
		t.Fatal("DropBelow must discard earlier snapshots")
	}
	r.DropAbove(3)
	if _, ok := r.Get(4); ok {
		t.Fatal("DropAbove must discard later snapshots")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	// Re-created checkpoint replaces the old incarnation.
	r.Add(3, "b2")
	if s, _ := r.Get(3); s != "b2" {
		t.Fatal("Add must replace")
	}
}
