package fault

import (
	"reflect"
	"testing"

	"safetynet/internal/sim"
	"safetynet/internal/topology"
)

// TestInjectorRule drives the injector with explicit send times and checks
// the one firing rule: the effects of every send, the Kind* tags reported
// in order, and the per-kind counts.
func TestInjectorRule(t *testing.T) {
	type send struct {
		at   sim.Time
		data bool
		want Effect
	}
	cases := []struct {
		name   string
		plan   Plan
		disarm bool
		sends  []send
		fired  []string
	}{
		{
			name: "one-shot fires once at the first eligible send at or after its time",
			plan: Plan{DropOnce{At: 100}, CorruptOnce{At: 100}},
			sends: []send{
				{50, true, 0}, {99, true, 0},
				{150, true, Drop}, {160, false, 0}, {170, true, Corrupt},
				{180, true, 0}, {10_000, true, 0},
			},
			fired: []string{KindDropOnce, KindCorruptOnce},
		},
		{
			name: "drop-every fires at most once per period, counted from its last firing",
			plan: Plan{DropEvery{Start: 100, Period: 1_000}},
			sends: []send{
				{99, true, 0}, {100, true, Drop}, {500, true, 0}, {1_099, true, 0},
				{1_100, true, Drop}, {2_500, true, Drop}, {3_000, true, 0},
				{3_499, false, 0}, {3_500, true, Drop},
			},
			fired: []string{KindDropEvery, KindDropEvery, KindDropEvery, KindDropEvery},
		},
		{
			name: "drops fire first, in arm order, and a drop ends the send",
			plan: Plan{CorruptOnce{At: 100}, DropEvery{Start: 100, Period: 1_000},
				DuplicateOnce{At: 100}, DropOnce{At: 100}},
			sends: []send{
				{100, true, Drop}, {101, true, Drop}, {102, true, Corrupt | Duplicate},
			},
			fired: []string{KindDropEvery, KindDropOnce, KindCorruptOnce, KindDuplicateOnce},
		},
		{
			name:  "corrupt, misroute and duplicate fire in arm order on one send",
			plan:  Plan{DuplicateOnce{At: 100}, MisrouteOnce{At: 100}, CorruptOnce{At: 100}},
			sends: []send{{100, true, Corrupt | Misroute | Duplicate}, {101, true, 0}},
			fired: []string{KindDuplicateOnce, KindMisrouteOnce, KindCorruptOnce},
		},
		{
			name: "a send without data consumes only a duplicate",
			plan: Plan{DropOnce{At: 100}, CorruptOnce{At: 100}, MisrouteOnce{At: 100},
				DuplicateOnce{At: 100}, DropEvery{Start: 100, Period: 1_000}},
			sends: []send{
				{100, false, Duplicate}, {101, false, 0},
				{102, true, Drop}, {103, true, Drop}, {104, true, Corrupt | Misroute},
			},
			fired: []string{KindDuplicateOnce, KindDropOnce, KindDropEvery,
				KindCorruptOnce, KindMisrouteOnce},
		},
		{
			name: "disarm stops all firing",
			plan: Plan{DropEvery{Start: 0, Period: 10}, DropOnce{At: 5},
				CorruptOnce{At: 5}, DuplicateOnce{At: 5}},
			disarm: true,
			sends:  []send{{0, true, 0}, {5, false, 0}, {50, true, 0}, {1_000, true, 0}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var in Injector
			var fired []string
			in.OnFire = func(_ uint64, kind string) { fired = append(fired, kind) }
			target := Target{Faults: &in, Eng: sim.NewEngine(), Topo: topology.New(4, 4)}
			if err := c.plan.Arm(target); err != nil {
				t.Fatal(err)
			}
			if c.disarm {
				in.Disarm()
			}
			for _, s := range c.sends {
				if got := in.Decide(s.at, s.data); got != s.want {
					t.Errorf("send at %d (data %v): effect %04b, want %04b", s.at, s.data, got, s.want)
				}
			}
			if !reflect.DeepEqual(fired, c.fired) {
				t.Errorf("fired %v, want %v", fired, c.fired)
			}
			for _, kind := range Kinds() {
				var want uint64
				for _, f := range c.fired {
					if f == kind {
						want++
					}
				}
				if got := in.Fired(kind); got != want {
					t.Errorf("Fired(%s) = %d, want %d", kind, got, want)
				}
			}
		})
	}
}
