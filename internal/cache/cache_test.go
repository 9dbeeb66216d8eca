package cache

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"safetynet/internal/msg"
)

func TestLookupMissOnEmpty(t *testing.T) {
	a := NewArray(4, 2, 64)
	if a.Lookup(0x1000) != nil {
		t.Fatal("empty array must miss")
	}
}

func TestInstallThenLookup(t *testing.T) {
	a := NewArray(4, 2, 64)
	v := a.Victim(0x1000, nil)
	if v == nil {
		t.Fatal("empty set must offer a victim")
	}
	a.Install(v, 0x1000, Modified, 3, 42)
	l := a.Lookup(0x1000)
	if l == nil || l.State != Modified || l.CN() != 3 || l.Data != 42 {
		t.Fatalf("lookup after install = %+v", l)
	}
}

func TestSetIndexSeparatesConflicts(t *testing.T) {
	a := NewArray(4, 2, 64)
	// Addresses 0 and 64 land in different sets; 0 and 4*64 collide.
	a.Install(a.Victim(0, nil), 0, Shared, 0, 1)
	a.Install(a.Victim(64, nil), 64, Shared, 0, 2)
	if a.Lookup(0) == nil || a.Lookup(64) == nil {
		t.Fatal("different sets must coexist")
	}
	// Fill the set of address 0 (ways=2): 0, 256; then 512 evicts LRU.
	a.Install(a.Victim(256, nil), 256, Shared, 0, 3)
	a.Touch(a.Lookup(0)) // make 256 the LRU
	v := a.Victim(512, nil)
	if v.Addr != 256 {
		t.Fatalf("victim = %#x, want 256 (LRU)", v.Addr)
	}
}

func TestVictimPrefersInvalid(t *testing.T) {
	a := NewArray(1, 4, 64)
	a.Install(a.Victim(0, nil), 0, Shared, 0, 0)
	v := a.Victim(64, nil)
	if v.State != Invalid {
		t.Fatal("victim must prefer an invalid frame")
	}
}

// TestLineIs32Bytes pins the frame layout: State and CN share one word,
// so two frames fit a 64-byte host cache line.
func TestLineIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 32 {
		t.Fatalf("sizeof(Line) = %d, want 32", got)
	}
}

// TestSetPlacement checks, through conflict evictions, that a block
// lands in set (addr>>blockBits) % sets for power-of-two and other set
// counts: filling a block's predicted set evicts it, while a block
// predicted elsewhere survives.
func TestSetPlacement(t *testing.T) {
	const ways, block = 2, 64
	for _, sets := range []int{1, 3, 6, 512} {
		for _, b := range []uint64{0, 1, 2, 5, uint64(sets) - 1, uint64(sets), 3*uint64(sets) + 2, 1<<20 + 7} {
			a := NewArray(sets, ways, block)
			addr := b * block
			other := (b + 1) * block // predicted set (b+1)%sets
			a.Install(a.Victim(other, nil), other, Shared, 0, 0)
			a.Install(a.Victim(addr, nil), addr, Shared, 0, 0)
			// ways more blocks predicted into addr's set push it out.
			for k := uint64(1); k <= ways; k++ {
				c := (b + k*uint64(sets)) * block
				if sets == 1 {
					c = (b + 1 + k) * block
				}
				a.Install(a.Victim(c, nil), c, Shared, 0, 0)
			}
			if a.Lookup(addr) != nil {
				t.Errorf("sets=%d block=%d: filling its set (block %% sets = %d) did not evict it",
					sets, b, b%uint64(sets))
			}
			if sets > 1 && a.Lookup(other) == nil {
				t.Errorf("sets=%d block=%d: block %d in set %d was evicted by set %d traffic",
					sets, b, b+1, (b+1)%uint64(sets), b%uint64(sets))
			}
		}
	}
}

func TestVictimOnEmptySetIsWayZero(t *testing.T) {
	a := NewArray(4, 3, 64)
	for s := 0; s < 4; s++ {
		if v := a.Victim(uint64(s)*64, nil); v != &a.lines[s*3] {
			t.Fatalf("set %d: victim is not way 0", s)
		}
	}
}

func TestForEachValidSetMajor(t *testing.T) {
	a := NewArray(4, 2, 64)
	// Install across sets out of order; each set fills way 0 then way 1.
	for _, addr := range []uint64{3 * 64, 0, 7 * 64, 2 * 64, 4 * 64} {
		a.Install(a.Victim(addr, nil), addr, Shared, 0, 0)
	}
	var got []uint64
	a.ForEachValid(func(l *Line) { got = append(got, l.Addr/64) })
	want := []uint64{0, 4, 2, 3, 7}
	if !slices.Equal(got, want) {
		t.Fatalf("visit order %v, want %v (set-major)", got, want)
	}
}

func TestVictimRespectsEvictable(t *testing.T) {
	a := NewArray(1, 2, 64)
	a.Install(a.Victim(0, nil), 0, Modified, 0, 0)
	a.Install(a.Victim(64, nil), 64, Modified, 0, 0)
	v := a.Victim(128, func(l *Line) bool { return l.Addr != 0 })
	if v == nil || v.Addr != 64 {
		t.Fatalf("victim = %+v, want addr 64", v)
	}
	v = a.Victim(128, func(l *Line) bool { return false })
	if v != nil {
		t.Fatal("no evictable line must yield nil")
	}
}

func TestInvalidate(t *testing.T) {
	a := NewArray(4, 2, 64)
	a.Install(a.Victim(0, nil), 0, Owned, 2, 9)
	a.Invalidate(0)
	if a.Lookup(0) != nil {
		t.Fatal("invalidated line must not be found")
	}
	a.Invalidate(0) // idempotent
}

func TestInvalidateAllAndCount(t *testing.T) {
	a := NewArray(4, 2, 64)
	for i := 0; i < 6; i++ {
		addr := uint64(i * 64)
		a.Install(a.Victim(addr, nil), addr, Shared, 0, 0)
	}
	if got := a.CountValid(); got != 6 {
		t.Fatalf("CountValid = %d, want 6", got)
	}
	a.InvalidateAll()
	if got := a.CountValid(); got != 0 {
		t.Fatalf("CountValid after flash-clear = %d", got)
	}
}

func TestForEachValid(t *testing.T) {
	a := NewArray(4, 2, 64)
	want := map[uint64]bool{0: true, 64: true, 128: true}
	for addr := range want {
		a.Install(a.Victim(addr, nil), addr, Modified, 1, addr)
	}
	got := map[uint64]bool{}
	a.ForEachValid(func(l *Line) { got[l.Addr] = true })
	if len(got) != len(want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
}

func TestStateProperties(t *testing.T) {
	if !Modified.IsOwner() || !Owned.IsOwner() {
		t.Error("M and O are owner states")
	}
	if Shared.IsOwner() || Invalid.IsOwner() {
		t.Error("S and I are not owner states")
	}
	for _, s := range []State{Invalid, Shared, Owned, Modified} {
		if s.String() == "" {
			t.Error("states must render")
		}
	}
}

func TestBandwidthTotal(t *testing.T) {
	b := Bandwidth{HitCycles: 1, FillCycles: 2, CoherenceCycles: 3, LoggingCycles: 4}
	if b.Total() != 10 {
		t.Fatalf("Total = %d, want 10", b.Total())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewArray(0, 2, 64) },
		func() { NewArray(2, 0, 64) },
		func() { NewArray(2, 2, 48) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry must panic")
				}
			}()
			f()
		}()
	}
}

// Property: installing k distinct addresses that map to one set never
// exceeds the set's capacity, and the most recently touched lines survive.
func TestLRUProperty(t *testing.T) {
	f := func(accesses []uint8) bool {
		a := NewArray(1, 4, 64)
		for _, x := range accesses {
			addr := uint64(x%16) * 64
			if l := a.Lookup(addr); l != nil {
				a.Touch(l)
				continue
			}
			v := a.Victim(addr, nil)
			if v == nil {
				return false
			}
			a.Install(v, addr, Shared, 0, 0)
		}
		return a.CountValid() <= 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a line's CN survives Install/Lookup round trips.
func TestCNRoundTrip(t *testing.T) {
	f := func(cn uint32, data uint64) bool {
		a := NewArray(2, 2, 64)
		a.Install(a.Victim(0, nil), 0, Owned, msg.CN(cn), data)
		l := a.Lookup(0)
		return l != nil && l.CN() == msg.CN(cn) && l.Data == data
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
