package workload

import (
	"testing"
	"testing/quick"
)

func TestPresetsValidate(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
		if p.Name != name {
			t.Errorf("preset %s reports name %s", name, p.Name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown preset must error")
	}
}

func TestPaperWorkloadsMatchFigure5Order(t *testing.T) {
	want := []string{"jbb", "apache", "slashcode", "oltp", "barnes"}
	got := PaperWorkloads()
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewSynthetic(OLTP(), 3, 42)
	b := NewSynthetic(OLTP(), 3, 42)
	for i := 0; i < 5000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("generators diverged at op %d", i)
		}
	}
}

func TestGeneratorSnapshotRestore(t *testing.T) {
	g := NewSynthetic(JBB(), 1, 7)
	for i := 0; i < 1000; i++ {
		g.Next()
	}
	snap := g.Snapshot()
	ref := make([]Op, 500)
	for i := range ref {
		ref[i] = g.Next()
	}
	g.Restore(snap)
	for i := range ref {
		if got := g.Next(); got != ref[i] {
			t.Fatalf("replay diverged at op %d: %+v vs %+v", i, got, ref[i])
		}
	}
}

func TestStoreValuesUniquePerNode(t *testing.T) {
	seen := map[uint64]bool{}
	for node := 0; node < 4; node++ {
		g := NewSynthetic(Stress(), node, 1)
		for i := 0; i < 2000; i++ {
			op := g.Next()
			if op.IsStore {
				if seen[op.StoreVal] {
					t.Fatalf("duplicate store token %#x", op.StoreVal)
				}
				seen[op.StoreVal] = true
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("no stores generated")
	}
}

func TestAddressesBlockAlignedAndInRegions(t *testing.T) {
	p := Apache()
	g := NewSynthetic(p, 2, 9)
	privLo := PrivateBase(2)
	privHi := privLo + uint64(p.PrivateBlocks)*BlockBytes
	shHi := uint64(p.SharedBlocks) * BlockBytes
	for i := 0; i < 20000; i++ {
		op := g.Next()
		if op.IsIO {
			continue
		}
		if op.Addr%BlockBytes != 0 {
			t.Fatalf("address %#x not block-aligned", op.Addr)
		}
		inShared := op.Addr < shHi
		inPrivate := op.Addr >= privLo && op.Addr < privHi
		migLo := MigratoryBase()
		migHi := migLo + uint64(p.MigratoryBlocks)*BlockBytes
		inMigratory := op.Addr >= migLo && op.Addr < migHi
		if !inShared && !inPrivate && !inMigratory {
			t.Fatalf("address %#x outside shared/private/migratory regions", op.Addr)
		}
	}
}

func TestRatesApproximateProfile(t *testing.T) {
	p := OLTP()
	g := NewSynthetic(p, 0, 3)
	const n = 60000
	var stores, shared, instrs int
	for i := 0; i < n; i++ {
		op := g.Next()
		instrs += op.NonMemInstrs + 1
		if op.IsStore {
			stores++
		}
		if !op.IsIO && op.Addr < uint64(p.SharedBlocks)*BlockBytes {
			shared++
		}
	}
	refsPer1000 := float64(n) / float64(instrs) * 1000
	want := float64(p.MemRefsPer1000)
	if refsPer1000 < want*0.7 || refsPer1000 > want*1.3 {
		t.Errorf("refs/1000 instr = %.0f, want ~%.0f", refsPer1000, want)
	}
	storeFrac := float64(stores) / float64(n)
	// StoreFrac applies to private references only; shared traffic is
	// read-mostly plus migratory burst stores.
	wantStores := p.StoreFrac * (1 - p.SharedFrac)
	if storeFrac < wantStores*0.75 || storeFrac > wantStores+0.2 {
		t.Errorf("store fraction = %.2f, want ~%.2f", storeFrac, wantStores)
	}
	sharedFrac := float64(shared) / float64(n)
	if sharedFrac < p.SharedFrac*0.6 || sharedFrac > p.SharedFrac*1.8 {
		t.Errorf("shared fraction = %.2f, profile %.2f", sharedFrac, p.SharedFrac)
	}
}

func TestMigratoryBurstEndsWithStore(t *testing.T) {
	p := Stress()
	g := NewSynthetic(p, 0, 5)
	bursts := 0
	for i := 0; i < 20000 && bursts < 50; i++ {
		op := g.Next()
		if op.IsIO || op.IsStore {
			continue
		}
		// Detect a burst: consecutive ops on the same address ending in
		// a store.
		addr := op.Addr
		run := []Op{op}
		for len(run) < 10 {
			nxt := g.Next()
			if nxt.Addr != addr {
				break
			}
			run = append(run, nxt)
			if nxt.IsStore {
				bursts++
				break
			}
		}
	}
	if bursts == 0 {
		t.Fatal("no migratory bursts observed")
	}
}

func TestTemporalLocality(t *testing.T) {
	// The hot-set mechanism must concentrate traffic: the top 10% of
	// blocks should absorb well over half the references.
	p := Barnes()
	g := NewSynthetic(p, 0, 11)
	counts := map[uint64]int{}
	const n = 40000
	for i := 0; i < n; i++ {
		op := g.Next()
		if !op.IsIO {
			counts[op.Addr]++
		}
	}
	var freqs []int
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	// Partial selection: count references in blocks with >= 20 hits.
	hot := 0
	for _, c := range freqs {
		if c >= 20 {
			hot += c
		}
	}
	if frac := float64(hot) / float64(n); frac < 0.5 {
		t.Errorf("hot blocks absorb only %.0f%% of traffic; locality too weak", frac*100)
	}
}

func TestProfileValidateRejectsBadGeometry(t *testing.T) {
	bad := []func(*Profile){
		func(p *Profile) { p.MemRefsPer1000 = 0 },
		func(p *Profile) { p.MemRefsPer1000 = 2000 },
		func(p *Profile) { p.StoreFrac = -1 },
		func(p *Profile) { p.SharedFrac = 2 },
		func(p *Profile) { p.PrivateBlocks = 0 },
		func(p *Profile) { p.PrivateHotBlocks = p.PrivateBlocks + 1 },
		func(p *Profile) { p.HotFrac = 0.9; p.WarmFrac = 0.2 },
		func(p *Profile) { p.SharedBlocks = 0 },
		func(p *Profile) { p.MigratoryFrac = 1.5 },
		func(p *Profile) { p.MigratoryLen = 1 },
		func(p *Profile) { p.HotRotatePeriod = 0 },
	}
	for i, mut := range bad {
		p := OLTP()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// Property: snapshot/restore replays exactly from arbitrary positions.
func TestSnapshotReplayProperty(t *testing.T) {
	f := func(seed uint64, skip uint16) bool {
		g := NewSynthetic(Stress(), 1, seed)
		for i := 0; i < int(skip%2000); i++ {
			g.Next()
		}
		s := g.Snapshot()
		var ref [50]Op
		for i := range ref {
			ref[i] = g.Next()
		}
		g.Restore(s)
		for i := range ref {
			if g.Next() != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSyntheticNext times one operation of the Table 2 OLTP stream.
func BenchmarkSyntheticNext(b *testing.B) {
	g := NewSynthetic(OLTP(), 0, 1)
	var sink uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += g.Next().Addr
	}
	_ = sink
}
