package protocol

import (
	"testing"

	"safetynet/internal/config"
)

// TestRecoverKeepsL1HitAges checks that a recovery keeps the L2 age an
// L1 hit gave a block. The L2 is one set of two ways under a one-set
// L1: A and B fill it, A then hits in the L1, and a recovery follows. C
// must evict B, the block used longer ago, as it would had the hit
// touched the L2 line itself.
func TestRecoverKeepsL1HitAges(t *testing.T) {
	r := newRig(t, func(p *config.Params) {
		p.L1Bytes, p.L1Ways = 256, 4
		p.L2Bytes, p.L2Ways = 128, 2
	})
	cc := r.ccs[0]
	a, b, c := r.addrHomedAt(1, 0), r.addrHomedAt(1, 1), r.addrHomedAt(1, 2)
	r.load(0, a)
	r.load(0, b)
	r.drain()
	if _, ok := cc.FastAccess(a, false, 0); !ok || cc.Stats().L1Hits != 1 {
		t.Fatalf("A must hit in the L1: ok=%v, stats %+v", ok, cc.Stats())
	}
	r.edge()
	r.edge()
	cc.Recover(2, func(addr, data uint64) { t.Fatalf("recovery flushed %#x: nothing was dirty", addr) })
	r.load(0, c)
	r.drain()
	if _, _, ok := cc.LineState(a); !ok {
		t.Fatal("C evicted A, the block the L1 hit used last")
	}
	if _, _, ok := cc.LineState(b); ok {
		t.Fatal("B survived C's fill")
	}
}

// BenchmarkFastAccessL1Hit times a load that hits in the L1 at Table 2
// cache geometry.
func BenchmarkFastAccessL1Hit(b *testing.B) {
	r := newRig(b, func(p *config.Params) {
		d := config.Default()
		p.L1Bytes, p.L2Bytes = d.L1Bytes, d.L2Bytes
	})
	cc := r.ccs[0]
	a := r.addrHomedAt(1, 0)
	r.load(0, a)
	r.drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cc.FastAccess(a, false, 0); !ok {
			b.Fatal("the load missed")
		}
	}
}
