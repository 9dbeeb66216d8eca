package core

import (
	"slices"
	"testing"

	"safetynet/internal/cache"
	"safetynet/internal/msg"
)

func TestCLBLog(t *testing.T) {
	const ccn = 3
	cases := []struct {
		name        string
		e           Entry
		logAll      bool
		full        bool
		wantLogged  bool
		wantRefused bool
	}{
		{name: "null CN logs", e: Entry{OldCN: msg.Null, Tag: 4}, wantLogged: true},
		{name: "CN at CCN logs", e: Entry{OldCN: ccn, Tag: 4}, wantLogged: true},
		{name: "CN below CCN logs", e: Entry{OldCN: ccn - 1, Tag: 4}, wantLogged: true},
		{name: "CN of CCN+1 skips", e: Entry{OldCN: ccn + 1, Tag: 4}},
		{name: "CN of CCN+1 logs under the ablation", e: Entry{OldCN: ccn + 1, Tag: 4}, logAll: true, wantLogged: true},
		{name: "transfer", e: Entry{OldCN: ccn, Tag: 4, Transfer: true}, wantLogged: true},
		{name: "full buffer refuses", e: Entry{OldCN: ccn, Tag: 4}, full: true, wantRefused: true},
		{name: "full buffer skips without refusing", e: Entry{OldCN: ccn + 1, Tag: 4}, full: true},
		{name: "caller tag kept", e: Entry{Addr: 0x40, OldCN: ccn, Tag: 9, OldData: 5, OldState: cache.Owned, Transfer: true}, wantLogged: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCLB(72*2, 72)
			if tc.logAll {
				c.DisableDedup()
			}
			if tc.full {
				c.Append(Entry{Tag: 1})
				c.Append(Entry{Tag: 1})
			}
			before := c.Len()
			logged, refused := c.Log(ccn, tc.e)
			if logged != tc.wantLogged || refused != tc.wantRefused {
				t.Fatalf("Log = (logged %v, refused %v), want (%v, %v)", logged, refused, tc.wantLogged, tc.wantRefused)
			}
			var wantAppends, wantTransfers, wantRejections uint64
			if tc.full {
				wantAppends = 2
			}
			if tc.wantLogged {
				wantAppends++
				if tc.e.Transfer {
					wantTransfers = 1
				}
				if c.Len() != before+1 || c.entries[c.Len()-1] != tc.e {
					t.Fatalf("logged entry %+v not appended as given", tc.e)
				}
			} else if c.Len() != before {
				t.Fatalf("Len = %d, want %d: nothing appended", c.Len(), before)
			}
			if tc.wantRefused {
				wantRejections = 1
			}
			if c.Appends() != wantAppends || c.TransferAppends() != wantTransfers || c.FullRejections() != wantRejections {
				t.Fatalf("appends/transfers/rejections = %d/%d/%d, want %d/%d/%d",
					c.Appends(), c.TransferAppends(), c.FullRejections(), wantAppends, wantTransfers, wantRejections)
			}
		})
	}
}

// TestUnrollCache restores one logged block of address 0 into a 1-set,
// 2-way array and checks the frame it takes.
func TestUnrollCache(t *testing.T) {
	const rpcn = 3
	type frame struct {
		addr uint64
		st   cache.State
		cn   msg.CN
		data uint64
	}
	logged := Entry{Addr: 0, Tag: 4, OldData: 7, OldCN: 3, OldState: cache.Owned}
	cases := []struct {
		name string
		// frames are installed in order, so the first is least recently
		// used.
		frames  []frame
		evicted uint64 // the frame the restore takes; 0 restores in place
		flushed []uint64
	}{
		{
			name:   "in place",
			frames: []frame{{0, cache.Modified, 4, 8}, {0x40, cache.Modified, 2, 20}},
		},
		{
			name:    "non-owner before LRU owner",
			frames:  []frame{{0x40, cache.Modified, 2, 20}, {0x80, cache.Shared, 2, 30}},
			evicted: 0x80,
		},
		{
			name:    "unvalidated owner before validated LRU owner",
			frames:  []frame{{0x40, cache.Modified, 2, 20}, {0x80, cache.Owned, 4, 30}},
			evicted: 0x80,
		},
		{
			name:    "validated LRU owner flushed",
			frames:  []frame{{0x40, cache.Modified, 2, 20}, {0x80, cache.Owned, 1, 30}},
			evicted: 0x40,
			flushed: []uint64{0x40, 20},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := cache.NewArray(1, 2, 64)
			for _, f := range tc.frames {
				a.Install(a.Victim(f.addr, nil), f.addr, f.st, f.cn, f.data)
			}
			c := NewCLB(72*2, 72)
			c.Append(logged)
			var flushed []uint64
			n := c.UnrollCache(a, rpcn, func(addr, data uint64) { flushed = append(flushed, addr, data) })
			if n != 1 || c.Len() != 0 {
				t.Fatalf("unrolled %d, %d left; want 1, 0", n, c.Len())
			}
			if !slices.Equal(flushed, tc.flushed) {
				t.Fatalf("flushed %v, want %v", flushed, tc.flushed)
			}
			if l := a.Lookup(0); l == nil || l.State != cache.Owned || l.CN != 3 || l.Data != 7 {
				t.Fatalf("restored line = %+v, want O, CN 3, data 7", l)
			}
			for _, f := range tc.frames {
				l := a.Lookup(f.addr)
				switch {
				case f.addr == 0:
				case f.addr == tc.evicted:
					if l != nil {
						t.Fatalf("%#x kept, want it evicted", f.addr)
					}
				case l == nil || l.State != f.st || l.CN != f.cn || l.Data != f.data:
					t.Fatalf("%#x = %+v, want it untouched", f.addr, l)
				}
			}
		})
	}
}
