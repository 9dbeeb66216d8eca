package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"
)

// streamOps is how many ops each pinned stream covers; it crosses several
// hot rotations of every preset (their periods are 500 and 25k-50k ops).
const streamOps = 200_000

// pinnedStreams holds the first 16 hex digits of the SHA-256 of each
// stream's first streamOps ops, over every Op field. The values were
// captured from the generator as it stood before its gap, bounds and
// rotation were precomputed, so they prove those rewrites left every
// stream unchanged. oltp-io is oltp with output operations, since no
// preset emits I/O.
var pinnedStreams = map[string]string{
	"apache/node0/seed1":      "c350c32f452236b1",
	"apache/node0/seed42":     "01b11ddf5b82a845",
	"apache/node15/seed1":     "4120fdaf069a8614",
	"apache/node15/seed42":    "da2c4637738b533e",
	"barnes/node0/seed1":      "8418416b9d9d45be",
	"barnes/node0/seed42":     "df8b55860b4d58b2",
	"barnes/node15/seed1":     "845b6c06d725f396",
	"barnes/node15/seed42":    "678eee86f6874606",
	"jbb/node0/seed1":         "9f76c1bba46db23f",
	"jbb/node0/seed42":        "2b20b5d973096dc1",
	"jbb/node15/seed1":        "c502b7be76c6839d",
	"jbb/node15/seed42":       "815d5ec153814aa6",
	"oltp/node0/seed1":        "b3ef10189fa016e5",
	"oltp/node0/seed42":       "3bc993e87a95275c",
	"oltp/node15/seed1":       "85c309be53a3f7f8",
	"oltp/node15/seed42":      "4e0830e8c79eec19",
	"oltp-io/node0/seed1":     "c8f09baf2e923065",
	"oltp-io/node0/seed42":    "6ad60a2e90ef980d",
	"oltp-io/node15/seed1":    "7ec8e09fb0b8e852",
	"oltp-io/node15/seed42":   "016eb056537ba473",
	"slashcode/node0/seed1":   "9cafce0ccee0dcc3",
	"slashcode/node0/seed42":  "a7f52d17e6c89827",
	"slashcode/node15/seed1":  "4f861b624f504078",
	"slashcode/node15/seed42": "826e1348f57e66b4",
	"stress/node0/seed1":      "c2e96731db05ae22",
	"stress/node0/seed42":     "2d8a8b18aa3fc54a",
	"stress/node15/seed1":     "5600cc0db1156abd",
	"stress/node15/seed42":    "d87cff6398300952",
}

// hashOp writes every field of op to h.
func hashOp(h hash.Hash, op Op) {
	var b [34]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(op.NonMemInstrs))
	binary.LittleEndian.PutUint64(b[8:], op.Addr)
	binary.LittleEndian.PutUint64(b[16:], op.StoreVal)
	binary.LittleEndian.PutUint64(b[24:], op.IOVal)
	if op.IsStore {
		b[32] = 1
	}
	if op.IsIO {
		b[33] = 1
	}
	h.Write(b[:])
}

// digest returns the first 16 hex digits of h's sum.
func digest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

// TestStreamsPinned checks every preset's stream, and one with I/O,
// against the pinned digests, for two nodes and two seeds. It also
// snapshots at the halfway op, runs on, restores, and requires the replay
// to hash the same as the second half did.
func TestStreamsPinned(t *testing.T) {
	profiles := map[string]Profile{}
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		profiles[name] = p
	}
	io := OLTP()
	io.Name, io.IOPer100k = "oltp-io", 50
	profiles[io.Name] = io

	seen := 0
	for name, prof := range profiles {
		for _, node := range []int{0, 15} {
			for _, seed := range []uint64{1, 42} {
				key := fmt.Sprintf("%s/node%d/seed%d", name, node, seed)
				g := NewSynthetic(prof, node, seed)
				whole, second := sha256.New(), sha256.New()
				ios := 0
				for i := 0; i < streamOps/2; i++ {
					op := g.Next()
					if op.IsIO {
						ios++
					}
					hashOp(whole, op)
				}
				snap := g.Snapshot()
				for i := 0; i < streamOps/2; i++ {
					op := g.Next()
					if op.IsIO {
						ios++
					}
					hashOp(whole, op)
					hashOp(second, op)
				}
				g.Restore(snap)
				replay := sha256.New()
				for i := 0; i < streamOps/2; i++ {
					hashOp(replay, g.Next())
				}
				if got, want := digest(replay), digest(second); got != want {
					t.Errorf("%s: replay after Restore hashed %s, the run hashed %s", key, got, want)
				}
				if name == io.Name && ios == 0 {
					t.Errorf("%s: no I/O op in %d ops", key, streamOps)
				}
				seen++
				if got, want := digest(whole), pinnedStreams[key]; got != want {
					t.Errorf("%s: stream hashed %s, pinned %s", key, got, want)
				}
			}
		}
	}
	if seen != len(pinnedStreams) {
		t.Errorf("checked %d streams, %d pinned", seen, len(pinnedStreams))
	}
}
