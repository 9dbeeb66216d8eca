package core

import (
	"fmt"

	"safetynet/internal/msg"
)

// RegRing holds a processor's shadow register checkpoints, one per
// checkpoint pending validation (paper §3.4: checkpoint creation shadows
// the non-memory architectural state). S is the backend's snapshot type:
// its registers plus the workload generator state that stands in for
// program state. Held checkpoint numbers are contiguous, from the
// recovery point to the current checkpoint, so the ring is a slice that
// starts at the oldest held checkpoint and, once grown, allocates
// nothing. The zero value is an empty ring.
type RegRing[S any] struct {
	base  msg.CN // checkpoint number of snaps[0]
	snaps []S
}

// Add stores the snapshot for checkpoint cn, which must follow the
// newest held checkpoint or replace a held one (re-created checkpoints
// after a recovery reuse numbers); replacing drops every later
// checkpoint. On an empty ring cn becomes the oldest held checkpoint.
func (r *RegRing[S]) Add(cn msg.CN, snap S) {
	if len(r.snaps) == 0 {
		r.base = cn
	}
	k := int(cn - r.base)
	if cn < r.base || k > len(r.snaps) {
		panic(fmt.Sprintf("core: register checkpoint %d outside held range %d..%d",
			cn, r.base, r.base+msg.CN(len(r.snaps))))
	}
	clear(r.snaps[k:])
	r.snaps = append(r.snaps[:k], snap)
}

// Get returns the snapshot for checkpoint cn.
func (r *RegRing[S]) Get(cn msg.CN) (S, bool) {
	if cn < r.base || int(cn-r.base) >= len(r.snaps) {
		var zero S
		return zero, false
	}
	return r.snaps[cn-r.base], true
}

// DropBelow discards snapshots for checkpoints earlier than cn (they are
// no longer possible recovery points).
func (r *RegRing[S]) DropBelow(cn msg.CN) {
	if cn <= r.base {
		return
	}
	k := min(int(cn-r.base), len(r.snaps))
	n := copy(r.snaps, r.snaps[k:])
	clear(r.snaps[n:])
	r.snaps = r.snaps[:n]
	r.base = cn
}

// DropAbove discards snapshots for checkpoints later than cn (recovery
// invalidates every checkpoint after the recovery point).
func (r *RegRing[S]) DropAbove(cn msg.CN) {
	n := 0
	if cn >= r.base {
		n = min(int(cn-r.base)+1, len(r.snaps))
	}
	clear(r.snaps[n:])
	r.snaps = r.snaps[:n]
}

// Len returns the number of held snapshots.
func (r *RegRing[S]) Len() int { return len(r.snaps) }
