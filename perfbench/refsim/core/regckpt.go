package core

import "safetynet/perfbench/refsim/msg"

// RegRing holds a processor's shadow register checkpoints, one per
// checkpoint pending validation (paper §3.4: checkpoint creation shadows
// the non-memory architectural state). The snapshot payload is opaque to
// SafetyNet; the processor model stores its registers plus the workload
// generator state that stands in for program state.
type RegRing struct {
	snaps map[msg.CN]any
}

// NewRegRing returns an empty ring.
func NewRegRing() *RegRing { return &RegRing{snaps: make(map[msg.CN]any)} }

// Add stores the snapshot for checkpoint cn, replacing any previous
// incarnation (re-created checkpoints after a recovery reuse numbers).
func (r *RegRing) Add(cn msg.CN, snap any) { r.snaps[cn] = snap }

// Get returns the snapshot for checkpoint cn.
func (r *RegRing) Get(cn msg.CN) (any, bool) {
	s, ok := r.snaps[cn]
	return s, ok
}

// DropBelow discards snapshots for checkpoints earlier than cn (they are
// no longer possible recovery points).
func (r *RegRing) DropBelow(cn msg.CN) {
	for k := range r.snaps {
		if k < cn {
			delete(r.snaps, k)
		}
	}
}

// DropAbove discards snapshots for checkpoints later than cn (recovery
// invalidates every checkpoint after the recovery point).
func (r *RegRing) DropAbove(cn msg.CN) {
	for k := range r.snaps {
		if k > cn {
			delete(r.snaps, k)
		}
	}
}

// Len returns the number of held snapshots.
func (r *RegRing) Len() int { return len(r.snaps) }
