// Package snoop implements the paper's second target system (footnote 1):
// SafetyNet on a broadcast snooping MOSI protocol over a totally ordered
// interconnect. It demonstrates the §2.3 observation that on an ordered
// interconnect the logical time base is trivial: every component counts
// the coherence requests it has processed, checkpoints every K requests,
// and — because all components observe the same global request order —
// all trivially agree on the checkpoint interval containing any
// transaction's point of atomicity (its bus slot).
//
// The package is a complete small system: an ordered broadcast bus, MOSI
// snooping caches with SafetyNet CLBs, interleaved memory banks, simple
// blocking processors driven by the shared workload generators, pipelined
// validation, fault injection on the (unordered) data network, and global
// recovery. It shares the CLB/logging machinery of internal/core and the
// arrays of internal/cache with the directory system; assigning
// transactions to checkpoint intervals is the only piece that differs, as
// the paper says.
package snoop

import (
	"safetynet/internal/msg"
	"safetynet/internal/sim"
)

// ReqKind is a bus transaction type.
type ReqKind int

const (
	// BusGETS requests a shared copy.
	BusGETS ReqKind = iota
	// BusGETX requests an exclusive copy (or an upgrade).
	BusGETX
	// BusPUTX writes an owned block back to its home memory bank.
	BusPUTX
)

func (k ReqKind) String() string {
	switch k {
	case BusGETS:
		return "GETS"
	case BusGETX:
		return "GETX"
	case BusPUTX:
		return "PUTX"
	}
	return "?"
}

// Request is one address-bus broadcast.
type Request struct {
	Kind      ReqKind
	Addr      uint64
	Requestor int
	// Slot is the global order position, assigned by the bus.
	Slot uint64
	// Data rides PUTX broadcasts (the paper's snooping systems put
	// writeback data on the bus or a paired data path; the distinction
	// does not matter here).
	Data uint64
}

// Bus is the totally ordered address network: requests arbitrate for
// slots and every agent observes every request in slot order. Arbitration
// plus broadcast costs OccupancyCycles per request; the winning request
// is delivered to all agents simultaneously (only the order matters for
// the logical time base).
type Bus struct {
	eng       *sim.Engine
	occupancy sim.Time
	busyUntil sim.Time
	slots     uint64
	snoopers  []func(*Request)
	epoch     int

	// Queued requests wait for their slots in recycled records fired
	// through broadcastFn, bound once, so issuing allocates nothing.
	broadcastFn func(any)
	queued      sim.FreeList[queuedReq]

	// Broadcasts counts delivered requests.
	Broadcasts uint64
}

// queuedReq is a request waiting for its slot, with the epoch it was
// issued in.
type queuedReq struct {
	r     Request
	epoch int
}

// NewBus builds a bus with the given per-request occupancy.
func NewBus(eng *sim.Engine, occupancy sim.Time) *Bus {
	b := &Bus{eng: eng, occupancy: occupancy}
	b.broadcastFn = b.broadcast
	return b
}

// Attach registers an agent's snoop handler; all agents see all requests
// in the same order.
func (b *Bus) Attach(f func(*Request)) { b.snoopers = append(b.snoopers, f) }

// Epoch returns the recovery epoch (requests queued before a recovery are
// discarded at delivery).
func (b *Bus) Epoch() int { return b.epoch }

// BumpEpoch discards queued requests logically (they deliver as no-ops).
func (b *Bus) BumpEpoch() { b.epoch++ }

// Issue arbitrates for the next slot and schedules the broadcast of a
// copy of r (snoopers must not keep the *Request they are handed). The
// winning slot number is stored in r.Slot and returned immediately
// (arbitration is modeled as FIFO).
//
//snvet:alloc-free
func (b *Bus) Issue(r *Request) uint64 {
	start := b.eng.Now()
	if b.busyUntil > start {
		start = b.busyUntil
	}
	b.busyUntil = start + b.occupancy
	b.slots++
	r.Slot = b.slots
	q := b.queued.Get()
	*q = queuedReq{r: *r, epoch: b.epoch}
	b.eng.ScheduleArg(start+b.occupancy, b.broadcastFn, q)
	return r.Slot
}

// broadcast delivers a request in its slot and recycles its record.
//
//snvet:alloc-free
func (b *Bus) broadcast(a any) {
	q := a.(*queuedReq)
	if q.epoch == b.epoch { // otherwise the recovery drained the bus queue
		b.Broadcasts++
		for _, f := range b.snoopers {
			f(&q.r)
		}
	}
	b.queued.Put(q)
}

// ResetSlots rewinds the slot counter to the recovery point's logical
// time (slots = (rpcn-1) * interval), keeping post-recovery slot numbers
// consistent with the restored checkpoint numbers.
func (b *Bus) ResetSlots(rpcn msg.CN, interval uint64) {
	b.slots = uint64(rpcn-1) * interval
	b.busyUntil = b.eng.Now()
}
