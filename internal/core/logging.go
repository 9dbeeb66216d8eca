package core

import (
	"safetynet/internal/cache"
	"safetynet/internal/msg"
)

// ShouldLog implements the paper's §3.3 logging decision: an update-action
// (store overwrite or ownership transfer) to a block with checkpoint
// number blockCN must be logged when the component's current checkpoint
// number is ccn iff the block has a null CN (its contents belong to the
// recovery point and all later checkpoints) or CN <= CCN (the block was
// last updated in an earlier — or this component's current — checkpoint
// interval, so its contents are part of some checkpoint that recovery
// might target).
//
// A block whose CN is CCN+1 was already updated-and-logged in the current
// interval (or arrived via an ownership transfer whose atomicity point is
// in this interval); logging again would be redundant. This is the paper's
// example of a store by a processor with CCN=3 to a block with CN=4
// needing no log.
func ShouldLog(blockCN, ccn msg.CN) bool {
	return blockCN == msg.Null || blockCN <= ccn
}

// UpdatedCN returns the checkpoint number a block carries after an
// update-action performed at current checkpoint number ccn: the state now
// belongs to checkpoint CCN+1 (it will be captured by the next checkpoint
// edge, and a recovery to any checkpoint <= CCN undoes it).
func UpdatedCN(ccn msg.CN) msg.CN { return ccn + 1 }

// DisableDedup makes the buffer log every update-action, not only the
// first per block per interval (the DisableLogDedup ablation).
func (c *CLB) DisableDedup() { c.logAll = true }

// NeedsLog reports whether an update-action at ccn to a block whose CN
// is blockCN needs a log entry: ShouldLog, or always under DisableDedup.
func (c *CLB) NeedsLog(blockCN, ccn msg.CN) bool {
	return c.logAll || ShouldLog(blockCN, ccn)
}

// Log is the one place a cache-side update-action is logged (paper
// §3.3). e describes the block before the action: e.OldCN is its CN, and
// the caller supplies e.Tag. Log appends e when NeedsLog holds and the
// buffer has room, and counts the append or the refusal. A refused entry
// is not logged: the caller must throttle and retry the action before
// applying it.
//
//snvet:alloc-free
func (c *CLB) Log(ccn msg.CN, e Entry) (logged, refused bool) {
	if c.NeedsLog(e.OldCN, ccn) {
		logged = c.Append(e)
		refused = !logged
	}
	return logged, refused
}

// UnrollCache undoes the cache-side log into l2, newest entry first
// (paper §3.6), then clears the log, and returns the number of entries
// undone. A logged block still resident is restored in place. An evicted
// one takes a frame in this order: an invalid frame, then a non-owner
// (dropped silently), then an owner with a CN above rpcn (this recovery
// discards its contents anyway), then any frame; a validated owner
// displaced that way is handed to flush first, with its address and data.
// installed, when not nil, receives the address of each block the unroll
// installs into a frame. Every restore goes through l2's CN writers, so
// l2's journal names each restored line whose CN is above rpcn.
func (c *CLB) UnrollCache(l2 *cache.Array, rpcn msg.CN, flush func(addr, data uint64), installed func(addr uint64)) int {
	return c.Unroll(func(e Entry) {
		if l := l2.Lookup(e.Addr); l != nil {
			l.Data, l.State = e.OldData, e.OldState
			l2.SetCN(l, e.OldCN)
			return
		}
		v := l2.Victim(e.Addr, func(l *cache.Line) bool { return !l.State.IsOwner() })
		if v == nil {
			v = l2.Victim(e.Addr, func(l *cache.Line) bool { return l.State.IsOwner() && l.CN() > rpcn })
		}
		if v == nil {
			v = l2.Victim(e.Addr, nil)
			if v.State.IsOwner() && v.CN() <= rpcn {
				flush(v.Addr, v.Data)
			}
		}
		l2.Install(v, e.Addr, e.OldState, e.OldCN, e.OldData)
		if installed != nil {
			installed(e.Addr)
		}
	})
}
