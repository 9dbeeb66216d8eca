package core

import "safetynet/perfbench/refsim/msg"

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
