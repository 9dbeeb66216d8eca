// Package core implements the paper's contribution: SafetyNet's
// checkpoint/recovery machinery. It contains the Checkpoint Log Buffers
// (CLBs), the update-action logging rule, the loosely synchronized
// checkpoint clock that provides the logical time base, the register
// checkpoint ring, and the redundant service controllers that coordinate
// pipelined checkpoint validation and system recovery/restart.
package core

import (
	"safetynet/internal/cache"
	"safetynet/internal/msg"
)

// Entry is one CLB record: enough state to undo a single update-action
// (a store overwrite, an ownership transfer, or a directory-entry change).
// On the wire and in storage accounting it occupies the configured entry
// size (paper: 72 bytes = 8-byte address + 64-byte data block).
type Entry struct {
	Addr uint64
	// Tag is the checkpoint the update-action belongs to. Recovery to
	// checkpoint r undoes exactly the entries with Tag > r; validation
	// deallocates entries with Tag <= RPCN.
	Tag msg.CN

	// Old block contents and SafetyNet CN before the update-action.
	OldData uint64
	OldCN   msg.CN

	// Cache-side: the coherence state before the update-action.
	OldState cache.State

	// Memory-side: the directory entry before the update-action.
	// MemEntry is true for memory/directory-controller entries.
	MemEntry   bool
	OldOwner   int
	OldSharers uint32
	// HadData is set on memory-side entries whose update-action wrote
	// the memory image (writeback absorption), so recovery knows to
	// restore OldData into memory.
	HadData bool

	// Transfer marks ownership-transfer logging (as opposed to store
	// overwrites); the distinction feeds the Figure 6 breakdown.
	Transfer bool
}

// CLB is a Checkpoint Log Buffer. It is write-only during normal execution
// (appends), read during validation only to deallocate, and unrolled in
// reverse order during recovery (paper §3.3). The zero value is unusable;
// use NewCLB.
type CLB struct {
	capEntries int
	entryBytes int
	entries    []Entry
	// logAll is the DisableLogDedup ablation: log every update-action.
	logAll bool

	// Statistics.
	appends         uint64
	transferAppends uint64
	fullRejections  uint64
	peakEntries     int
}

// NewCLB builds a buffer holding capBytes/entryBytes entries.
func NewCLB(capBytes, entryBytes int) *CLB {
	if entryBytes <= 0 || capBytes < entryBytes {
		panic("core: CLB capacity must hold at least one entry")
	}
	return &CLB{capEntries: capBytes / entryBytes, entryBytes: entryBytes}
}

// Len returns the number of buffered entries.
func (c *CLB) Len() int { return len(c.entries) }

// Bytes returns current occupancy in bytes.
func (c *CLB) Bytes() int { return len(c.entries) * c.entryBytes }

// CapEntries returns the entry capacity.
func (c *CLB) CapEntries() int { return c.capEntries }

// Full reports whether the next append would be rejected.
func (c *CLB) Full() bool { return len(c.entries) >= c.capEntries }

// Append records an entry. It returns false — and the caller must apply
// back-pressure (throttle the store or nack the coherence request, paper
// §3.3) — when the buffer is full.
//
//snvet:alloc-free
func (c *CLB) Append(e Entry) bool {
	if c.Full() {
		c.fullRejections++
		return false
	}
	c.entries = append(c.entries, e) //snvet:alloc-ok amortized: the log grows to its peak occupancy, then deallocation and unroll keep its capacity
	c.appends++
	if e.Transfer {
		c.transferAppends++
	}
	c.peakEntries = max(c.peakEntries, len(c.entries))
	return true
}

// DeallocateThrough discards entries belonging to validated checkpoints
// (Tag <= rpcn) and returns how many were freed. Deallocation is lazy and
// off the critical path (paper §3.5).
func (c *CLB) DeallocateThrough(rpcn msg.CN) int {
	kept := c.entries[:0]
	freed := 0
	for _, e := range c.entries {
		if e.Tag <= rpcn {
			freed++
			continue
		}
		kept = append(kept, e)
	}
	c.entries = kept
	return freed
}

// Unroll applies f to every buffered entry in reverse append order — the
// recovery procedure's sequential undo (paper §3.6) — then clears the
// buffer. Every remaining entry necessarily has Tag > RPCN (validated
// entries were deallocated when the recovery point advanced).
func (c *CLB) Unroll(f func(Entry)) int {
	n := len(c.entries)
	for i := n - 1; i >= 0; i-- {
		f(c.entries[i])
	}
	c.entries = c.entries[:0]
	return n
}

// Appends returns the total number of accepted appends.
func (c *CLB) Appends() uint64 { return c.appends }

// TransferAppends returns accepted appends caused by ownership transfers.
func (c *CLB) TransferAppends() uint64 { return c.transferAppends }

// FullRejections returns how many appends were refused by a full buffer.
// A refused action that is retried counts once per attempt.
func (c *CLB) FullRejections() uint64 { return c.fullRejections }

// PeakEntries returns the high-water mark of buffered entries.
func (c *CLB) PeakEntries() int { return c.peakEntries }

// PeakBytes returns the high-water mark in bytes.
func (c *CLB) PeakBytes() int { return c.peakEntries * c.entryBytes }
