// Package protocol implements the system's MOSI directory cache coherence
// protocol in the style of the SGI Origin (the paper's §4.1 memory model):
// cache controllers with MSHRs, writeback buffers and transient states, and
// directory/memory controllers with owner/sharer entries, busy states and
// nacks. 2-hop transactions are served by the home memory; 3-hop
// transactions forward to the owning cache.
//
// SafetyNet's three protocol changes (paper §3.7) are integrated and
// enabled by the SafetyNet flag:
//  1. data responses carry the checkpoint number of the transaction's
//     point of atomicity;
//  2. directories and caches may nack coherence requests to avoid filling
//     a Checkpoint Log Buffer;
//  3. transactions close with a final acknowledgment from the requestor to
//     the directory carrying the point-of-atomicity CN.
package protocol

import "math/bits"

// HomeFunc maps a block address to its home node (directory + memory
// slice). The standard mapping interleaves blocks across nodes.
type HomeFunc func(addr uint64) int

// InterleavedHome returns the standard block-interleaved home mapping.
func InterleavedHome(blockBytes, numNodes int) HomeFunc {
	bb := uint64(blockBytes)
	n := uint64(numNodes)
	return func(addr uint64) int { return int((addr / bb) % n) }
}

// InitialData returns the deterministic initial memory token of a block.
// Workload stores overwrite it with (node, sequence) tokens; tests use the
// function as the reference image of untouched memory.
func InitialData(addr uint64) uint64 {
	z := addr + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	return z ^ (z >> 27)
}

// MemOwner is the directory owner value meaning "memory owns the block".
const MemOwner = -1

func popcount(x uint32) int { return bits.OnesCount32(x) }

func sharerBit(node int) uint32 { return 1 << uint(node) }
