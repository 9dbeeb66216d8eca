// Package msg defines the message vocabulary shared by the interconnection
// network, the MOSI directory protocol, and SafetyNet's system-level
// coordination (checkpoint validation, recovery, restart). Keeping it in
// one leaf package lets the network stay ignorant of protocol semantics
// while the protocol stays ignorant of routing.
//
// Messages are pooled: hot paths obtain them with Alloc, hand ownership to
// Network.Send, and the terminal consumer (the delivery handler, or the
// network's drop path) returns them with Release. See the ownership rules
// on Alloc.
package msg

import (
	"fmt"
	"sync"
)

// CN is a checkpoint number. Zero is the null CN: the block (or message)
// belongs to the recovery point and every later checkpoint (paper §3.3).
type CN uint32

// Null is the null checkpoint number.
const Null CN = 0

// Type enumerates every message the system exchanges.
type Type int

const (
	// --- Coherence requests (requestor -> home directory) ---

	// GETS requests a shared (read) copy.
	GETS Type = iota
	// GETX requests an exclusive (writable) copy, or an upgrade when the
	// requestor already holds the data.
	GETX
	// PUTX writes an owned block back to its home memory (eviction).
	PUTX

	// --- Directory actions ---

	// FwdGETS forwards a GETS to the owning cache (3-hop transaction).
	FwdGETS
	// FwdGETX forwards a GETX to the owning cache (3-hop transaction).
	FwdGETX
	// Inv tells a sharer to invalidate; the sharer acks the requestor.
	Inv
	// NackReq bounces a request the directory cannot serve now (entry
	// busy, or memory-side CLB full under SafetyNet); the requestor
	// retries. Nacking coherence requests to avoid filling a CLB is one
	// of SafetyNet's three protocol changes (paper §3.7).
	NackReq
	// WBAck confirms a PUTX was absorbed by memory.
	WBAck
	// WBStale tells an evictor its PUTX lost a race: ownership already
	// moved via a forwarded request it answered from its writeback buffer.
	WBStale

	// --- Responses toward the requestor ---

	// Data carries a shared copy (no ownership transfer). Under
	// SafetyNet it carries the transaction's point-of-atomicity CN.
	Data
	// DataEx carries data plus ownership, with AckCount pending
	// invalidation acks the requestor must collect.
	DataEx
	// AckCount grants ownership to an upgrading requestor that already
	// holds the data; AckCount invalidation acks are pending.
	AckCount
	// InvAck is a sharer's invalidation acknowledgment, sent to the
	// requestor of the GETX that triggered it.
	InvAck

	// --- Transaction completion ---

	// AckDone is the requestor's final acknowledgment to the directory,
	// carrying the point-of-atomicity CN so the directory can commit and
	// log its entry change. SafetyNet adds this to 3-hop transactions
	// (paper §3.7); this implementation uses it for every
	// ownership-changing transaction.
	AckDone

	// --- SafetyNet system-level coordination ---

	// CkptReady tells the service controllers the sender can validate
	// through checkpoint CN.
	CkptReady
	// RPCNBcast broadcasts a newly validated recovery-point checkpoint
	// number.
	RPCNBcast
	// RecoverReq reports a detected fault to the service controllers.
	RecoverReq
	// Recover orders every node to recover to checkpoint CN.
	Recover
	// RecoverDone reports local recovery completion.
	RecoverDone
	// Restart orders every node to resume execution (phase two of the
	// restart barrier).
	Restart
)

var typeNames = map[Type]string{
	GETS: "GETS", GETX: "GETX", PUTX: "PUTX",
	FwdGETS: "FwdGETS", FwdGETX: "FwdGETX", Inv: "Inv",
	NackReq: "NackReq", WBAck: "WBAck", WBStale: "WBStale",
	Data: "Data", DataEx: "DataEx", AckCount: "AckCount", InvAck: "InvAck",
	AckDone:   "AckDone",
	CkptReady: "CkptReady", RPCNBcast: "RPCNBcast", RecoverReq: "RecoverReq",
	Recover: "Recover", RecoverDone: "RecoverDone", Restart: "Restart",
}

func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// CarriesData reports whether the message includes a full cache block
// (and therefore pays data-message serialization on every link).
func (t Type) CarriesData() bool {
	switch t {
	case PUTX, Data, DataEx:
		return true
	}
	return false
}

// IsCoherence reports whether the message belongs to the coherence
// protocol (as opposed to SafetyNet system coordination). During recovery
// the network discards in-flight coherence traffic but keeps delivering
// coordination traffic.
func (t Type) IsCoherence() bool {
	switch t {
	case CkptReady, RPCNBcast, RecoverReq, Recover, RecoverDone, Restart:
		return false
	}
	return true
}

const (
	// CtrlBytes is the wire size of a control message.
	CtrlBytes = 8
	// HeaderBytes is the header carried by data messages on top of the
	// block payload.
	HeaderBytes = 8
)

// Size returns the wire size of a message of type t carrying blockBytes of
// payload when data-bearing.
func Size(t Type, blockBytes int) int {
	if t.CarriesData() {
		return HeaderBytes + blockBytes
	}
	return CtrlBytes
}

// Message is one unit of network traffic. Block data is modeled as a
// single uint64 token rather than 64 raw bytes: the simulator verifies
// value coherence by token equality, while wire sizes and CLB occupancy
// are charged according to the configured block size.
type Message struct {
	Type Type
	// Src and Dst are node IDs.
	Src, Dst int
	// Addr is the block address (block-aligned).
	Addr uint64
	// Data is the block-value token for data-bearing messages.
	Data uint64
	// CN is the checkpoint number rider: the point of atomicity on
	// Data/DataEx/AckCount/AckDone, the ready checkpoint on CkptReady,
	// the new recovery point on RPCNBcast/Recover.
	CN CN
	// AckCount is the number of invalidation acks the requestor must
	// collect (DataEx/AckCount).
	AckCount int
	// NeedsAck tells a Data recipient to close the transaction with an
	// AckDone to the directory (set on 3-hop GETS responses; 2-hop GETS
	// responses complete at the directory immediately).
	NeedsAck bool
	// HaveData, on a GETX, tells the directory the requestor still holds
	// a valid shared copy, so permission can be granted without data
	// (an upgrade). The directory must not rely on its sharer list for
	// this: sharer bits are conservative supersets after silent
	// evictions and recoveries.
	HaveData bool
	// Requestor identifies the transaction's requestor on forwarded
	// messages (FwdGETS/FwdGETX/Inv) so responses and acks can be routed.
	Requestor int
	// Txn tags the transaction for matching retries, acks, and timeouts.
	Txn uint64
	// Epoch stamps the recovery epoch in which the message was injected;
	// stale-epoch coherence messages are discarded on delivery.
	Epoch int
	// Corrupted marks a message damaged in the interconnect; endpoints
	// detect it with their error-detecting code (the paper's CRC
	// example) and report the fault instead of consuming the payload.
	Corrupted bool
}

// String renders a compact debug form.
func (m *Message) String() string {
	return fmt.Sprintf("%s %d->%d addr=%#x cn=%d txn=%d", m.Type, m.Src, m.Dst, m.Addr, m.CN, m.Txn)
}

// pool recycles Message values across send sites. sync.Pool keeps the
// free lists per-P, so the harness's parallel simulation runner shares it
// without contention.
var pool = sync.Pool{New: func() any { return new(Message) }}

// Alloc returns a Message from the pool. Its fields are unspecified; the
// caller must assign a full literal (*m = Message{...}) before use.
//
// Ownership: the allocator owns the message until it hands it to
// Network.Send, which passes ownership to the delivery handler (or to the
// drop path, which Releases internally). A handler that defers work
// capturing the message keeps ownership until that work completes. Exactly
// one owner must eventually call Release; messages built with plain
// &Message{} literals (tests) may skip Release entirely.
func Alloc() *Message {
	return pool.Get().(*Message)
}

// Release returns a message to the pool. The caller must not touch m
// afterwards. Releasing nil is a no-op.
func Release(m *Message) {
	if m != nil {
		pool.Put(m)
	}
}
