package core

import (
	"fmt"

	"safetynet/internal/msg"
)

// BusyQueue counts a component's in-flight transactions by the checkpoint
// number they started in. A component agrees to validate checkpoint k
// only once every transaction it began before k completed (paper §3.5),
// so its readiness is bounded by the oldest start CN still busy.
//
// A transaction always starts at its component's current CN, and that CN
// only grows until a recovery resets the queue, so starts arrive in CN
// order: the queue keeps one count per start CN, oldest first.
// Completions come in any order. A count that falls to zero leaves the
// queue once it reaches the head, so the head is always the oldest busy
// CN and readiness costs O(1).
type BusyQueue struct {
	counts []cnCount // counts[head:], in increasing CN order
	head   int
	total  int
}

// cnCount is the number of busy transactions that started at cn.
type cnCount struct {
	cn msg.CN
	n  int
}

// Add records a transaction starting at cn. Starts must not go below
// the newest start CN still queued.
//
//snvet:alloc-free
func (q *BusyQueue) Add(cn msg.CN) {
	if last := len(q.counts) - 1; last >= q.head {
		c := &q.counts[last]
		if cn < c.cn {
			panic(fmt.Sprintf("core: transaction start at CN %d below queued start CN %d", cn, c.cn))
		}
		if cn == c.cn {
			c.n++
			q.total++
			return
		}
	}
	if q.head > 0 && len(q.counts) == cap(q.counts) {
		// Reuse the drained prefix before growing.
		n := copy(q.counts, q.counts[q.head:])
		q.counts, q.head = q.counts[:n], 0
	}
	q.counts = append(q.counts, cnCount{cn: cn, n: 1}) //snvet:alloc-ok amortized growth; the steady state reuses the drained prefix
	q.total++
}

// Done records the completion of a transaction that started at cn.
//
//snvet:alloc-free
func (q *BusyQueue) Done(cn msg.CN) {
	i := q.head
	for i < len(q.counts) && q.counts[i].cn < cn {
		i++
	}
	if i == len(q.counts) || q.counts[i].cn != cn || q.counts[i].n == 0 {
		panic(fmt.Sprintf("core: completion of a transaction started at CN %d, which has none busy", cn))
	}
	q.counts[i].n--
	q.total--
	for q.head < len(q.counts) && q.counts[q.head].n == 0 {
		q.head++
	}
	if q.head == len(q.counts) {
		q.counts, q.head = q.counts[:0], 0
	}
}

// Ready returns the highest checkpoint a component at ccn agrees to
// validate: ccn, bounded by the oldest busy start CN.
func (q *BusyQueue) Ready(ccn msg.CN) msg.CN {
	if q.total > 0 && q.counts[q.head].cn < ccn {
		return q.counts[q.head].cn
	}
	return ccn
}

// Len returns the number of busy transactions.
func (q *BusyQueue) Len() int { return q.total }

// Reset forgets every transaction (a recovery discards them all).
func (q *BusyQueue) Reset() {
	q.counts, q.head, q.total = q.counts[:0], 0, 0
}
