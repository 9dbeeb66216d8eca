// Package iodev models the I/O boundary of the sphere of recovery:
// SafetyNet's output commit (outputs are buffered until their checkpoint
// validates, because an output that escaped cannot be undone by recovery)
// and input commit (consumed inputs are logged so they can be replayed
// after a recovery). Paper §2.4.
package iodev

import "safetynet/perfbench/refsim/msg"

type outRec struct {
	val uint64
	tag msg.CN
}

// OutputBuffer delays outputs generated within a checkpoint until that
// checkpoint validates.
type OutputBuffer struct {
	pending  []outRec
	released []uint64
	// Discarded counts unvalidated outputs revoked by recoveries; their
	// re-executed incarnations release later.
	Discarded uint64
}

// NewOutputBuffer returns an empty buffer.
func NewOutputBuffer() *OutputBuffer { return &OutputBuffer{} }

// Write buffers an output generated while the component's current
// checkpoint number is ccn; it belongs to checkpoint CCN+1.
func (b *OutputBuffer) Write(val uint64, ccn msg.CN) {
	b.pending = append(b.pending, outRec{val: val, tag: ccn + 1})
}

// OnValidate releases, in order, every buffered output whose checkpoint
// is now validated.
func (b *OutputBuffer) OnValidate(rpcn msg.CN) {
	i := 0
	for i < len(b.pending) && b.pending[i].tag <= rpcn {
		b.released = append(b.released, b.pending[i].val)
		i++
	}
	b.pending = b.pending[i:]
}

// Recover discards buffered outputs from unvalidated checkpoints. Nothing
// already released is touched — that is the point of output commit.
func (b *OutputBuffer) Recover(rpcn msg.CN) {
	kept := b.pending[:0]
	for _, r := range b.pending {
		if r.tag <= rpcn {
			kept = append(kept, r)
		} else {
			b.Discarded++
		}
	}
	b.pending = kept
}

// Released returns the outputs that escaped to the outside world.
func (b *OutputBuffer) Released() []uint64 { return b.released }

// PendingCount returns the number of buffered (unreleased) outputs.
func (b *OutputBuffer) PendingCount() int { return len(b.pending) }

type inRec struct {
	val uint64
	tag msg.CN
}

// InputLog delivers an input stream to a processor exactly once in the
// validated execution: consumed inputs are logged with the checkpoint
// that consumed them and re-delivered after a recovery rolls that
// checkpoint back.
type InputLog struct {
	next    func() (uint64, bool)
	replay  []uint64
	log     []inRec
	Replays uint64
}

// NewInputLog wraps a source stream. next returns the next outside-world
// input, or false when exhausted.
func NewInputLog(next func() (uint64, bool)) *InputLog {
	return &InputLog{next: next}
}

// Consume delivers the next input to a processor running at checkpoint
// number ccn.
func (l *InputLog) Consume(ccn msg.CN) (uint64, bool) {
	var v uint64
	if len(l.replay) > 0 {
		v = l.replay[0]
		l.replay = l.replay[1:]
	} else {
		var ok bool
		v, ok = l.next()
		if !ok {
			return 0, false
		}
	}
	l.log = append(l.log, inRec{val: v, tag: ccn + 1})
	return v, true
}

// OnValidate drops log records for validated checkpoints (their
// consumption can no longer be rolled back).
func (l *InputLog) OnValidate(rpcn msg.CN) {
	i := 0
	for i < len(l.log) && l.log[i].tag <= rpcn {
		i++
	}
	l.log = l.log[i:]
}

// Recover re-queues inputs consumed in rolled-back checkpoints, in order,
// ahead of fresh source inputs.
func (l *InputLog) Recover(rpcn msg.CN) {
	var requeue []uint64
	kept := l.log[:0]
	for _, r := range l.log {
		if r.tag <= rpcn {
			kept = append(kept, r)
		} else {
			requeue = append(requeue, r.val)
			l.Replays++
		}
	}
	l.log = kept
	l.replay = append(requeue, l.replay...)
}
