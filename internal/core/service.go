package core

import (
	"safetynet/internal/msg"
	"safetynet/internal/sim"
)

// RecoveryRecord describes one completed system recovery.
type RecoveryRecord struct {
	// Detected is when the fault report reached the service controller.
	Detected sim.Time
	// Restarted is when the restart broadcast went out.
	Restarted sim.Time
	// RecoveryPoint is the checkpoint the system rolled back to.
	RecoveryPoint msg.CN
	// Cause is a short description of the detection event.
	Cause string
}

// Duration returns the recovery latency in cycles, excluding re-execution
// of lost work.
func (r RecoveryRecord) Duration() sim.Time { return r.Restarted - r.Detected }

// Hooks are the machine-level actions a service controller drives.
// Quiesce and Unquiesce are required; the notification hooks are
// optional (nil skips them) and fire only from the active controller, so
// redundant controllers sharing one Hooks value report each event once.
type Hooks struct {
	// Quiesce runs when recovery begins: discard in-flight coherence
	// traffic (drain the interconnect) and suppress checkpoint creation.
	Quiesce func()
	// Unquiesce runs just before the restart broadcast: coherence
	// traffic may flow again.
	Unquiesce func()
	// Advanced, if set, runs after each recovery-point broadcast.
	Advanced func(cn msg.CN)
	// RecoveryStarted, if set, runs when a recovery begins.
	RecoveryStarted func(cause string)
	// RecoveryCompleted, if set, runs at the restart broadcast with the
	// completed recovery's record.
	RecoveryCompleted func(rec RecoveryRecord)
}

// Controller is one of the paper's redundant system service controllers
// (§3.1, §3.5, §3.6). It coordinates two 2-phase protocols over the
// interconnect: checkpoint validation (every node reports the checkpoint
// it can validate through; the controller broadcasts the new recovery
// point) and recovery/restart (broadcast recovery, collect completions,
// broadcast restart). A validation-stall watchdog converts a wedged
// recovery point — the symptom of any lost message — into a recovery.
//
// Two controllers run in every system; both observe all coordination
// traffic, but only the active one broadcasts. Activating the standby
// after the primary fails loses nothing because their state is mirrored.
type Controller struct {
	eng      *sim.Engine
	send     func(*msg.Message)
	home     int
	numNodes int
	epoch    func() int
	hooks    Hooks

	active      bool
	rpcn        msg.CN
	ready       []msg.CN
	recovering  bool
	recoverDone []bool
	lastAdvance sim.Time

	watchdog      sim.Time
	watchdogArmed bool

	validations uint64
	recoveries  []RecoveryRecord
	pendingRec  RecoveryRecord
}

// NewController builds a service controller attached at node home. send
// injects messages into the interconnect (with Src = home); epoch reports
// the network's current recovery epoch so stale coordination messages can
// be ignored. watchdog of zero disables the stall detector.
func NewController(eng *sim.Engine, home, numNodes int, send func(*msg.Message), epoch func() int, watchdog sim.Time, hooks Hooks) *Controller {
	c := &Controller{
		eng:         eng,
		send:        send,
		home:        home,
		numNodes:    numNodes,
		epoch:       epoch,
		hooks:       hooks,
		rpcn:        1,
		ready:       make([]msg.CN, numNodes),
		recoverDone: make([]bool, numNodes),
		watchdog:    watchdog,
	}
	for i := range c.ready {
		c.ready[i] = 1
	}
	return c
}

// Activate makes this controller the acting coordinator and arms its
// watchdog. Exactly one controller should be active at a time.
func (c *Controller) Activate() {
	if c.active {
		return
	}
	c.active = true
	c.lastAdvance = c.eng.Now()
	if !c.watchdogArmed {
		c.watchdogArmed = true
		c.armWatchdog()
	}
	// A standby promoted mid-flight may already be able to advance.
	c.tryAdvance()
}

// Deactivate stops this controller from coordinating (models its failure;
// it keeps mirroring state so a later Activate resumes seamlessly —
// though a failed controller would of course never be reactivated).
func (c *Controller) Deactivate() { c.active = false }

// Active reports whether this controller is coordinating.
func (c *Controller) Active() bool { return c.active }

// RPCN returns the recovery point checkpoint number.
func (c *Controller) RPCN() msg.CN { return c.rpcn }

// Recovering reports whether a system recovery is in progress.
func (c *Controller) Recovering() bool { return c.recovering }

// Validations returns how many recovery-point advances were broadcast.
func (c *Controller) Validations() uint64 { return c.validations }

// Recoveries returns the completed recovery records.
func (c *Controller) Recoveries() []RecoveryRecord { return c.recoveries }

// Handle processes a coordination message delivered to the controller's
// home node.
func (c *Controller) Handle(m *msg.Message) {
	if m.Epoch != c.epoch() {
		// Coordination state from before a recovery is meaningless: the
		// checkpoint numbers it mentions were discarded.
		return
	}
	switch m.Type {
	case msg.CkptReady:
		if m.CN > c.ready[m.Src] {
			c.ready[m.Src] = m.CN
		}
		c.tryAdvance()
	case msg.RecoverReq:
		c.TriggerRecovery("fault report from node")
	case msg.RecoverDone:
		c.handleRecoverDone(m.Src)
	}
}

// TriggerRecovery starts a system recovery unless one is already running.
// It is called for remote fault reports (RecoverReq messages) and directly
// by the watchdog.
func (c *Controller) TriggerRecovery(cause string) {
	if !c.active || c.recovering {
		return
	}
	c.recovering = true
	c.pendingRec = RecoveryRecord{
		Detected:      c.eng.Now(),
		RecoveryPoint: c.rpcn,
		Cause:         cause,
	}
	for i := range c.recoverDone {
		c.recoverDone[i] = false
	}
	if c.hooks.RecoveryStarted != nil {
		c.hooks.RecoveryStarted(cause)
	}
	// Drain the interconnect and stop checkpoint creation, then order
	// every node to the recovery point (paper §3.6).
	c.hooks.Quiesce()
	c.broadcast(msg.Recover, c.rpcn)
}

func (c *Controller) handleRecoverDone(node int) {
	if !c.active || !c.recovering {
		return
	}
	c.recoverDone[node] = true
	for _, d := range c.recoverDone {
		if !d {
			return
		}
	}
	// Phase two of the restart barrier: every node finished its local
	// recovery; resume operation.
	c.hooks.Unquiesce()
	c.recovering = false
	for i := range c.ready {
		c.ready[i] = c.rpcn
	}
	c.lastAdvance = c.eng.Now()
	c.pendingRec.Restarted = c.eng.Now()
	c.recoveries = append(c.recoveries, c.pendingRec)
	if c.hooks.RecoveryCompleted != nil {
		c.hooks.RecoveryCompleted(c.pendingRec)
	}
	c.broadcast(msg.Restart, c.rpcn)
}

// tryAdvance validates through the minimum checkpoint every node is ready
// for, broadcasting the new recovery point (the fuzzy-barrier style
// 2-phase validation of paper §3.5).
func (c *Controller) tryAdvance() {
	if !c.active || c.recovering {
		return
	}
	min := c.ready[0]
	for _, r := range c.ready[1:] {
		if r < min {
			min = r
		}
	}
	if min <= c.rpcn {
		return
	}
	c.rpcn = min
	c.validations++
	c.lastAdvance = c.eng.Now()
	c.broadcast(msg.RPCNBcast, c.rpcn)
	if c.hooks.Advanced != nil {
		c.hooks.Advanced(c.rpcn)
	}
}

func (c *Controller) broadcast(t msg.Type, cn msg.CN) {
	for n := 0; n < c.numNodes; n++ {
		m := msg.Alloc()
		*m = msg.Message{Type: t, Src: c.home, Dst: n, CN: cn}
		c.send(m)
	}
}

func (c *Controller) armWatchdog() {
	if c.watchdog == 0 {
		return
	}
	c.eng.After(c.watchdog/2, func() {
		if c.active && !c.recovering && c.eng.Now()-c.lastAdvance > c.watchdog {
			// The recovery point is stuck: some transaction never
			// completed, which is how a lost message (or lost
			// validation coordination) manifests (paper §3.5).
			c.TriggerRecovery("validation watchdog: recovery point stalled")
		}
		c.armWatchdog()
	})
}
