package machine

import (
	"safetynet/internal/backend"
	"safetynet/internal/cache"
	"safetynet/internal/fault"
	"safetynet/internal/network"
	"safetynet/internal/sim"
)

// This file adapts Machine to the protocol-neutral backend.Backend
// contract shared with the snooping system; runner.NewBackend asserts
// the interface is satisfied.

// Now returns the current simulation time.
func (m *Machine) Now() sim.Time { return m.Eng.Now() }

// Resume restarts every processor after a Quiesce.
func (m *Machine) Resume() { m.ResumeAll() }

// CrashInfo reports the crash state of the unprotected baseline.
func (m *Machine) CrashInfo() (bool, string) { return m.Crashed, m.CrashCause }

// FaultTarget returns the torus's fault injector, engine and topology,
// which fault events arm on.
func (m *Machine) FaultTarget() fault.Target {
	return fault.Target{Faults: m.Net.Faults(), Eng: m.Eng, Topo: m.Topo}
}

// Observe registers a backend-neutral run observer.
func (m *Machine) Observe(o *backend.Observer) { m.obs = append(m.obs, o) }

// L2 returns the L2 array of the given node.
func (m *Machine) L2(node int) *cache.Array { return m.Nodes[node].CC.L2() }

// Release hands every node's L1 and L2 frames to the next machine's
// arrays; nothing may use the machine afterwards.
func (m *Machine) Release() {
	for _, n := range m.Nodes {
		n.CC.Release()
	}
}

// Counters returns the cumulative statistics, detail fields included.
func (m *Machine) Counters() backend.Counters {
	ns := m.Net.Stats()
	// Fault-induced losses only, to line up with the snoop backend:
	// injected drops, messages lost in killed or unroutable switches, and
	// corrupted messages (discarded at the endpoint's CRC check). The
	// protocol's own epoch/recovery discards are not losses.
	lost := ns.Dropped[network.DropInjectedFault] +
		ns.Dropped[network.DropDeadSwitch] +
		ns.Dropped[network.DropUnroutable] +
		ns.Corrupted
	c := backend.Counters{
		Instrs:           m.TotalInstrs(),
		InstrsRolledBack: m.InstrsRolledBack,
		MessagesSent:     ns.Sent,
		MessagesDropped:  lost,
	}
	for _, n := range m.Nodes {
		s := n.CC.Stats()
		c.Stores += s.Stores
		c.CoherenceReqs += s.RequestsIssued
		c.CLBStallCycles += s.CLBStallCycles
		bw := n.CC.Bandwidth()
		c.Bandwidth.HitCycles += bw.HitCycles
		c.Bandwidth.FillCycles += bw.FillCycles
		c.Bandwidth.CoherenceCycles += bw.CoherenceCycles
		c.Bandwidth.LoggingCycles += bw.LoggingCycles
		if clb := n.CC.CLB(); clb != nil {
			c.StoresLogged += clb.Appends() - clb.TransferAppends()
			c.TransfersLogged += clb.TransferAppends()
			c.CLBPeakBytes = max(c.CLBPeakBytes, clb.PeakBytes())
		}
		if clb := n.Dir.CLB(); clb != nil {
			c.DirLogged += clb.Appends()
			c.CLBPeakBytes = max(c.CLBPeakBytes, clb.PeakBytes())
		}
	}
	if svc := m.ActiveService(); svc != nil {
		recs := svc.Recoveries()
		c.Recoveries = len(recs)
		for _, r := range recs {
			c.RecoveryCycles = append(c.RecoveryCycles, r.Duration())
		}
	}
	return c
}
