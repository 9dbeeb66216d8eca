package main

import (
	"runtime"
	"time"

	"safetynet/internal/cache"
	"safetynet/internal/config"
	"safetynet/internal/core"
	"safetynet/internal/msg"
	"safetynet/internal/network"
	"safetynet/internal/protocol"
	"safetynet/internal/runner"
	"safetynet/internal/sim"
	"safetynet/internal/stats"
	"safetynet/internal/topology"
	"safetynet/internal/workload"
)

// The probes time one layer at a time through its public API, replaying
// inputs generated from the workload's own profile and seed. They run
// only in the traced run, after the profiled phase, and report the
// median of probePasses passes.

const (
	probeOps    = 200_000
	probePasses = 5
)

// opStream returns node's first n memory operations under the profile.
func opStream(prof workload.Profile, node int, seed uint64, n int) []workload.Op {
	g := workload.NewSynthetic(prof, node, seed)
	ops := make([]workload.Op, 0, n)
	for len(ops) < n {
		if op := g.Next(); !op.IsIO {
			ops = append(ops, op)
		}
	}
	return ops
}

// perPass times f over probePasses passes and returns the median
// nanoseconds per item and the items one pass handles.
func perPass(f func() int) (nsPer float64, items int) {
	var xs []float64
	for i := 0; i < probePasses; i++ {
		t := time.Now()
		items = f()
		xs = append(xs, float64(time.Since(t).Nanoseconds())/float64(items))
	}
	return stats.Percentile(xs, 50), items
}

// probeCache replays node 0's address stream through an L1/L2 array pair
// of the run's geometry; a lookup is one Array.Lookup call together with
// the Touch, Victim, and Install it leads to.
func probeCache(p config.Params, prof workload.Profile, seed uint64) (float64, int) {
	ops := opStream(prof, 0, seed, probeOps)
	l1 := cache.NewArray(p.L1Sets(), p.L1Ways, p.BlockBytes)
	l2 := cache.NewArray(p.L2Sets(), p.L2Ways, p.BlockBytes)
	return perPass(func() int {
		n := 0
		for _, op := range ops {
			n++
			if l := l1.Lookup(op.Addr); l != nil {
				l1.Touch(l)
				continue
			}
			n++
			if l := l2.Lookup(op.Addr); l != nil {
				l2.Touch(l)
			} else {
				l2.Install(l2.Victim(op.Addr, nil), op.Addr, cache.Shared, msg.Null, 0)
			}
			l1.Install(l1.Victim(op.Addr, nil), op.Addr, cache.Shared, msg.Null, 0)
		}
		return n
	})
}

// probeWorkload times the generator itself.
func probeWorkload(prof workload.Profile, seed uint64) (float64, int) {
	var sink uint64
	ns, n := perPass(func() int {
		g := workload.NewSynthetic(prof, 0, seed)
		for i := 0; i < probeOps; i++ {
			sink += g.Next().Addr
		}
		return probeOps
	})
	runtime.KeepAlive(sink)
	return ns, n
}

// probeCLB fills a CLB of the run's capacity with entries built from the
// workload's operations (stores log overwrites, loads stand in for
// ownership transfers), then unrolls it, until probeOps entries have
// passed through. It returns ns per append and per unrolled entry.
func probeCLB(p config.Params, prof workload.Profile, seed uint64) (nsAppend float64, appends int, nsUnroll float64, unrolled int) {
	ops := opStream(prof, 0, seed, probeOps)
	entries := make([]core.Entry, len(ops))
	for i, op := range ops {
		entries[i] = core.Entry{Addr: op.Addr, Tag: msg.CN(2 + i/1024), OldData: op.StoreVal, OldState: cache.Modified, Transfer: !op.IsStore}
	}
	clb := core.NewCLB(p.CLBBytes, p.CLBEntryBytes)
	var sink uint64
	var appendXs, unrollXs []float64
	for pass := 0; pass < probePasses; pass++ {
		var tAppend, tUnroll time.Duration
		appends, unrolled = 0, 0
		for i := 0; i < len(entries); {
			t := time.Now()
			for i < len(entries) && clb.Append(entries[i]) {
				i++
				appends++
			}
			tAppend += time.Since(t)
			t = time.Now()
			unrolled += clb.Unroll(func(e core.Entry) { sink ^= e.OldData })
			tUnroll += time.Since(t)
		}
		appendXs = append(appendXs, float64(tAppend.Nanoseconds())/float64(appends))
		unrollXs = append(unrollXs, float64(tUnroll.Nanoseconds())/float64(unrolled))
	}
	runtime.KeepAlive(sink)
	return stats.Percentile(appendXs, 50), appends, stats.Percentile(unrollXs, 50), unrolled
}

// probeNetwork sends each node's requests to the home node of the
// addresses its workload stream touches, on the run's torus, delivering
// in bursts; a send is timed from Send to delivery.
func probeNetwork(p config.Params, prof workload.Profile, seed uint64) (float64, int) {
	home := protocol.InterleavedHome(p.BlockBytes, p.NumNodes)
	per := probeOps / p.NumNodes
	type req struct {
		t        msg.Type
		src, dst int
		addr     uint64
	}
	reqs := make([]req, 0, per*p.NumNodes)
	streams := make([][]workload.Op, p.NumNodes)
	for n := range streams {
		streams[n] = opStream(prof, n, seed, per)
	}
	for i := 0; i < per; i++ {
		for n, s := range streams {
			t := msg.GETS
			if s[i].IsStore {
				t = msg.GETX
			}
			reqs = append(reqs, req{t, n, home(s[i].Addr), s[i].Addr})
		}
	}
	return perPass(func() int {
		eng := sim.NewEngine()
		nw := network.New(eng, topology.New(p.TorusWidth, p.TorusHeight), p)
		for n := 0; n < p.NumNodes; n++ {
			nw.Attach(n, msg.Release)
		}
		for i, r := range reqs {
			m := msg.Alloc()
			*m = msg.Message{Type: r.t, Src: r.src, Dst: r.dst, Addr: r.addr}
			nw.Send(m)
			if i%64 == 63 {
				eng.Run(eng.Now() + 512)
			}
		}
		eng.Run(eng.Now() + 100_000)
		return len(reqs)
	})
}

const setupProbeSamples = 5

// setupProbe builds the backend for both protocols setupProbeSamples
// times each and returns the median milliseconds per protocol and the
// bytes one directory build allocates.
func setupProbe(p config.Params, prof workload.Profile, tr *tracer, parent int) (msPer map[string]float64, dirAlloc uint64, err error) {
	msPer = map[string]float64{}
	for _, proto := range config.Protocols() {
		pp := p
		pp.Protocol = proto
		var xs []float64
		for i := 0; i < setupProbeSamples; i++ {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			sp := tr.begin("NewBackend", parent)
			t := time.Now()
			_, err := runner.NewBackend(pp, prof)
			xs = append(xs, float64(time.Since(t).Nanoseconds())/1e6)
			tr.end(sp)
			if err != nil {
				return nil, 0, err
			}
			runtime.ReadMemStats(&m1)
			if proto == config.ProtocolDirectory {
				dirAlloc = m1.TotalAlloc - m0.TotalAlloc
			}
		}
		msPer[proto] = stats.Percentile(xs, 50)
	}
	return msPer, dirAlloc, nil
}

// putProbes runs every layer probe on the workload's configuration and
// reports it.
func putProbes(ms metricSet, p config.Params, prof workload.Profile, seed uint64, tr *tracer) error {
	sp := tr.begin("probes", 0)
	defer tr.end(sp)
	setup, dirAlloc, err := setupProbe(p, prof, tr, sp)
	if err != nil {
		return err
	}
	ms.put("machine.setup_ms", setup[config.ProtocolDirectory])
	ms.put("snoop.setup_ms", setup[config.ProtocolSnoop])
	ms.put("cache.setup_mb", float64(dirAlloc)/1e6)

	ns, n := probeCache(p, prof, seed)
	ms.put("cache.ns_per_lookup", ns)
	ms.put("cache.probe_lookups", float64(n))
	ns, n = probeWorkload(prof, seed)
	ms.put("workload.ns_per_op", ns)
	ms.put("workload.probe_ops", float64(n))
	nsA, nA, nsU, nU := probeCLB(p, prof, seed)
	ms.put("core.ns_per_append", nsA)
	ms.put("core.probe_appends", float64(nA))
	ms.put("core.ns_per_unroll_entry", nsU)
	ms.put("core.probe_unrolled", float64(nU))
	ns, n = probeNetwork(p, prof, seed)
	ms.put("network.ns_per_send", ns)
	ms.put("network.probe_sends", float64(n))
	return nil
}
