// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed host-time budget, checks that every simulated
// result is correct, and prints as its last line one JSON object with
// the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload oltp-steady --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"safetynet/internal/campaign"
	"safetynet/internal/config"
	"safetynet/internal/scenario"
	"safetynet/internal/stats"
	"safetynet/internal/workload"
	refrunner "safetynet/perfbench/refsim/runner"
)

// defaultSeed is the seed the pinned statistics were taken at.
const defaultSeed = 1

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string
	quick    bool // tiny horizon for the smoke test; pinned statistics do not apply
	spans    string
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// hostFacts are recorded with every result.
type hostFacts struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func facts(o options) hostFacts {
	h := hostFacts{Workload: o.workload, Seed: o.seed, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// tally counts operations attempted and failed, keeping the reasons.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) record(failure string) {
	t.attempted++
	if failure != "" {
		t.failed++
		t.reasons = append(t.reasons, failure)
	}
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: oltp-steady, stress-recovery, or campaign-matrix")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "host seconds to measure for")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.StringVar(&o.root, "root", ".", "repository checkout to read inputs from")
	flag.StringVar(&o.spans, "spans", "", "where the traced run writes its spans (default .bench_build/perfbench/spans-<workload>-<seed>.json under -root)")
	flag.Parse()
	o.trace = trace != 0
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	h, _ := json.Marshal(facts(o))
	fmt.Printf("host: %s\n", h)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(o options) (result, error) {
	var t tally
	ms := metricSet{}
	var err error
	switch {
	case o.workload == "campaign-matrix":
		err = runMatrix(o, ms, &t)
	case singles[o.workload].preset != "":
		err = runSingleWorkload(o, singles[o.workload], ms, &t)
	default:
		err = fmt.Errorf("unknown workload %q (have oltp-steady, stress-recovery, campaign-matrix)", o.workload)
	}
	if err != nil {
		return result{}, err
	}
	for _, r := range t.reasons {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", r)
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: ms}, nil
}

// allocReps and allocPasses are how many unpaired repetitions of a
// single-run workload, and unpaired passes of campaign-matrix, give the
// allocation metrics before the paired ones time the program.
const (
	allocReps   = 3
	allocPasses = 1
)

// setupSamples is how many times every workload times its set-up.
const setupSamples = 41

// usage is one unpaired repetition's allocation figures.
type usage struct {
	allocMB, kallocs, heapMB float64
}

// measure times setup setupSamples times, each after a forced
// collection, and reports their median. It then makes unpaired
// repetitions, which run the program alone and give the allocation
// metrics as medians, and paired repetitions for as long as the next one
// fits the budget (at least one). A paired repetition runs every part of
// the work on the program and, just before or after it, the same part on
// the reference simulator, and returns the host time each spent;
// speedup_vs_ref is the reference's total over the program's.
//
// The host's speed swings by a third within a minute, so a host time
// measured alone spreads by about a quarter from one run to the next. The
// two halves of a pair run within milliseconds of each other and slow
// down together, and their ratio repeats to about a percent (README.md,
// "Host time").
func measure(o options, ms metricSet, unpairedReps int, setup func() error, unpaired func() (usage, error), paired func() (prog, ref time.Duration, err error)) error {
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		t := time.Now()
		if err := setup(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	var us []usage
	for i := 0; i < unpairedReps; i++ {
		u, err := unpaired()
		if err != nil {
			return err
		}
		us = append(us, u)
	}
	var prog, ref, last time.Duration
	for n := 0; n == 0 || time.Now().Add(last).Before(deadline); n++ {
		t := time.Now()
		p, r, err := paired()
		if err != nil {
			return err
		}
		last = time.Since(t)
		prog, ref = prog+p, ref+r
	}
	med := func(f func(usage) float64) float64 {
		xs := make([]float64, len(us))
		for i, u := range us {
			xs[i] = f(u)
		}
		return stats.Percentile(xs, 50)
	}
	ms.put("speedup_vs_ref", ref.Seconds()/prog.Seconds())
	ms.put("setup_s", stats.Percentile(setups, 50))
	ms.put("alloc_mb_per_run", med(func(u usage) float64 { return u.allocMB }))
	ms.put("kallocs_per_run", med(func(u usage) float64 { return u.kallocs }))
	ms.put("heap_live_mb", med(func(u usage) float64 { return u.heapMB }))
	return nil
}

func runSingleWorkload(o options, spec singleSpec, ms metricSet, t *tally) error {
	input, err := singleInput(o.workload, spec, o.seed, o.quick)
	if err != nil {
		return err
	}
	var want *simStats
	if pin, ok := pinnedStats[o.workload]; ok && o.seed == defaultSeed && !o.quick {
		want = &pin
	}
	check := func(r repResult) {
		if want == nil {
			want = &r.stats
		}
		t.record(r.judge(want))
	}
	if o.trace {
		return traceSingle(o, input, ms, t, check)
	}

	return measure(o, ms, allocReps, func() error {
		_, _, err := setupSingle(input, nil, 0)
		return err
	}, func() (usage, error) {
		r, err := runSingle(input, nil, 0, nil)
		if err != nil {
			return usage{}, err
		}
		check(r)
		return usage{float64(r.alloc) / 1e6, float64(r.mallocs) / 1e3, float64(r.heapLive) / 1e6}, nil
	}, func() (time.Duration, time.Duration, error) {
		rb, _, err := refSetup(input)
		if err != nil {
			return 0, 0, err
		}
		r, err := runSingle(input, nil, 0, rb)
		if err != nil {
			return 0, 0, err
		}
		check(r)
		return r.stepped, r.refRun, nil
	})
}

// tracedReps is how many untraced and then traced repetitions the traced
// run of a single-run workload makes.
const tracedReps = 3

func traceSingle(o options, input []byte, ms metricSet, t *tally, check func(repResult)) error {
	var untraced []float64
	for i := 0; i < tracedReps; i++ {
		r, err := runSingle(input, nil, 0, nil)
		if err != nil {
			return err
		}
		check(r)
		untraced = append(untraced, r.mcyclesPerS())
	}
	tr := newTracer()
	var traced []float64
	var layers *layerCounters
	err := profiled(ms, func() error {
		for i := 0; i < tracedReps; i++ {
			sp := tr.begin("rep", 0)
			r, err := runSingle(input, tr, sp, nil)
			tr.end(sp)
			if err != nil {
				return err
			}
			check(r)
			traced = append(traced, r.mcyclesPerS())
			layers = r.layers
		}
		return nil
	})
	if err != nil {
		return err
	}
	ms.put("trace.overhead_mcycles_per_s", stats.Percentile(traced, 50)-stats.Percentile(untraced, 50))
	putLayers(ms, layers)

	sc, err := scenario.Parse(input)
	if err != nil {
		return err
	}
	p, err := sc.Params()
	if err != nil {
		return err
	}
	wl, err := workload.ByName(sc.Workload)
	if err != nil {
		return err
	}
	if err := putProbes(ms, p, wl, o.seed, tr); err != nil {
		return err
	}
	// The runner and campaign layers have no part in a single run; their
	// metrics come from a pool of short runs of this workload on both
	// protocols, dispatched like the campaign-matrix workload's runs.
	pool := poolCampaign(o.workload, sc, o.seed)
	sp := tr.begin("pool", 0)
	d, err := dispatchTraced(pool, runtime.NumCPU(), tr, sp, nil)
	tr.end(sp)
	if err != nil {
		return err
	}
	for i := 0; i < d.runs; i++ {
		t.record(d.failure(i))
	}
	putDispatch(ms, d)
	return writeSpans(o, tr)
}

// poolRuns and poolHorizon size the runner pool of a single-run
// workload's traced run: enough runs that a p90 has ten beyond it.
const (
	poolRuns    = 120
	poolHorizon = 50_000
)

func poolCampaign(name string, sc *scenario.Scenario, seed uint64) *campaign.Campaign {
	point := func(proto string) campaign.AxisPoint {
		return campaign.AxisPoint{Label: proto, Overrides: &scenario.Overrides{Protocol: &proto}}
	}
	c := &campaign.Campaign{
		Name: name + "-pool",
		Base: *sc,
		Axes: []campaign.Axis{{Name: "protocol", Points: []campaign.AxisPoint{
			point(config.ProtocolDirectory), point(config.ProtocolSnoop)}}},
		Seeds: &campaign.SeedRange{Start: seed, Count: poolRuns / 2, Stride: 7919},
	}
	return c.Scaled(poolHorizon)
}

func runMatrix(o options, ms metricSet, t *tally) error {
	workers := runtime.NumCPU()
	c, runs, err := campaignSetup(o.root, o.seed, o.quick, nil, 0)
	if err != nil {
		return err
	}
	want := ""
	if o.seed == defaultSeed && !o.quick {
		want = pinnedMatrixHash
	}
	// judge counts every run of a pass; a report that differs from the
	// expected one fails them all.
	judge := func(p passResult) {
		if want == "" {
			want = p.hash
		}
		for i := range runs {
			if p.hash != want {
				t.record(fmt.Sprintf("campaign report hash %s differs from %s", p.hash, want))
			} else {
				t.record(p.failure(i))
			}
		}
	}
	if o.trace {
		return traceMatrix(o, c, runs, workers, ms, t, judge)
	}

	refs := make([]refrunner.RunConfig, len(runs))
	for i := range runs {
		doc, err := runs[i].Scenario.Encode()
		if err == nil {
			refs[i], err = refRunConfig(doc)
		}
		if err != nil {
			return err
		}
	}
	n := float64(len(runs))
	return measure(o, ms, allocPasses, func() error {
		_, _, err := campaignSetup(o.root, o.seed, o.quick, nil, 0)
		return err
	}, func() (usage, error) {
		d, err := dispatchTraced(c, workers, nil, 0, nil)
		if err != nil {
			return usage{}, err
		}
		judge(d.passResult)
		return usage{float64(d.alloc) / 1e6 / n, float64(d.mallocs) / 1e3 / n, float64(d.heapLive) / 1e6}, nil
	}, func() (time.Duration, time.Duration, error) {
		d, err := dispatchTraced(c, workers, nil, 0, refs)
		if err != nil {
			return 0, 0, err
		}
		judge(d.passResult)
		return d.busy, d.refBusy, nil
	})
}

func traceMatrix(o options, c *campaign.Campaign, runs []campaign.Run, workers int, ms metricSet, t *tally, judge func(passResult)) error {
	// The tracing overhead compares the same dispatch without and with a
	// tracer, so it holds no difference between dispatchers.
	cycles := totalCycles(runs)
	u, err := dispatchTraced(c, workers, nil, 0, nil)
	if err != nil {
		return err
	}
	judge(u.passResult)
	untraced := cycles / 1e6 / u.wall.Seconds()

	tr := newTracer()
	var d dispatchResult
	err = profiled(ms, func() error {
		sp := tr.begin("campaign", 0)
		defer tr.end(sp)
		var err error
		d, err = dispatchTraced(c, workers, tr, sp, nil)
		return err
	})
	if err != nil {
		return err
	}
	judge(d.passResult)
	ms.put("trace.overhead_mcycles_per_s", cycles/1e6/d.wall.Seconds()-untraced)
	putDispatch(ms, d)

	// Layer counters exist on the directory machine only: run the first
	// seed of every directory cell of the matrix directly.
	sp := tr.begin("detail", 0)
	var sum layerCounters
	seeds := 1
	if c.Seeds != nil {
		seeds = c.Seeds.Count
	}
	for i := 0; i < len(runs); i += seeds {
		sc := runs[i].Scenario
		pp, err := sc.Params()
		if err != nil {
			return err
		}
		if pp.ProtocolName() != config.ProtocolDirectory {
			continue
		}
		input, err := sc.Encode()
		if err != nil {
			return err
		}
		r, err := runSingle(input, tr, sp, nil)
		if err != nil {
			return err
		}
		t.record(r.failure)
		sum.add(r.layers)
	}
	tr.end(sp)
	putLayers(ms, &sum)

	bp, err := c.Base.Params()
	if err != nil {
		return err
	}
	wl, err := workload.ByName(c.Base.Workload)
	if err != nil {
		return err
	}
	if err := putProbes(ms, bp, wl, o.seed, tr); err != nil {
		return err
	}
	return writeSpans(o, tr)
}

// profileHz is the CPU profiler's sampling rate during the traced run,
// five times the default so a few seconds of single-run work yield
// shares to about a percent. Setting it before StartCPUProfile makes the
// runtime print a warning that the default rate was not applied; only
// shares are reported, so the profile's recorded period does not matter.
const profileHz = 500

// profiled runs f under the CPU profiler and reports the per-layer CPU
// shares and the collector's work during it.
func profiled(ms metricSet, f func() error) error {
	var buf bytes.Buffer
	var g0, g1 runtime.MemStats
	runtime.ReadMemStats(&g0)
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	err := f()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&g1)
	if err != nil {
		return err
	}
	byLayer, total, samples, err := foldProfile(buf.Bytes())
	if err != nil {
		return err
	}
	ms.put("profile.samples", float64(samples))
	for _, l := range append(layers, "gc", "unattributed") {
		ms.put(l+".cpu_share", ratio(float64(byLayer[l]), float64(total)))
	}
	ms.put("gc.cycles", float64(g1.NumGC-g0.NumGC))
	ms.put("gc.pause_ms", float64(g1.PauseTotalNs-g0.PauseTotalNs)/1e6)
	return nil
}

// putLayers reports the layers' counters from directory runs. The cache
// controller counts hits on loads only, so the hit ratios take loads as
// their base: every load is an L1 access, and the loads that miss in the
// L1 are the L2 accesses.
func putLayers(ms metricSet, l *layerCounters) {
	ms.put("cache.l1_accesses", float64(l.loads))
	ms.put("cache.l1_hit_ratio", ratio(float64(l.l1Hits), float64(l.loads)))
	ms.put("cache.l2_accesses", float64(l.loads-l.l1Hits))
	ms.put("cache.l2_hit_ratio", ratio(float64(l.l2Hits), float64(l.loads-l.l1Hits)))
	ms.put("proc.mem_refs", float64(l.memRefs))
	ms.put("proc.backpressure_stalls", float64(l.backpressure))
	ms.put("protocol.misses", float64(l.misses))
	ms.put("protocol.requests", float64(l.requests))
	ms.put("protocol.retry_ratio", ratio(float64(l.retries), float64(l.requests)))
	ms.put("protocol.clb_stall_cycles", float64(l.clbStall))
	ms.put("sim.events", float64(l.events))
	ms.put("sim.ns_per_event", ratio(float64(l.strideNs), float64(l.events)))
	ms.put("network.msgs_sent", float64(l.sent))
	ms.put("network.hops_per_msg", ratio(float64(l.hops), float64(l.sent)))
	ms.put("network.dropped", float64(l.dropped))
	ms.put("core.clb_appends", float64(l.clbAppends))
	ms.put("core.clb_full_rejections", float64(l.clbFull))
	ms.put("core.clb_peak_kb", float64(l.clbPeakBytes)/1024)
	ms.put("core.validations", float64(l.validations))
	ms.put("core.recoveries", float64(len(l.recoveryCycles)))
	ms.put("core.recovery_cycles_p50", reportedPercentile(l.recoveryCycles, 0.5))
	ms.put("core.unrolled_entries", float64(l.unrolled))
}

func writeSpans(o options, tr *tracer) error {
	path := o.spans
	if path == "" {
		path = filepath.Join(o.root, ".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	}
	return tr.write(path, facts(o))
}
