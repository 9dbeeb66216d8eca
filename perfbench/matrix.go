package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"safetynet/internal/campaign"
	"safetynet/internal/runner"
	"safetynet/internal/stats"
	refrunner "safetynet/perfbench/refsim/runner"
)

// matrixFile is the checked-in campaign the campaign-matrix workload runs,
// relative to the repository root.
const matrixFile = "examples/campaigns/availability-matrix.json"

// campaignSetup is what setup_s times for a campaign: load the file,
// seed it, expand the matrix, and assemble the runner descriptions.
func campaignSetup(root string, seed uint64, quick bool, tr *tracer, parent int) (*campaign.Campaign, []campaign.Run, error) {
	sp := tr.begin("Load", parent)
	c, err := campaign.Load(filepath.Join(root, matrixFile))
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	if c.Seeds != nil {
		s := *c.Seeds
		s.Start = seed
		c.Seeds = &s
	}
	if quick {
		c = c.Scaled(quickHorizon)
	}
	sp = tr.begin("Expand", parent)
	runs, err := c.Expand()
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("RunConfigs", parent)
	campaign.RunConfigs(runs, nil)
	tr.end(sp)
	return c, runs, nil
}

// totalCycles sums the simulated cycles of every run.
func totalCycles(runs []campaign.Run) float64 {
	var t float64
	for i := range runs {
		t += float64(runs[i].Scenario.TotalCycles())
	}
	return t
}

// reportHash fingerprints a campaign report's JSON encoding.
func reportHash(rep *campaign.Report) (string, error) {
	data, err := rep.JSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// runFailure returns why one campaign run failed ("" when it did not).
func runFailure(run campaign.Run, res runner.RunResult) string {
	if res.Crashed {
		return run.Desc + ": crashed: " + res.CrashCause
	}
	if err := run.Scenario.Expect.Check(res.Crashed, res.Recoveries); err != nil {
		return fmt.Sprintf("%s: %v", run.Desc, err)
	}
	return ""
}

// passResult is one timed campaign pass.
type passResult struct {
	wall           time.Duration
	alloc, mallocs uint64
	heapLive       uint64 // median live heap while runs completed
	hash           string
	failures       []string
}

// failure returns the i-th run failure of a pass ("" past the last);
// failures are counted, not matched to runs.
func (p passResult) failure(i int) string {
	if i < len(p.failures) {
		return p.failures[i]
	}
	return ""
}

// dispatchResult is one campaign pass on the benchmark's own workers, so
// every run's queue wait and duration are visible.
type dispatchResult struct {
	passResult
	runs           int
	workers        int
	expand, reduce time.Duration
	runMs, waitMs  []float64          // per run, in expansion order
	busy, refBusy  time.Duration      // summed run time of the program and of the reference
	protoNs        map[string]int64   // RunCtx time per protocol
	protoCycles    map[string]float64 // simulated cycles per protocol
}

// dispatchTraced is one campaign pass the way campaign.Execute makes it:
// expand the campaign, run every RunConfig through runner.RunCtx on its
// own workers (all runs are queued at the start), and reduce the results.
// It times each run, with spans around each call when tr is not nil. The
// allocation counts cover the whole pass; its live heap is the median of
// the live heap the collector last measured, sampled as each run
// completes: about one backend per worker. With the reference's run
// descriptions, each worker pairs every run with the same run on the
// reference, timed apart; the pass's allocation figures then include the
// reference's.
func dispatchTraced(c *campaign.Campaign, workers int, tr *tracer, parent int, refs []refrunner.RunConfig) (dispatchResult, error) {
	out := dispatchResult{workers: workers, protoNs: map[string]int64{}, protoCycles: map[string]float64{}}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	sp := tr.begin("Expand", parent)
	runs, err := c.Expand()
	out.expand = tr.end(sp)
	if err != nil {
		return out, err
	}
	sp = tr.begin("RunConfigs", parent)
	rcs := campaign.RunConfigs(runs, nil)
	tr.end(sp)

	n := len(rcs)
	out.runs = n
	res := make([]runner.RunResult, n)
	errs := make([]error, n)
	durs, refDurs := make([]time.Duration, n), make([]time.Duration, n)
	out.waitMs = make([]float64, n)
	dsp := tr.begin("dispatch", parent)
	start := time.Now()
	idx, done := make(chan int, n), make(chan struct{})
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out.waitMs[i] = float64(time.Since(start).Nanoseconds()) / 1e6
				// The reference runs after even runs and before odd ones.
				var refErr error
				if refs != nil && i%2 == 1 {
					refDurs[i], refErr = refRun(refs[i])
				}
				sp := tr.begin("RunCtx", dsp)
				t := time.Now()
				res[i], errs[i] = runner.RunCtx(context.Background(), rcs[i])
				durs[i] = time.Since(t)
				tr.end(sp)
				if refs != nil && i%2 == 0 {
					refDurs[i], refErr = refRun(refs[i])
				}
				if errs[i] == nil {
					errs[i] = refErr
				}
				done <- struct{}{}
			}
		}()
	}
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	lives := make([]float64, n)
	for k := range lives {
		<-done
		metrics.Read(live)
		lives[k] = float64(live[0].Value.Uint64())
	}
	wg.Wait()
	tr.end(dsp)
	out.wall = time.Since(start)
	out.heapLive = uint64(stats.Percentile(lives, 50))

	for i := range rcs {
		if errs[i] != nil {
			return out, errs[i]
		}
		if f := runFailure(runs[i], res[i]); f != "" {
			out.failures = append(out.failures, f)
		}
		out.runMs = append(out.runMs, float64(durs[i].Nanoseconds())/1e6)
		out.busy += durs[i]
		out.refBusy += refDurs[i]
		proto := rcs[i].Params.ProtocolName()
		out.protoNs[proto] += durs[i].Nanoseconds()
		out.protoCycles[proto] += float64(rcs[i].Warmup + rcs[i].Measure)
	}
	sp = tr.begin("Reduce", parent)
	rep := campaign.Reduce(c, runs, res)
	out.reduce = tr.end(sp)
	runtime.ReadMemStats(&m1)
	out.alloc, out.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	out.hash, err = reportHash(rep)
	return out, err
}

// putDispatch reports the runner, campaign, and per-protocol metrics of
// a traced dispatch.
func putDispatch(ms metricSet, d dispatchResult) {
	ms.put("runner.runs", float64(d.runs))
	ms.put("runner.workers", float64(d.workers))
	ms.put("runner.run_ms_p50", reportedPercentile(d.runMs, 0.5))
	ms.put("runner.run_ms_p90", reportedPercentile(d.runMs, 0.9))
	ms.put("runner.queue_wait_ms_p50", reportedPercentile(d.waitMs, 0.5))
	ms.put("runner.worker_busy_frac", ratio(d.busy.Seconds(), float64(d.workers)*d.wall.Seconds()))
	ms.put("campaign.expand_ms", float64(d.expand.Nanoseconds())/1e6)
	ms.put("campaign.reduce_ms", float64(d.reduce.Nanoseconds())/1e6)
	ms.put("campaign.failed_runs", float64(len(d.failures)))
	for _, p := range []struct{ layer, proto string }{{"machine", "directory"}, {"snoop", "snoop"}} {
		mc := d.protoCycles[p.proto] / 1e6
		ms.put(p.layer+".mcycles", mc)
		ms.put(p.layer+".ms_per_mcycle", ratio(float64(d.protoNs[p.proto])/1e6, mc))
	}
}
