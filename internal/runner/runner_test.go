package runner

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"safetynet/internal/backend"
	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/workload"
)

// TestWorkersSanitization: the one shared sanitization path — zero and
// negative worker counts mean one worker per available CPU, positive
// counts are literal.
func TestWorkersSanitization(t *testing.T) {
	gomaxprocs := runtime.GOMAXPROCS(0)
	cases := map[int]int{
		0:   gomaxprocs,
		-1:  gomaxprocs,
		-99: gomaxprocs,
		1:   1,
		7:   7,
		128: 128,
	}
	for in, want := range cases {
		if got := Workers(in); got != want {
			t.Errorf("Workers(%d) = %d, want %d", in, got, want)
		}
	}
}

func testRuns(n int) []RunConfig {
	rcs := make([]RunConfig, n)
	for i := range rcs {
		p := config.Default()
		p.Seed = uint64(1 + i)
		rcs[i] = RunConfig{Params: p, Workload: "barnes", Warmup: 40_000, Measure: 120_000}
	}
	return rcs
}

// runAll runs every configuration to completion on the pool.
func runAll(t *testing.T, rcs []RunConfig, workers int) []RunResult {
	t.Helper()
	res, err := RunAll(context.Background(), rcs, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunAllDeterministicAcrossWorkerCounts: results arrive in input
// order and are bit-identical at any parallelism, including the
// sanitized "0 means all CPUs" path.
func TestRunAllDeterministicAcrossWorkerCounts(t *testing.T) {
	rcs := testRuns(4)
	serial := runAll(t, rcs, 1)
	for _, workers := range []int{0, 2, 8} {
		if got := runAll(t, rcs, workers); !reflect.DeepEqual(serial, got) {
			t.Fatalf("RunAll(workers=%d) diverged from serial", workers)
		}
	}
}

// TestRunAllCompletion: the completion callback fires exactly once per
// run with that run's finished result, and the returned slice is still
// input-ordered.
func TestRunAllCompletion(t *testing.T) {
	rcs := testRuns(5)
	seen := map[int]RunResult{}
	res, err := RunAll(context.Background(), rcs, 3, func(i int, r RunResult) {
		if _, dup := seen[i]; dup {
			t.Errorf("run %d completed twice", i)
		}
		seen[i] = r
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(rcs) {
		t.Fatalf("callback fired %d times, want %d", len(seen), len(rcs))
	}
	for i, r := range res {
		if !reflect.DeepEqual(seen[i], r) {
			t.Errorf("run %d: streamed result differs from returned slice", i)
		}
		if r.Crashed || r.Instrs == 0 {
			t.Errorf("run %d made no progress: %+v", i, r)
		}
	}
}

// TestRunObserverHooks: an observer attached to the run config sees the
// armed fault fire and the recovery complete.
func TestRunObserverHooks(t *testing.T) {
	var faults, recoveries int
	rc := RunConfig{
		Params: config.Default(), Workload: "barnes",
		Warmup: 50_000, Measure: 500_000,
		Fault: fault.Plan{fault.DropOnce{At: 200_000}},
		Observer: &backend.Observer{
			FaultFired:        func(uint64, string) { faults++ },
			RecoveryCompleted: func(uint64, uint32, uint64) { recoveries++ },
		},
	}
	res := Run(rc)
	if res.Crashed {
		t.Fatalf("run crashed: %s", res.CrashCause)
	}
	if faults == 0 {
		t.Fatal("observer saw no fault firing")
	}
	if recoveries == 0 {
		t.Fatal("observer saw no recovery")
	}
}

// TestRunCtxCanceledMidRun: a context canceled while a run is in
// flight abandons it at the next stride check instead of simulating to
// the horizon, and a pre-canceled context never starts the engine.
func TestRunCtxCanceledMidRun(t *testing.T) {
	rc := testRuns(1)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, rc); err != context.Canceled {
		t.Fatalf("pre-canceled RunCtx err = %v, want context.Canceled", err)
	}
	// A background context reproduces Run exactly (the strided stepping
	// must be invisible in the results).
	want := Run(rc)
	got, err := RunCtx(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("RunCtx(Background) diverged from Run")
	}
}

// TestRunAllCancellation: canceling the pool context stops dispatch,
// abandons in-flight runs, fires no callback for them, and surfaces
// context.Canceled, on one worker and on several; a context canceled
// before the call runs nothing at all.
func TestRunAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunAll(ctx, testRuns(4), 2, func(i int, r RunResult) {
		t.Errorf("pre-canceled pool completed run %d", i)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled: err = %v, want context.Canceled", err)
	}
	for i, r := range res {
		if !reflect.DeepEqual(r, RunResult{}) {
			t.Fatalf("pre-canceled: run %d holds a result: %+v", i, r)
		}
	}

	for _, workers := range []int{1, 3} {
		rcs := testRuns(6)
		ctx, cancel := context.WithCancel(context.Background())
		fired := 0
		_, err := RunAll(ctx, rcs, workers, func(i int, r RunResult) {
			fired++
			if fired == 1 {
				cancel() // cancel as soon as the first run completes
			}
			if r.Crashed {
				t.Errorf("workers=%d: completed run %d reported a crash: %s", workers, i, r.CrashCause)
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if fired == 0 || fired == len(rcs) {
			t.Fatalf("workers=%d: %d callbacks fired; cancellation should stop the pool partway", workers, fired)
		}
	}
}

// reuseRuns lists eight configurations twice each: both protocols, two
// L2 geometries with one frame count (256 KB in 4 and in 8 ways), and a
// fault-free and a drop-every plan. A run of either geometry may draw
// frames that a run of the other released.
func reuseRuns() []RunConfig {
	var rcs []RunConfig
	for _, proto := range []string{config.ProtocolDirectory, config.ProtocolSnoop} {
		for _, ways := range []int{4, 8} {
			for _, plan := range []fault.Plan{nil, {fault.DropEvery{Start: 60_000, Period: 60_000}}} {
				p := config.Default()
				p.Protocol, p.L2Bytes, p.L2Ways = proto, 256<<10, ways
				p.CheckpointIntervalCycles, p.LatencyPerturbation = 50_000, 4
				p.Seed = uint64(1 + len(rcs))
				rcs = append(rcs, RunConfig{
					Params: p.Normalize(), Workload: "oltp",
					Warmup: 20_000, Measure: 100_000, Fault: plan,
				})
			}
		}
	}
	return append(rcs, rcs...)
}

// TestFrameReuseAcrossWorkers: runs built on frames that earlier runs
// released, on one worker or on four at once, give the same results,
// and a repeated configuration repeats its result. The identity manifest
// (testdata/identity.sh) checks reused frames against results computed
// from new memory.
func TestFrameReuseAcrossWorkers(t *testing.T) {
	rcs := reuseRuns()
	serial := runAll(t, rcs, 1)
	half := len(rcs) / 2
	for i, r := range serial[:half] {
		if r.Crashed || r.Instrs == 0 {
			t.Fatalf("run %d made no progress: %+v", i, r)
		}
		if rcs[i].Fault != nil && r.Recoveries == 0 {
			t.Fatalf("run %d: the drop-every plan caused no recovery", i)
		}
		if !reflect.DeepEqual(r, serial[half+i]) {
			t.Fatalf("run %d and its repeat differ:\n%+v\n%+v", i, r, serial[half+i])
		}
	}
	for pass := 0; pass < 2; pass++ {
		if got := runAll(t, rcs, 4); !reflect.DeepEqual(serial, got) {
			t.Fatalf("pass %d: RunAll at 4 workers diverged from 1 worker", pass)
		}
	}
}

// BenchmarkNewBackend builds and starts one backend of the availability
// matrix (the Table 2 machine with perturbed latencies), then releases
// it as RunCtx does, so every iteration after the first builds on the
// frames the one before released.
func BenchmarkNewBackend(b *testing.B) {
	for _, proto := range []string{config.ProtocolDirectory, config.ProtocolSnoop} {
		b.Run(proto, func(b *testing.B) {
			p := config.Default()
			p.Protocol, p.LatencyPerturbation = proto, 4
			prof := workload.OLTP()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				be, err := NewBackend(p, prof)
				if err != nil {
					b.Fatal(err)
				}
				be.Start()
				be.Release()
			}
		})
	}
}
