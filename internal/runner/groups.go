package runner

import (
	"context"
	"fmt"
	"sync"
)

// RunGroupsCtx executes runs on the package's one worker pool (every
// RunAll variant dispatches through it), with per-group early
// cancellation: group[i] names the group (an exploration arm,
// typically) run i belongs to, and when the onDone callback returns
// true the whole group is canceled — its queued runs are skipped
// without executing and its in-flight runs are abandoned at the next
// stride check (see RunCtx). onDone fires once per completed run, in
// completion order, serialized; skipped and abandoned runs hold the
// zero RunResult and fire no callback.
//
// The returned results are in input order; the second slice reports,
// per group, whether it was canceled. Canceling the outer context
// stops everything and returns the context error.
//
// Determinism caveat: which of a canceled group's runs completed
// before the cancellation took effect depends on scheduling. Callers
// that report deterministic results must therefore not let a canceled
// group's completed samples reach the report (internal/explore
// discards every sample of a canceled arm) — the cancellation is a
// wall-clock saving, never a data source.
func RunGroupsCtx(ctx context.Context, rcs []RunConfig, group []int, workers int,
	onDone func(i int, r RunResult) (cancelGroup bool)) ([]RunResult, []bool, error) {
	if len(group) != len(rcs) {
		return nil, nil, fmt.Errorf("runner: %d runs but %d group tags", len(rcs), len(group))
	}
	nGroups := 0
	for i, g := range group {
		if g < 0 {
			return nil, nil, fmt.Errorf("runner: run %d has negative group %d", i, g)
		}
		if g+1 > nGroups {
			nGroups = g + 1
		}
	}
	res := make([]RunResult, len(rcs))
	canceled := make([]bool, nGroups)
	gctx := make([]context.Context, nGroups)
	gcancel := make([]context.CancelFunc, nGroups)
	for g := range gctx {
		gctx[g], gcancel[g] = context.WithCancel(ctx)
	}
	defer func() {
		for _, c := range gcancel {
			c()
		}
	}()

	var mu sync.Mutex
	// finish records run i's result and applies the callback's pruning
	// decision; it returns without firing the callback for runs of a
	// group canceled while the run was in flight (their results are
	// scheduling-dependent and must not leak out).
	finish := func(i int, r RunResult) {
		mu.Lock()
		defer mu.Unlock()
		g := group[i]
		if canceled[g] {
			return
		}
		res[i] = r
		if onDone != nil && onDone(i, r) {
			canceled[g] = true
			gcancel[g]()
		}
	}
	skip := func(i int) bool {
		mu.Lock()
		defer mu.Unlock()
		return canceled[group[i]]
	}

	workers = Workers(workers)
	if workers > len(rcs) {
		workers = len(rcs)
	}
	if workers <= 1 {
		for i := range rcs {
			if err := ctx.Err(); err != nil {
				return res, canceled, err
			}
			if skip(i) {
				continue
			}
			r, err := RunCtx(gctx[group[i]], rcs[i])
			if err != nil {
				if ctx.Err() != nil {
					return res, canceled, ctx.Err()
				}
				continue // group canceled mid-run; drop the partial run
			}
			finish(i, r)
		}
		return res, canceled, ctx.Err()
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if skip(i) {
					continue
				}
				r, err := RunCtx(gctx[group[i]], rcs[i])
				if err != nil {
					continue // outer cancel or group pruned mid-run
				}
				finish(i, r)
			}
		}()
	}
	for i := range rcs {
		select {
		case idx <- i:
		case <-ctx.Done():
			close(idx)
			wg.Wait()
			return res, canceled, ctx.Err()
		}
	}
	close(idx)
	wg.Wait()
	return res, canceled, ctx.Err()
}
