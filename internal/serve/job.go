package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"safetynet/internal/campaign"
	"safetynet/internal/campaign/report"
	"safetynet/internal/runner"
)

// Job is one submitted campaign's runtime state: the persisted meta,
// the event hub, and the per-shard progress counters the metrics
// endpoint exports. The store is the source of truth; Job is the
// in-memory view one daemon lifetime keeps.
type Job struct {
	mu   sync.Mutex
	meta Meta
	hub  *hub
	// shardDone/shardTotal are per-shard progress while running (nil
	// otherwise).
	shardDone  []int
	shardTotal []int
	// reports caches encoded reports by format once the job is done
	// (they are immutable from then on).
	reports map[string][]byte
	// replayed marks that the hub already carries the checkpointed
	// history (set by the executor's resume replay, or by a lazy replay
	// for jobs found already finished on open).
	replayed bool
}

func newJob(m Meta) *Job {
	return &Job{meta: m, hub: newHub(), reports: map[string][]byte{}}
}

// Meta returns a copy of the job's current state.
func (j *Job) Meta() Meta {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.meta
}

func (j *Job) setMeta(m Meta) {
	j.mu.Lock()
	j.meta = m
	j.mu.Unlock()
}

// ShardProgress returns copies of the per-shard done/total counters
// (nil when the job is not running).
func (j *Job) ShardProgress() (done, total []int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]int(nil), j.shardDone...), append([]int(nil), j.shardTotal...)
}

// effective returns the campaign the job actually executes: the
// submitted one, shrunk by the persisted ScaleTo when set — the same
// campaign.Scaled path sncampaign -short applies locally, so the served
// report stays byte-identical to the local one.
func (j *Job) effective(c *campaign.Campaign) *campaign.Campaign {
	if m := j.Meta(); m.ScaleTo > 0 {
		return c.Scaled(m.ScaleTo)
	}
	return c
}

// endFrame assembles the terminal stream frame from a finished meta.
func endFrame(m Meta) End {
	return End{State: m.State, Runs: m.Runs, Crashes: m.Crashes,
		ExpectFailures: m.ExpectFailures, Error: m.Error}
}

// replayRecords publishes already-checkpointed completions onto the
// hub in expansion-index order — the deterministic replay order after
// a restart — and returns the results keyed by index.
func (j *Job) replayRecords(runs []campaign.Run, recs map[int]runner.RunResult) {
	j.mu.Lock()
	if j.replayed {
		j.mu.Unlock()
		return
	}
	j.replayed = true
	j.mu.Unlock()
	idxs := make([]int, 0, len(recs))
	for i := range recs {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	total := len(runs)
	for _, i := range idxs {
		j.hub.publish(completionEvent(runs[i], recs[i], total))
	}
}

func completionEvent(run campaign.Run, res runner.RunResult, total int) Event {
	return Event{
		Index:      run.Index,
		Desc:       run.Desc,
		Total:      total,
		Crashed:    res.Crashed,
		CrashCause: res.CrashCause,
		IPC:        res.IPC,
		Recoveries: res.Recoveries,
	}
}

// execute runs one job to completion (or resumption-point), the heart
// of the daemon: expand deterministically, skip checkpointed runs, and
// hand the rest out shard-by-shard through the fenced lease table —
// to remote workers pulling over HTTP, to the in-process executor when
// none are live, or to both across the job's lifetime as workers come
// and go. Every committed record lands in a per-shard checkpoint log
// before it is announced, and the full expansion-order result set
// reduces into the report. A canceled context returns ctx.Err() with
// the job left running on disk — the state Open re-enqueues — so a
// killed daemon resumes instead of restarting.
func (s *Server) execute(ctx context.Context, j *Job) error {
	m := j.Meta()
	c, err := s.store.LoadCampaign(m.ID)
	if err != nil {
		return s.failJob(j, err)
	}
	doc, err := c.Encode()
	if err != nil {
		return s.failJob(j, err)
	}
	cc := j.effective(c)
	runs, err := cc.Expand()
	if err != nil {
		return s.failJob(j, err)
	}
	recs, err := s.store.LoadRecords(m.ID)
	if err != nil {
		return s.failJob(j, err)
	}
	j.replayRecords(runs, recs)

	m.State = StateRunning
	if err := s.store.SaveMeta(m); err != nil {
		return s.failJob(j, err)
	}
	j.setMeta(m)

	rcs := campaign.RunConfigs(runs, nil)
	shards := campaign.Shards(s.opts.Workers, len(rcs))

	// Static round-robin shard assignment (campaign.ShardOf): a pure
	// function of the expansion, so any daemon lifetime (even with a
	// different shard count) and any remote worker agree on what
	// remains — records are keyed by index, and LoadRecords reads every
	// shard log regardless of layout.
	shardDone := make([]int, shards)
	shardTotal := make([]int, shards)
	for i := range rcs {
		k := campaign.ShardOf(i, shards)
		shardTotal[k]++
		if _, ok := recs[i]; ok {
			shardDone[k]++
		}
	}
	j.mu.Lock()
	j.shardDone, j.shardTotal = shardDone, shardTotal
	j.mu.Unlock()

	e := newShardExec(s, j, doc, m.ScaleTo, runs, rcs, recs, shards)
	s.setExec(e)
	defer s.clearExec(e)

	execCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	select {
	case <-e.done:
		// Everything was already checkpointed; no leases needed.
	default:
		// Reap missed-heartbeat leases on a timer so a dead worker's
		// shard frees even if no request ever mentions it again.
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(s.sweepInterval())
			defer t.Stop()
			for {
				select {
				case <-execCtx.Done():
					return
				case <-e.done:
					return
				case <-t.C:
					e.leases.sweep(time.Now()) //snvet:wallclock expired-lease sweep
				}
			}
		}()
		if !s.opts.WorkersOnly {
			e.runLocal(execCtx, &wg)
		}
	}

	finish := func() error {
		cancel()
		wg.Wait()
		return e.close()
	}
	select {
	case <-ctx.Done():
		// Killed mid-campaign: close the logs and leave the job running
		// on disk so the next daemon lifetime resumes from checkpoints.
		finish()
		return ctx.Err()
	case <-e.failc:
		finish()
		return s.failJob(j, e.err())
	case <-e.done:
	}
	// Flush the checkpoint logs before declaring the job done: a meta
	// that says StateDone must never outrun the records it summarizes.
	if err := finish(); err != nil {
		return s.failJob(j, err)
	}

	res, err := e.results()
	if err != nil {
		return s.failJob(j, err)
	}
	rep := campaign.Reduce(cc, runs, res)
	m.State = StateDone
	m.Crashes = rep.Crashes
	m.ExpectFailures = len(rep.ExpectFailures)
	if err := s.store.SaveMeta(m); err != nil {
		return s.failJob(j, err)
	}
	j.mu.Lock()
	j.meta = m
	j.shardDone, j.shardTotal = nil, nil
	j.mu.Unlock()
	j.hub.finish(endFrame(m))
	return nil
}

// failJob marks the job failed on disk and on its stream, returning
// the original error.
func (s *Server) failJob(j *Job, err error) error {
	m := j.Meta()
	m.State = StateFailed
	m.Error = err.Error()
	if serr := s.store.SaveMeta(m); serr != nil {
		s.logf("job %s: persisting failure: %v", m.ID, serr)
	}
	j.mu.Lock()
	j.meta = m
	j.shardDone, j.shardTotal = nil, nil
	j.mu.Unlock()
	j.hub.finish(endFrame(m))
	return err
}

// report builds (and caches) one finished job's encoded report. The
// reduction re-reads the checkpoint logs, so it works for jobs that
// finished in a previous daemon lifetime, and the bytes match the
// local sncampaign pipeline exactly: campaign.Reduce over the
// deterministic expansion order, then report.Encode in the requested
// format: the bytes sncampaign prints.
func (s *Server) report(j *Job, format string) ([]byte, error) {
	j.mu.Lock()
	if b, ok := j.reports[format]; ok {
		j.mu.Unlock()
		return b, nil
	}
	j.mu.Unlock()

	m := j.Meta()
	c, err := s.store.LoadCampaign(m.ID)
	if err != nil {
		return nil, err
	}
	cc := j.effective(c)
	runs, err := cc.Expand()
	if err != nil {
		return nil, err
	}
	recs, err := s.store.LoadRecords(m.ID)
	if err != nil {
		return nil, err
	}
	res := make([]runner.RunResult, len(runs))
	for i := range res {
		r, ok := recs[i]
		if !ok {
			return nil, fmt.Errorf("job %s: run %d has no checkpoint record", m.ID, i)
		}
		res[i] = r
	}
	b, err := report.Encode(campaign.Reduce(cc, runs, res), format)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	j.reports[format] = b
	j.mu.Unlock()
	return b, nil
}

// ensureHistory lazily rebuilds the event stream of a job that was
// already finished when this daemon opened the store, so /events
// subscribers still get the full replay plus the terminal frame.
func (s *Server) ensureHistory(j *Job) {
	m := j.Meta()
	if m.State != StateDone && m.State != StateFailed {
		return
	}
	j.mu.Lock()
	replayed := j.replayed
	j.mu.Unlock()
	if !replayed {
		c, err := s.store.LoadCampaign(m.ID)
		if err == nil {
			if cc := j.effective(c); cc != nil {
				if runs, err := cc.Expand(); err == nil {
					if recs, err := s.store.LoadRecords(m.ID); err == nil {
						j.replayRecords(runs, recs)
					}
				}
			}
		}
	}
	j.hub.finish(endFrame(m))
}
