package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"safetynet/internal/campaign"
	"safetynet/internal/campaign/report"
	"safetynet/internal/runner"
)

// Job is one submitted campaign's runtime state: the persisted meta and
// the event hub. The store is the source of truth; Job is the in-memory
// view one daemon lifetime keeps.
type Job struct {
	mu   sync.Mutex
	meta Meta
	hub  *hub
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

// hasHistory reports whether the hub carries the job's checkpointed
// history, so its count is the job's done count.
func (j *Job) hasHistory() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.replayed
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
// of the daemon: expand deterministically, skip every run already in
// the checkpoint logs, and run the rest on the worker pool
// campaign.Execute uses. Each completion is appended to the job's
// record log before it is announced on the event stream, and the full
// expansion-order result set reduces into the report. A store failure
// cancels the pool and fails the job. A canceled context returns
// ctx.Err() with the job left running on disk — the state Open
// re-enqueues — so a killed daemon resumes instead of restarting.
func (s *Server) execute(ctx context.Context, j *Job) error {
	m := j.Meta()
	c, err := s.store.LoadCampaign(m.ID)
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
	var pending []int
	var todo []runner.RunConfig
	for i := range rcs {
		if _, ok := recs[i]; !ok {
			pending = append(pending, i)
			todo = append(todo, rcs[i])
		}
	}
	log, err := s.store.OpenRecordLog(m.ID, s.opts.CheckpointEvery)
	if err != nil {
		return s.failJob(j, err)
	}
	var storeErr error
	poolCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// RunAll calls the callback on this goroutine, so it owns log, recs
	// and storeErr without locking.
	_, runErr := runner.RunAll(poolCtx, todo, s.opts.Workers, func(k int, res runner.RunResult) {
		if storeErr != nil {
			return
		}
		i := pending[k]
		if storeErr = log.Append(Record{Index: i, Result: res}); storeErr != nil {
			cancel()
			return
		}
		recs[i] = res
		s.noteRunDone()
		j.hub.publish(completionEvent(runs[i], res, len(runs)))
	})
	// Flush the checkpoint log before anything else: a meta that says
	// StateDone must never outrun the records it summarizes.
	closeErr := log.Close()
	switch {
	case storeErr != nil:
		return s.failJob(j, storeErr)
	case runErr != nil:
		// Killed mid-campaign: the job stays running on disk so the
		// next daemon lifetime resumes from the checkpoints.
		return runErr
	case closeErr != nil:
		return s.failJob(j, closeErr)
	}

	res := make([]runner.RunResult, len(runs))
	for i := range res {
		res[i] = recs[i]
	}
	rep := campaign.Reduce(cc, runs, res)
	m.State = StateDone
	m.Crashes = rep.Crashes
	m.ExpectFailures = len(rep.ExpectFailures)
	if err := s.store.SaveMeta(m); err != nil {
		return s.failJob(j, err)
	}
	j.setMeta(m)
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
	j.setMeta(m)
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
