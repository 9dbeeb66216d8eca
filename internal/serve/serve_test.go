package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"safetynet/internal/campaign"
	"safetynet/internal/campaign/report"
	"safetynet/internal/fault"
	"safetynet/internal/runner"
	"safetynet/internal/scenario"
)

func ptr[T any](v T) *T { return &v }

// testCampaign is a small mixed matrix: 2 intervals × 2 variants ×
// 2 seeds = 8 runs, sized like the campaign package's own tests.
func testCampaign() *campaign.Campaign {
	return &campaign.Campaign{
		Name: "serve-test",
		Base: scenario.Scenario{Workload: "barnes", WarmupCycles: 30_000, MeasureCycles: 100_000},
		Axes: []campaign.Axis{{Name: "interval", Points: []campaign.AxisPoint{
			{Label: "50k", Overrides: &scenario.Overrides{CheckpointIntervalCycles: ptr(uint64(50_000))}},
			{Label: "100k", Overrides: &scenario.Overrides{CheckpointIntervalCycles: ptr(uint64(100_000))}},
		}}},
		Variants: []campaign.Variant{
			{Name: "fault-free"},
			{Name: "faulty", Faults: fault.Plan{fault.DropOnce{At: 60_000}}},
		},
		Seeds: &campaign.SeedRange{Start: 1, Count: 2},
	}
}

// daemon is one in-process snserved lifetime over a shared store dir.
type daemon struct {
	s  *Server
	ts *httptest.Server
	cl *Client
	// stopRun cancels the scheduler and waits for it to checkpoint its
	// abandonment; nil while the scheduler is not running.
	stopRun func()
}

// startDaemon opens a daemon lifetime on dir with the given pool width
// and starts its scheduler.
func startDaemon(t *testing.T, dir string, workers int) *daemon {
	t.Helper()
	d := newDaemon(t, Options{StoreDir: dir, Workers: workers, CheckpointEvery: 1})
	d.start()
	return d
}

// newDaemon opens a daemon and serves its HTTP API without starting the
// scheduler: accepted jobs stay queued until start.
func newDaemon(t *testing.T, opts Options) *daemon {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	cl := NewClient(ts.URL)
	cl.HTTPClient = ts.Client()
	d := &daemon{s: s, ts: ts, cl: cl}
	t.Cleanup(d.stop)
	return d
}

func (d *daemon) start() {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); d.s.Run(ctx) }()
	d.stopRun = func() { cancel(); <-done }
}

// stop kills the daemon (idempotent): stop the scheduler, then close
// the HTTP front end.
func (d *daemon) stop() {
	if d.stopRun != nil {
		d.stopRun()
		d.stopRun = nil
	}
	d.ts.Close()
}

// localReport is the uninterrupted single-worker reference the served
// bytes must match: what sncampaign prints.
func localReport(t *testing.T, c *campaign.Campaign, format string) []byte {
	t.Helper()
	rep, err := c.Execute(campaign.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := report.Encode(rep, format)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func encodeCampaign(t *testing.T, c *campaign.Campaign) []byte {
	t.Helper()
	doc, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// assertOneRecordPerIndex is the no-duplicated-work invariant: every
// expansion index checkpointed exactly once, across all shard logs and
// daemon lifetimes, on lines that all parse (a torn tail that was
// appended over would not).
func assertOneRecordPerIndex(t *testing.T, dir, id string, total int) {
	t.Helper()
	perIndex := map[int]int{}
	ents, err := os.ReadDir(filepath.Join(dir, "jobs", id))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "shard-") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, "jobs", id, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var r Record
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatalf("%s: unparseable record line %q: %v", e.Name(), line, err)
			}
			perIndex[r.Index]++
		}
	}
	if len(perIndex) != total {
		t.Fatalf("records cover %d/%d indices", len(perIndex), total)
	}
	for i, n := range perIndex {
		if n != 1 {
			t.Fatalf("run %d checkpointed %d times; work was duplicated", i, n)
		}
	}
}

// TestKillRestartResumeByteIdentical is the acceptance property:
// submit, kill the daemon mid-campaign, restart on the same store,
// resume from the shard checkpoints without re-running checkpointed
// runs, and serve a report byte-identical to an uninterrupted local
// single-worker execution — in every format.
func TestKillRestartResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	c := testCampaign()

	d1 := startDaemon(t, dir, 2)
	st, err := d1.cl.Submit(context.Background(), encodeCampaign(t, c), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.Runs != 8 {
		t.Fatalf("submit status = %+v", st)
	}

	// Kill the daemon once at least two runs are checkpointed but the
	// campaign cannot be finished.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		cur, err := d1.cl.Status(context.Background(), st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == StateDone {
			t.Fatal("campaign finished before the kill; enlarge it")
		}
		if cur.Done >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no progress before deadline: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}
	d1.stop()

	// The job must be left running on disk with a partial checkpoint
	// set: that is the resumable state.
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := store.LoadMeta(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if m.State != StateRunning {
		t.Fatalf("state after kill = %q, want %q", m.State, StateRunning)
	}
	recs, err := store.LoadRecords(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || len(recs) >= 8 {
		t.Fatalf("checkpointed %d/8 runs at kill; want a strict partial", len(recs))
	}
	checkpointed := len(recs)

	// Restart on the same store: the job is re-enqueued and resumed.
	d2 := startDaemon(t, dir, 3) // different worker count on purpose
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	fin, err := d2.cl.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone || fin.Done != 8 {
		t.Fatalf("final status = %+v", fin)
	}

	// No checkpointed run was re-executed: every expansion index has
	// exactly one record line across all shard logs.
	assertOneRecordPerIndex(t, dir, st.ID, 8)
	t.Logf("killed at %d/8 checkpointed runs, resumed the remaining %d", checkpointed, 8-checkpointed)

	for _, format := range []string{"", "text", "json", "csv"} {
		served, err := d2.cl.Report(context.Background(), st.ID, format)
		if err != nil {
			t.Fatal(err)
		}
		if want := localReport(t, c, format); !bytes.Equal(served, want) {
			t.Fatalf("%q report differs from the uninterrupted local run:\n--- served ---\n%s\n--- local ---\n%s",
				format, served, want)
		}
	}

	// A third lifetime serves the same bytes for an already-done job
	// (report reduction from the checkpoint logs alone).
	d2.stop()
	d3 := startDaemon(t, dir, 1)
	served, err := d3.cl.Report(context.Background(), st.ID, "text")
	if err != nil {
		t.Fatal(err)
	}
	if want := localReport(t, c, "text"); !bytes.Equal(served, want) {
		t.Fatal("report changed across a restart of a finished job")
	}
	// And its event stream replays fully, ending with the terminal frame.
	var replayed []Event
	end, err := d3.cl.Events(context.Background(), st.ID, 0, func(e Event) { replayed = append(replayed, e) })
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 8 || end.State != StateDone || end.Runs != 8 {
		t.Fatalf("post-restart replay: %d events, end=%+v", len(replayed), end)
	}
	for i, e := range replayed {
		if e.Seq != i || e.Index != i || e.Done != i+1 {
			t.Fatalf("replay event %d out of order: %+v (replay after restart is expansion-index order)", i, e)
		}
	}
}

// seededCampaign is testCampaign with its seeds staggered by i, so
// campaigns built from different i report different numbers.
func seededCampaign(i int) *campaign.Campaign {
	c := testCampaign()
	c.Name = fmt.Sprintf("seeded-%d", i)
	c.Seeds = &campaign.SeedRange{Start: uint64(1 + 10*i), Count: 2}
	return c
}

// TestWorkerFleetDrainsQueuedCampaigns: campaigns queued before the
// scheduler starts drain one after another through the daemon's worker
// pool, each report byte-identical to an uninterrupted local run.
func TestWorkerFleetDrainsQueuedCampaigns(t *testing.T) {
	dir := t.TempDir()
	d := newDaemon(t, Options{StoreDir: dir, Workers: 2, CheckpointEvery: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Queue every job before the scheduler runs: the daemon drains a
	// backlog, not a trickle.
	ids := make([]string, 3)
	for i := range ids {
		st, err := d.cl.Submit(ctx, encodeCampaign(t, seededCampaign(i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	d.start()

	for i, id := range ids {
		fin, err := d.cl.Wait(ctx, id, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("campaign %d: %v", i, err)
		}
		if fin.State != StateDone || fin.Done != 8 {
			t.Fatalf("campaign %d final status = %+v", i, fin)
		}
		served, err := d.cl.Report(ctx, id, "json")
		if err != nil {
			t.Fatal(err)
		}
		if want := localReport(t, seededCampaign(i), "json"); !bytes.Equal(served, want) {
			t.Fatalf("campaign %d report differs from the local run:\n--- served ---\n%s\n--- local ---\n%s",
				i, served, want)
		}
		assertOneRecordPerIndex(t, dir, id, 8)
	}
}

// TestTornTailWorkerResume: a shard log ending in the half-written line
// a kill -9 leaves behind is repaired on resume — the torn tail is
// trimmed, the intact records are not re-executed, and the resumed
// pool's appends land on fresh lines, so the final report is
// byte-identical and every index has exactly one parseable record.
func TestTornTailWorkerResume(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := testCampaign()
	m, err := store.Create(encodeCampaign(t, c), Meta{Name: c.Name, Runs: 8})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-seed shard 0 (of 2: indices 0, 2, 4, 6) with the real results
	// of its first two runs, then tear the log mid-append.
	runs, err := c.Expand()
	if err != nil {
		t.Fatal(err)
	}
	rcs := campaign.RunConfigs(runs, nil)
	log, err := store.OpenShardLog(m.ID, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		res, err := runner.RunCtx(context.Background(), rcs[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Append(Record{Index: i, Result: res}); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "jobs", m.ID, "shard-0000.log")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":4,"result":{"IPC":1.`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// A fresh daemon recovers the queued job and executes only what was
	// never checkpointed.
	d := startDaemon(t, dir, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	fin, err := d.cl.Wait(ctx, m.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone || fin.Done != 8 {
		t.Fatalf("final status = %+v", fin)
	}

	// One parseable record per index: the torn fragment is gone (an
	// untrimmed tail would have merged with the first resumed append and
	// failed to parse) and indices 0 and 2 were not re-executed.
	assertOneRecordPerIndex(t, dir, m.ID, 8)
	served, err := d.cl.Report(ctx, m.ID, "text")
	if err != nil {
		t.Fatal(err)
	}
	if want := localReport(t, c, "text"); !bytes.Equal(served, want) {
		t.Fatalf("report differs after torn-tail resume:\n--- served ---\n%s\n--- local ---\n%s", served, want)
	}
}

// TestSSEReplayOrderingConcurrentSubscribers: subscribers joining live
// at different replay offsets all observe the same seq-ordered stream
// suffix and the same terminal frame, with no gaps, duplicates, or
// reordering — while the campaign is executing.
func TestSSEReplayOrderingConcurrentSubscribers(t *testing.T) {
	d := startDaemon(t, t.TempDir(), 4)
	st, err := d.cl.Submit(context.Background(), encodeCampaign(t, testCampaign()), 0)
	if err != nil {
		t.Fatal(err)
	}

	froms := []int{0, 0, 3, 6, 100} // including past-the-end
	type sub struct {
		events []Event
		end    End
		err    error
	}
	subs := make([]sub, len(froms))
	var wg sync.WaitGroup
	for i, from := range froms {
		wg.Add(1)
		go func(i, from int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			subs[i].end, subs[i].err = d.cl.Events(ctx, st.ID, from,
				func(e Event) { subs[i].events = append(subs[i].events, e) })
		}(i, from)
	}
	wg.Wait()

	for i, from := range froms {
		if subs[i].err != nil {
			t.Fatalf("subscriber %d: %v", i, subs[i].err)
		}
		if subs[i].end.State != StateDone || subs[i].end.Runs != 8 {
			t.Fatalf("subscriber %d end = %+v", i, subs[i].end)
		}
		wantFirst := from
		if wantFirst > 8 {
			wantFirst = 8 // clamped: nothing to replay
		}
		if got := len(subs[i].events); got != 8-wantFirst {
			t.Fatalf("subscriber %d (from=%d) got %d events, want %d", i, from, got, 8-wantFirst)
		}
		for k, e := range subs[i].events {
			if e.Seq != wantFirst+k {
				t.Fatalf("subscriber %d: event %d has seq %d, want %d (gap or reorder)", i, k, e.Seq, wantFirst+k)
			}
			if e.Done != e.Seq+1 || e.Total != 8 {
				t.Fatalf("subscriber %d: inconsistent progress %+v", i, e)
			}
		}
	}
	// Full-replay subscribers agree event-for-event.
	for k := range subs[0].events {
		if subs[0].events[k] != subs[1].events[k] {
			t.Fatalf("subscribers diverge at seq %d: %+v vs %+v", k, subs[0].events[k], subs[1].events[k])
		}
	}
	// Every expansion index appears exactly once on the stream.
	seen := map[int]bool{}
	for _, e := range subs[0].events {
		if seen[e.Index] {
			t.Fatalf("index %d completed twice", e.Index)
		}
		seen[e.Index] = true
	}
}

// TestStoreTornTailTolerated: a shard log whose final line was cut by
// a crash loads cleanly — the intact prefix survives, the torn record
// is simply not checkpointed.
func TestStoreTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	doc := encodeCampaign(t, testCampaign())
	m, err := store.Create(doc, Meta{Name: "torn", Runs: 8})
	if err != nil {
		t.Fatal(err)
	}
	log, err := store.OpenShardLog(m.ID, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := log.Append(Record{Index: i, Result: runner.RunResult{IPC: float64(i) + 0.5}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: append half a record, no newline.
	path := filepath.Join(dir, "jobs", m.ID, "shard-0000.log")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":3,"result":{"IPC":`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, err := store.LoadRecords(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("loaded %d records, want the 3 intact ones", len(recs))
	}
	for i := 0; i < 3; i++ {
		if recs[i].IPC != float64(i)+0.5 {
			t.Fatalf("record %d round-tripped to IPC=%v", i, recs[i].IPC)
		}
	}
}

// TestShardLogTornTailTrimmedOnReopen exercises the repair directly: a
// reopened log with a torn tail truncates it, and subsequent appends
// parse cleanly alongside the intact prefix.
func TestShardLogTornTailTrimmedOnReopen(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := store.Create(encodeCampaign(t, testCampaign()), Meta{Name: "torn", Runs: 8})
	if err != nil {
		t.Fatal(err)
	}
	log, err := store.OpenShardLog(m.ID, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(Record{Index: 0, Result: runner.RunResult{IPC: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "jobs", m.ID, "shard-0000.log")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":1,"result":`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	log, err = store.OpenShardLog(m.ID, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(Record{Index: 1, Result: runner.RunResult{IPC: 1.5}}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := store.LoadRecords(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].IPC != 0.5 || recs[1].IPC != 1.5 {
		t.Fatalf("records after torn-tail repair = %+v, want indices 0 and 1 intact", recs)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("line %q unparseable: the torn tail was not trimmed", line)
		}
	}
}

// TestAPIValidation: the HTTP surface rejects what it must — malformed
// campaigns, unknown jobs, premature report fetches, bad formats — and
// healthz/metrics answer.
func TestAPIValidation(t *testing.T) {
	d := startDaemon(t, t.TempDir(), 1)
	ctx := context.Background()

	if _, err := d.cl.Submit(ctx, []byte(`{"cheese": 1}`), 0); err == nil ||
		!strings.Contains(err.Error(), "invalid campaign") {
		t.Fatalf("malformed submit err = %v", err)
	}
	if _, err := d.cl.Status(ctx, "c999999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown job err = %v", err)
	}

	st, err := d.cl.Submit(ctx, encodeCampaign(t, testCampaign()), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Racing the scheduler: before the job is done, the report endpoint
	// must refuse with 409 rather than serve a partial reduction.
	if _, err := d.cl.Report(ctx, st.ID, "text"); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("premature report err = %v", err)
	}

	wctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if _, err := d.cl.Wait(wctx, st.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := d.cl.Report(ctx, st.ID, "yaml"); err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("bad format err = %v", err)
	}

	if !d.cl.Healthy(ctx) {
		t.Fatal("healthz not answering")
	}
	resp, err := d.ts.Client().Get(d.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, want := range []string{"snserved_queue_depth", "snserved_jobs{state=\"done\"} 1", "snserved_runs_completed_total 8", "snserved_runs_per_second"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, buf.String())
		}
	}
}

// TestReportRejectsBadFormatBeforeDone: the report endpoint checks the
// format before the job's state, so an unknown format answers 400 even
// for an unfinished job. A daemon whose scheduler never starts keeps
// the job queued.
func TestReportRejectsBadFormatBeforeDone(t *testing.T) {
	d := newDaemon(t, Options{StoreDir: t.TempDir()})
	ctx := context.Background()
	st, err := d.cl.Submit(ctx, encodeCampaign(t, testCampaign()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued {
		t.Fatalf("submit status = %+v, want queued", st)
	}
	var api *APIError
	if _, err := d.cl.Report(ctx, st.ID, "yaml"); !errors.As(err, &api) || api.Status != http.StatusBadRequest ||
		!strings.Contains(err.Error(), report.Check("yaml").Error()) {
		t.Fatalf("bad format on a queued job: err = %v, want HTTP 400 with the shared message", err)
	}
	if _, err := d.cl.Report(ctx, st.ID, "text"); !errors.As(err, &api) || api.Status != http.StatusConflict {
		t.Fatalf("good format on a queued job: err = %v, want HTTP 409", err)
	}
}

// TestConcurrentSubmitsBoundedAndDistinct: submissions racing each
// other into a full queue get exactly MaxQueue acceptances, each under
// its own job ID with its own campaign on disk, and 503 for the rest.
func TestConcurrentSubmitsBoundedAndDistinct(t *testing.T) {
	const submits, maxQueue = 8, 3
	dir := t.TempDir()
	d := newDaemon(t, Options{StoreDir: dir, MaxQueue: maxQueue})
	docs := make([][]byte, submits)
	for i := range docs {
		docs[i] = encodeCampaign(t, seededCampaign(i))
	}
	ids := make([]string, submits)
	errs := make([]error, submits)
	var ready, wg sync.WaitGroup
	ready.Add(submits)
	release := make(chan struct{})
	for i := range docs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ready.Done()
			<-release
			st, err := d.cl.Submit(context.Background(), docs[i], 0)
			ids[i], errs[i] = st.ID, err
		}(i)
	}
	ready.Wait()
	close(release)
	wg.Wait()

	accepted, full := 0, 0
	seen := map[string]int{}
	for i, err := range errs {
		var api *APIError
		switch {
		case err == nil:
			accepted++
			if j, dup := seen[ids[i]]; dup {
				t.Fatalf("submissions %d and %d were both given job %s", j, i, ids[i])
			}
			seen[ids[i]] = i
		case errors.As(err, &api) && api.Status == http.StatusServiceUnavailable:
			full++
		default:
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	if accepted != maxQueue || full != submits-maxQueue {
		t.Fatalf("%d accepted and %d refused as full, want %d and %d", accepted, full, maxQueue, submits-maxQueue)
	}
	for id, i := range seen {
		got, err := os.ReadFile(filepath.Join(dir, "jobs", id, "campaign.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, docs[i]) {
			t.Fatalf("job %s holds another submission's campaign", id)
		}
	}
}

// TestScaledSubmitMatchesLocalShort: a scale_to submission reduces to
// the same bytes as a local -short-scaled execution — the property the
// CI serve-smoke job leans on.
func TestScaledSubmitMatchesLocalShort(t *testing.T) {
	const budget = 90_000
	d := startDaemon(t, t.TempDir(), 2)
	c := testCampaign()
	st, err := d.cl.Submit(context.Background(), encodeCampaign(t, c), budget)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := d.cl.Wait(ctx, st.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	served, err := d.cl.Report(context.Background(), st.ID, "text")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Execute(campaign.Options{Workers: 1, ScaleTo: budget})
	if err != nil {
		t.Fatal(err)
	}
	want, err := report.Encode(rep, "text")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Fatalf("scaled served report differs from local -short:\n--- served ---\n%s\n--- local ---\n%s", served, want)
	}
}

// TestRetryTransient: 5xx and transport failures retry under the
// policy's backoff; 4xx rejections fail immediately.
func TestRetryTransient(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	fail := 2
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		n := attempts
		mu.Unlock()
		if n <= fail {
			httpError(w, http.StatusServiceUnavailable, "still warming up")
			return
		}
		writeJSON(w, http.StatusOK, JobStatus{ID: "c000001", State: StateDone, Runs: 8, Done: 8})
	}))
	defer ts.Close()

	cl := NewClient(ts.URL)
	cl.Retry = &RetryPolicy{Attempts: 5, Base: time.Millisecond, Max: 4 * time.Millisecond}
	st, err := cl.Status(context.Background(), "c000001")
	if err != nil {
		t.Fatalf("status after transient 503s: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("status = %+v", st)
	}
	mu.Lock()
	if attempts != 3 {
		t.Fatalf("server saw %d attempts, want 3 (two 503s then success)", attempts)
	}
	// A 4xx is not transient: exactly one more request, immediate error.
	attempts, fail = 0, 0
	mu.Unlock()
	ts.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		mu.Unlock()
		httpError(w, http.StatusBadRequest, "no such thing")
	})
	var api *APIError
	if _, err := cl.Status(context.Background(), "c000001"); !errors.As(err, &api) || api.Status != http.StatusBadRequest {
		t.Fatalf("4xx err = %v, want APIError 400", err)
	}
	mu.Lock()
	if attempts != 1 {
		t.Fatalf("server saw %d attempts for a 400, want 1 (no retry)", attempts)
	}
	mu.Unlock()

	// Transient classification itself.
	if Transient(nil) || Transient(context.Canceled) || Transient(&APIError{Status: 404}) {
		t.Fatal("nil/canceled/4xx misclassified as transient")
	}
	if !Transient(&APIError{Status: 503}) || !Transient(fmt.Errorf("dial tcp: connection refused")) {
		t.Fatal("5xx/transport errors misclassified as permanent")
	}
}
