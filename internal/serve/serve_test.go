package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
	s      *Server
	ts     *httptest.Server
	cl     *Client
	cancel context.CancelFunc
	done   chan struct{}
}

func startDaemon(t *testing.T, dir string, workers int) *daemon {
	t.Helper()
	s, err := New(Options{StoreDir: dir, Workers: workers, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); s.Run(ctx) }()
	ts := httptest.NewServer(s.Handler())
	cl := NewClient(ts.URL)
	cl.HTTPClient = ts.Client()
	d := &daemon{s: s, ts: ts, cl: cl, cancel: cancel, done: done}
	t.Cleanup(d.stop)
	return d
}

// stop kills the daemon (idempotent): cancel the scheduler, wait for
// it to checkpoint its abandonment, close the HTTP front end.
func (d *daemon) stop() {
	d.cancel()
	<-d.done
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
	perIndex := map[int]int{}
	ents, err := os.ReadDir(filepath.Join(dir, "jobs", st.ID))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "shard-") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, "jobs", st.ID, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var r Record
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatalf("%s: bad record %q: %v", e.Name(), line, err)
			}
			perIndex[r.Index]++
		}
	}
	if len(perIndex) != 8 {
		t.Fatalf("records cover %d/8 indices", len(perIndex))
	}
	for i, n := range perIndex {
		if n != 1 {
			t.Fatalf("run %d checkpointed %d times; resumption re-ran completed work", i, n)
		}
	}
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

// TestReportRejectsBadFormatWhileRunning: the report endpoint checks
// the format before the job's state, so an unknown format answers 400
// even while the job runs. A workers-only daemon with no worker keeps
// the job running.
func TestReportRejectsBadFormatWhileRunning(t *testing.T) {
	d := startDaemonWith(t, Options{StoreDir: t.TempDir(), Workers: 1, CheckpointEvery: 1, WorkersOnly: true})
	ctx := context.Background()
	st, err := d.cl.Submit(ctx, encodeCampaign(t, testCampaign()), 0)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for st.State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job never started running: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
		if st, err = d.cl.Status(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
	}
	var api *APIError
	if _, err := d.cl.Report(ctx, st.ID, "yaml"); !errors.As(err, &api) || api.Status != http.StatusBadRequest ||
		!strings.Contains(err.Error(), report.Check("yaml").Error()) {
		t.Fatalf("bad format on a running job: err = %v, want HTTP 400 with the shared message", err)
	}
	if _, err := d.cl.Report(ctx, st.ID, "text"); !errors.As(err, &api) || api.Status != http.StatusConflict {
		t.Fatalf("good format on a running job: err = %v, want HTTP 409", err)
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
