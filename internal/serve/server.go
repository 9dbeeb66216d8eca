package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"safetynet/internal/campaign"
	"safetynet/internal/campaign/report"
)

// Options sizes the daemon.
type Options struct {
	// StoreDir is the persistent job-store directory.
	StoreDir string
	// Workers is the shard count per executing job (0 = one per CPU,
	// the shared runner.Workers sanitization).
	Workers int
	// CheckpointEvery is the number of completed runs between
	// checkpoint syncs of each shard log; <1 means every completion.
	CheckpointEvery int
	// MaxQueue bounds jobs waiting to execute; submissions past it get
	// 503. <1 defaults to 64.
	MaxQueue int
	// LeaseTTL is a shard lease's time-to-live: a worker (remote or the
	// in-process executor) that neither heartbeats nor commits within
	// it loses the shard, which is re-leased at the next fencing token.
	// <=0 defaults to 15s.
	LeaseTTL time.Duration
	// WorkersOnly disables in-process execution: shards are handed out
	// exclusively to pulling snworker processes. Off by default — with
	// zero live workers the daemon executes locally, so snserved alone
	// still works.
	WorkersOnly bool
	// Logf, when non-nil, receives one line per daemon event
	// (submissions, resumptions, completions).
	Logf func(format string, args ...any)
}

// defaultLeaseTTL is the lease time-to-live when Options leaves it
// unset: long enough that heartbeats (sent every TTL/3) survive rough
// scheduling, short enough that a kill -9'd worker's shard re-leases
// quickly.
const defaultLeaseTTL = 15 * time.Second

// rateWindow is the trailing window the runs-per-second gauge averages
// over.
const rateWindow = 10 * time.Second

// maxSubmitBytes bounds a submitted campaign document.
const maxSubmitBytes = 16 << 20

// Server is the campaign-serving daemon: a persistent job store, a
// single-job-at-a-time scheduler whose runs fan out across shard
// workers, and the HTTP/JSON API in front of them.
type Server struct {
	opts  Options
	store *Store

	mu   sync.Mutex
	jobs map[string]*Job
	// queue holds queued job IDs in submission order; wake signals the
	// scheduler without bounding the queue to a channel's capacity.
	queue []string
	wake  chan struct{}
	// executing is the ID of the currently running job ("" when idle).
	executing string
	// exec is the executing job's shard session — the lease table and
	// commit path the worker endpoints operate on (nil when idle).
	exec *shardExec

	// workerSeen timestamps each remote worker's last contact; a worker
	// is "live" within one lease TTL of it. leaseMet accumulates lease
	// events across jobs for /metrics.
	workerMu   sync.Mutex
	workerSeen map[string]time.Time
	leaseMet   leaseMetrics

	// runsDone counts completions this lifetime; doneTimes is the ring
	// of recent completion instants behind the runs-per-second gauge.
	rateMu    sync.Mutex
	runsDone  int64
	doneTimes []time.Time

	schedDone chan struct{}
}

// New opens the store and recovers it: jobs found queued or running —
// the leftovers of a killed daemon — are re-enqueued in submission
// order, so resumption needs no operator action.
func New(opts Options) (*Server, error) {
	if opts.MaxQueue < 1 {
		opts.MaxQueue = 64
	}
	store, err := OpenStore(opts.StoreDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:       opts,
		store:      store,
		jobs:       map[string]*Job{},
		wake:       make(chan struct{}, 1),
		schedDone:  make(chan struct{}),
		workerSeen: map[string]time.Time{},
	}
	metas, err := store.List()
	if err != nil {
		return nil, err
	}
	for _, m := range metas {
		j := newJob(m)
		s.jobs[m.ID] = j
		if m.State == StateQueued || m.State == StateRunning {
			s.queue = append(s.queue, m.ID)
			s.logf("job %s: recovered in state %s, re-enqueued", m.ID, m.State)
		}
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// leaseTTL returns the sanitized shard-lease time-to-live.
func (s *Server) leaseTTL() time.Duration {
	if s.opts.LeaseTTL > 0 {
		return s.opts.LeaseTTL
	}
	return defaultLeaseTTL
}

// sweepInterval is how often the executor reaps missed-heartbeat
// leases: a quarter TTL bounds re-lease latency well under the TTL
// itself without busy-polling.
func (s *Server) sweepInterval() time.Duration {
	iv := s.leaseTTL() / 4
	if iv < 10*time.Millisecond {
		iv = 10 * time.Millisecond
	}
	return iv
}

func (s *Server) setExec(e *shardExec) {
	s.mu.Lock()
	s.exec = e
	s.mu.Unlock()
}

// clearExec detaches the session when its job stops executing; the
// pointer comparison keeps a stale defer from clobbering a successor.
func (s *Server) clearExec(e *shardExec) {
	s.mu.Lock()
	if s.exec == e {
		s.exec = nil
	}
	s.mu.Unlock()
}

func (s *Server) currentExec() *shardExec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exec
}

// noteWorker marks one remote worker as recently alive; every
// /workers/{id}/* request counts as contact.
func (s *Server) noteWorker(id string) {
	s.workerMu.Lock()
	s.workerSeen[id] = time.Now() //snvet:wallclock worker liveness stamp
	s.workerMu.Unlock()
}

// liveWorkers counts remote workers heard from within one lease TTL.
// The in-process executor defers to them: local shard slots lease only
// while this is zero, so a live worker fleet owns the campaign and a
// vanished one is picked up after a TTL.
func (s *Server) liveWorkers(now time.Time) int {
	window := s.leaseTTL()
	s.workerMu.Lock()
	defer s.workerMu.Unlock()
	n := 0
	for id, t := range s.workerSeen {
		if now.Sub(t) <= window {
			n++
		} else {
			delete(s.workerSeen, id)
		}
	}
	return n
}

// noteRunDone feeds the throughput gauge.
func (s *Server) noteRunDone() {
	now := time.Now() //snvet:wallclock throughput gauge window
	s.rateMu.Lock()
	s.runsDone++
	s.doneTimes = append(s.doneTimes, now)
	// Drop instants past the window (keep the slice from growing
	// without bound on long campaigns).
	cut := 0
	for cut < len(s.doneTimes) && now.Sub(s.doneTimes[cut]) > rateWindow {
		cut++
	}
	s.doneTimes = append(s.doneTimes[:0], s.doneTimes[cut:]...)
	s.rateMu.Unlock()
}

// runsPerSecond averages completions over the trailing window.
func (s *Server) runsPerSecond() float64 {
	now := time.Now() //snvet:wallclock throughput gauge window
	s.rateMu.Lock()
	defer s.rateMu.Unlock()
	n := 0
	for _, t := range s.doneTimes {
		if now.Sub(t) <= rateWindow {
			n++
		}
	}
	return float64(n) / rateWindow.Seconds()
}

// schedule is the daemon's job loop: one job executes at a time (its
// runs fan out across the shard workers), in submission order. It
// returns when ctx ends; an in-flight job is left running on disk for
// the next lifetime to resume.
func (s *Server) schedule(ctx context.Context) {
	defer close(s.schedDone)
	for {
		s.mu.Lock()
		var j *Job
		if len(s.queue) > 0 {
			id := s.queue[0]
			s.queue = s.queue[1:]
			j = s.jobs[id]
			s.executing = id
		}
		s.mu.Unlock()
		if j == nil {
			select {
			case <-ctx.Done():
				return
			case <-s.wake:
				continue
			}
		}
		m := j.Meta()
		s.logf("job %s: executing (%d runs)", m.ID, m.Runs)
		err := s.execute(ctx, j)
		s.mu.Lock()
		s.executing = ""
		s.mu.Unlock()
		switch {
		case err == nil:
			s.logf("job %s: done", m.ID)
		case ctx.Err() != nil:
			s.logf("job %s: interrupted (%d/%d runs checkpointed); will resume on restart",
				m.ID, j.hub.done(), m.Runs)
			return
		default:
			s.logf("job %s: failed: %v", m.ID, err)
		}
	}
}

// Run starts the scheduler and blocks until ctx ends and the in-flight
// job (if any) has checkpointed its abandonment.
func (s *Server) Run(ctx context.Context) {
	go s.schedule(ctx)
	<-s.schedDone
}

// Serve runs the scheduler and the HTTP API on the listener until ctx
// ends, then shuts both down gracefully (streams and in-flight
// checkpoints drain first).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler: s.Handler(),
		// Tie request contexts to the daemon context so SSE streams end
		// at shutdown instead of wedging Shutdown.
		BaseContext: func(net.Listener) context.Context { return ctx },
		// Slow-loris hardening: bound how long a client may dribble
		// headers and request bodies, and reap idle keep-alive
		// connections. No WriteTimeout — /campaigns/{id}/events streams
		// for a campaign's lifetime, and read deadlines don't touch the
		// response side, so the SSE path is unaffected (its requests are
		// bodyless GETs that read within the header timeout).
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go s.schedule(ctx)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(shutCtx)
		<-s.schedDone
		return err
	}
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.logf("listening on %s (store %s)", ln.Addr(), s.opts.StoreDir)
	return s.Serve(ctx, ln)
}

// ---------------------------------------------------------------------
// HTTP API
// ---------------------------------------------------------------------

// ShardStatus is one shard's progress within a running job.
type ShardStatus struct {
	Shard int `json:"shard"`
	Done  int `json:"done"`
	Total int `json:"total"`
}

// JobStatus is the status document of GET /campaigns/{id} (and the
// rows of GET /campaigns).
type JobStatus struct {
	ID             string        `json:"id"`
	Name           string        `json:"name,omitempty"`
	State          string        `json:"state"`
	Runs           int           `json:"runs"`
	Done           int           `json:"done"`
	Crashes        int           `json:"crashes,omitempty"`
	ExpectFailures int           `json:"expect_failures,omitempty"`
	Error          string        `json:"error,omitempty"`
	Shards         []ShardStatus `json:"shards,omitempty"`
}

func (s *Server) status(j *Job) JobStatus {
	m := j.Meta()
	st := JobStatus{
		ID: m.ID, Name: m.Name, State: m.State, Runs: m.Runs,
		Crashes: m.Crashes, ExpectFailures: m.ExpectFailures, Error: m.Error,
	}
	switch m.State {
	case StateDone:
		st.Done = m.Runs
	default:
		done, total := j.ShardProgress()
		for k := range done {
			st.Done += done[k]
			st.Shards = append(st.Shards, ShardStatus{Shard: k, Done: done[k], Total: total[k]})
		}
		if st.Shards == nil {
			// Not yet picked up by the scheduler this lifetime; the
			// checkpoint logs still know how far it got.
			if recs, err := s.store.LoadRecords(m.ID); err == nil {
				st.Done = len(recs)
			}
		}
	}
	return st
}

// Handler returns the daemon's HTTP API:
//
//	POST /campaigns                      submit canonical campaign JSON (?scale_to=N)
//	GET  /campaigns                      list jobs
//	GET  /campaigns/{id}                 job status
//	GET  /campaigns/{id}/report?format=  report: text (default), json, csv
//	GET  /campaigns/{id}/events          SSE completion stream (?from=N replays)
//	POST /workers/{id}/lease             claim a shard lease (204 = no work)
//	POST /workers/{id}/records           stream run records (idempotent by index)
//	POST /workers/{id}/heartbeat         extend a lease before its TTL lapses
//	GET  /healthz                        liveness
//	GET  /metrics                        queue depth, throughput, shards, leases
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/report", s.handleReport)
	mux.HandleFunc("GET /campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /workers/{id}/lease", s.handleWorkerLease)
	mux.HandleFunc("POST /workers/{id}/records", s.handleWorkerRecords)
	mux.HandleFunc("POST /workers/{id}/heartbeat", s.handleWorkerHeartbeat)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, "reading body: %v", err)
		return
	}
	c, err := campaign.Parse(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid campaign: %v", err)
		return
	}
	var scaleTo uint64
	if v := r.URL.Query().Get("scale_to"); v != "" {
		scaleTo, err = strconv.ParseUint(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "invalid scale_to: %v", err)
			return
		}
	}
	s.mu.Lock()
	depth := len(s.queue)
	s.mu.Unlock()
	if depth >= s.opts.MaxQueue {
		httpError(w, http.StatusServiceUnavailable, "queue full (%d jobs waiting)", depth)
		return
	}
	// Persist the canonical re-encoding, not the submitted bytes: what
	// the store holds is exactly what Parse round-trips.
	canon, err := c.Encode()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding campaign: %v", err)
		return
	}
	m, err := s.store.Create(canon, Meta{
		Name:          c.Name,
		Runs:          c.Runs(),
		ScaleTo:       scaleTo,
		SubmittedUnix: time.Now().Unix(), //snvet:wallclock job submission timestamp
	})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "persisting job: %v", err)
		return
	}
	j := newJob(m)
	s.mu.Lock()
	s.jobs[m.ID] = j
	s.queue = append(s.queue, m.ID)
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	s.logf("job %s: submitted (%q, %d runs)", m.ID, m.Name, m.Runs)
	writeJSON(w, http.StatusAccepted, s.status(j))
}

func (s *Server) job(r *http.Request) (*Job, string) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	return j, id
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	out := struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: []JobStatus{}}
	for _, id := range ids {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		out.Jobs = append(out.Jobs, s.status(j))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, id := s.job(r)
	if j == nil {
		httpError(w, http.StatusNotFound, "no campaign %q", id)
		return
	}
	writeJSON(w, http.StatusOK, s.status(j))
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	ctype, err := report.ContentType(format)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if format == "" {
		format = "text" // one cached encoding per format
	}
	j, id := s.job(r)
	if j == nil {
		httpError(w, http.StatusNotFound, "no campaign %q", id)
		return
	}
	m := j.Meta()
	switch m.State {
	case StateDone:
	case StateFailed:
		httpError(w, http.StatusConflict, "campaign %s failed: %s", id, m.Error)
		return
	default:
		st := s.status(j)
		httpError(w, http.StatusConflict, "campaign %s is %s (%d/%d runs)", id, m.State, st.Done, st.Runs)
		return
	}
	b, err := s.report(j, format)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "building report: %v", err)
		return
	}
	w.Header().Set("Content-Type", ctype)
	w.Write(b)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, id := s.job(r)
	if j == nil {
		httpError(w, http.StatusNotFound, "no campaign %q", id)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "invalid from index %q", v)
			return
		}
		from = n
	} else if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			from = n + 1
		}
	}
	s.ensureHistory(j)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	cursor := from
	for {
		evs, end, err := j.hub.wait(r.Context(), cursor)
		if err != nil {
			return // subscriber gone or daemon stopping
		}
		for _, e := range evs {
			data, _ := json.Marshal(e)
			fmt.Fprintf(w, "id: %d\nevent: run\ndata: %s\n\n", e.Seq, data)
		}
		cursor += len(evs)
		flusher.Flush()
		if end != nil {
			data, _ := json.Marshal(end)
			fmt.Fprintf(w, "event: end\ndata: %s\n\n", data)
			flusher.Flush()
			return
		}
	}
}

// ---------------------------------------------------------------------
// Worker-pull protocol
// ---------------------------------------------------------------------

// leaseError maps a lease-validation failure onto the protocol's
// status codes: 410 Gone for an expired lease (re-lease to continue),
// 409 Conflict for a fenced token or completed shard, 400 for a record
// the shard does not own.
func leaseError(w http.ResponseWriter, err error) {
	var bad errBadIndex
	switch {
	case errors.Is(err, errLeaseExpired):
		httpError(w, http.StatusGone, "%v", err)
	case errors.Is(err, errStaleToken), errors.Is(err, errShardDone), errors.Is(err, errShardAvail):
		httpError(w, http.StatusConflict, "%v", err)
	case errors.As(err, &bad):
		httpError(w, http.StatusBadRequest, "%v", err)
	default:
		httpError(w, http.StatusConflict, "%v", err)
	}
}

// handleWorkerLease hands the calling worker a shard lease of the
// executing job: 200 with a LeaseGrant, or 204 when there is nothing
// to lease (no executing job, or every pending shard already held).
func (s *Server) handleWorkerLease(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id == "" {
		httpError(w, http.StatusBadRequest, "empty worker id")
		return
	}
	s.noteWorker(id)
	e := s.currentExec()
	if e == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	g, _, ok := e.acquire(id, time.Now(), context.Background()) //snvet:wallclock lease acquisition stamp
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	s.logf("job %s: shard %d leased to worker %s (token %d, %d pending)",
		g.Job, g.Shard, id, g.Token, len(g.Pending))
	writeJSON(w, http.StatusOK, g)
}

// decodeWorkerBody reads one worker-protocol request body.
func decodeWorkerBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, "reading body: %v", err)
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		httpError(w, http.StatusBadRequest, "invalid body: %v", err)
		return false
	}
	return true
}

// workerExec resolves the executing session a worker request names,
// rejecting jobs that are not (or no longer) executing.
func (s *Server) workerExec(w http.ResponseWriter, job string) *shardExec {
	e := s.currentExec()
	if e == nil || e.jobID != job {
		httpError(w, http.StatusConflict, "job %q is not executing", job)
		return nil
	}
	return e
}

// handleWorkerRecords commits a pushed record batch through the fenced
// checkpoint path. The response's accepted count excludes replayed
// records, so a retried push that was already applied succeeds with 0.
func (s *Server) handleWorkerRecords(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.noteWorker(id)
	var p RecordsPush
	if !decodeWorkerBody(w, r, &p) {
		return
	}
	e := s.workerExec(w, p.Job)
	if e == nil {
		return
	}
	accepted, err := e.commit(p.Shard, p.Token, p.Records, p.Done)
	if err != nil {
		s.logf("job %s: shard %d: rejected %d record(s) from worker %s: %v",
			p.Job, p.Shard, len(p.Records), id, err)
		leaseError(w, err)
		return
	}
	if p.Done {
		s.logf("job %s: shard %d completed by worker %s", p.Job, p.Shard, id)
	}
	writeJSON(w, http.StatusOK, map[string]int{"accepted": accepted})
}

// handleWorkerHeartbeat extends a live lease; expired or re-leased
// shards are refused so the worker knows to stop and re-lease.
func (s *Server) handleWorkerHeartbeat(w http.ResponseWriter, r *http.Request) {
	s.noteWorker(r.PathValue("id"))
	var h Heartbeat
	if !decodeWorkerBody(w, r, &h) {
		return
	}
	e := s.workerExec(w, h.Job)
	if e == nil {
		return
	}
	if err := e.leases.validate(h.Shard, h.Token, time.Now()); err != nil { //snvet:wallclock lease TTL check
		leaseError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	depth := len(s.queue)
	executing := s.executing
	byState := map[string]int{StateQueued: 0, StateRunning: 0, StateDone: 0, StateFailed: 0}
	var running *Job
	for _, j := range s.jobs {
		byState[j.Meta().State]++
	}
	if executing != "" {
		running = s.jobs[executing]
	}
	s.mu.Unlock()
	s.rateMu.Lock()
	runsDone := s.runsDone
	s.rateMu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# HELP snserved_queue_depth Jobs waiting to execute.\n")
	fmt.Fprintf(w, "# TYPE snserved_queue_depth gauge\n")
	fmt.Fprintf(w, "snserved_queue_depth %d\n", depth)
	fmt.Fprintf(w, "# HELP snserved_jobs Jobs in the store by state.\n")
	fmt.Fprintf(w, "# TYPE snserved_jobs gauge\n")
	for _, st := range []string{StateQueued, StateRunning, StateDone, StateFailed} {
		fmt.Fprintf(w, "snserved_jobs{state=%q} %d\n", st, byState[st])
	}
	fmt.Fprintf(w, "# HELP snserved_runs_completed_total Runs completed this daemon lifetime.\n")
	fmt.Fprintf(w, "# TYPE snserved_runs_completed_total counter\n")
	fmt.Fprintf(w, "snserved_runs_completed_total %d\n", runsDone)
	fmt.Fprintf(w, "# HELP snserved_runs_per_second Completions averaged over the trailing %s.\n", rateWindow)
	fmt.Fprintf(w, "# TYPE snserved_runs_per_second gauge\n")
	fmt.Fprintf(w, "snserved_runs_per_second %g\n", s.runsPerSecond())
	now := time.Now() //snvet:wallclock worker liveness window for /metrics
	held := 0
	if e := s.currentExec(); e != nil {
		held = e.leases.held(now)
	}
	fmt.Fprintf(w, "# HELP snserved_workers_live Remote workers heard from within one lease TTL.\n")
	fmt.Fprintf(w, "# TYPE snserved_workers_live gauge\n")
	fmt.Fprintf(w, "snserved_workers_live %d\n", s.liveWorkers(now))
	fmt.Fprintf(w, "# HELP snserved_leases_held Shard leases currently live (unexpired).\n")
	fmt.Fprintf(w, "# TYPE snserved_leases_held gauge\n")
	fmt.Fprintf(w, "snserved_leases_held %d\n", held)
	fmt.Fprintf(w, "# HELP snserved_leases_granted_total Shard leases handed out this daemon lifetime.\n")
	fmt.Fprintf(w, "# TYPE snserved_leases_granted_total counter\n")
	fmt.Fprintf(w, "snserved_leases_granted_total %d\n", s.leaseMet.granted.Load())
	fmt.Fprintf(w, "# HELP snserved_leases_expired_total Leases lost to missed heartbeats.\n")
	fmt.Fprintf(w, "# TYPE snserved_leases_expired_total counter\n")
	fmt.Fprintf(w, "snserved_leases_expired_total %d\n", s.leaseMet.expired.Load())
	fmt.Fprintf(w, "# HELP snserved_leases_fenced_total Stale or expired writes and heartbeats rejected by fencing token.\n")
	fmt.Fprintf(w, "# TYPE snserved_leases_fenced_total counter\n")
	fmt.Fprintf(w, "snserved_leases_fenced_total %d\n", s.leaseMet.fenced.Load())
	fmt.Fprintf(w, "# HELP snserved_releases_total Shards re-leased after a previous holder lost or finished short of completing them.\n")
	fmt.Fprintf(w, "# TYPE snserved_releases_total counter\n")
	fmt.Fprintf(w, "snserved_releases_total %d\n", s.leaseMet.releases.Load())
	if running != nil {
		id := running.Meta().ID
		done, total := running.ShardProgress()
		fmt.Fprintf(w, "# HELP snserved_shard_done Completed runs per shard of the executing job.\n")
		fmt.Fprintf(w, "# TYPE snserved_shard_done gauge\n")
		for k := range done {
			fmt.Fprintf(w, "snserved_shard_done{job=%q,shard=\"%d\"} %d\n", id, k, done[k])
		}
		fmt.Fprintf(w, "# HELP snserved_shard_total Assigned runs per shard of the executing job.\n")
		fmt.Fprintf(w, "# TYPE snserved_shard_total gauge\n")
		for k := range total {
			fmt.Fprintf(w, "snserved_shard_total{job=%q,shard=\"%d\"} %d\n", id, k, total[k])
		}
	}
}
