package serve

import (
	"context"
	"encoding/json"
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
	// Workers is the worker-pool width (0 = one per CPU, the shared
	// runner.Workers sanitization).
	Workers int
	// CheckpointEvery is the number of completed runs between
	// checkpoint syncs of a job's record log; <1 means every completion.
	CheckpointEvery int
	// MaxQueue bounds jobs waiting to execute; submissions past it get
	// 503. <1 defaults to 64.
	MaxQueue int
	// Logf, when non-nil, receives one line per daemon event
	// (submissions, resumptions, completions).
	Logf func(format string, args ...any)
}

// rateWindow is the trailing window the runs-per-second gauge averages
// over.
const rateWindow = 10 * time.Second

// maxSubmitBytes bounds a submitted campaign document.
const maxSubmitBytes = 16 << 20

// Server is the campaign-serving daemon: a persistent job store, a
// single-job-at-a-time scheduler whose runs fan out across the
// in-process worker pool, and the HTTP/JSON API in front of them.
type Server struct {
	opts  Options
	store *Store

	// submitMu serializes submissions from the queue-depth check
	// through the store write to the enqueue, so MaxQueue bounds the
	// queue and no two submissions share a job ID.
	submitMu sync.Mutex

	mu   sync.Mutex
	jobs map[string]*Job
	// queue holds queued job IDs in submission order; wake signals the
	// scheduler without bounding the queue to a channel's capacity.
	queue []string
	wake  chan struct{}

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
		opts:      opts,
		store:     store,
		jobs:      map[string]*Job{},
		wake:      make(chan struct{}, 1),
		schedDone: make(chan struct{}),
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
// runs fan out across the worker pool), in submission order. It
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

// JobStatus is the status document of GET /campaigns/{id} (and the
// rows of GET /campaigns).
type JobStatus struct {
	ID             string `json:"id"`
	Name           string `json:"name,omitempty"`
	State          string `json:"state"`
	Runs           int    `json:"runs"`
	Done           int    `json:"done"`
	Crashes        int    `json:"crashes,omitempty"`
	ExpectFailures int    `json:"expect_failures,omitempty"`
	Error          string `json:"error,omitempty"`
}

func (s *Server) status(j *Job) JobStatus {
	m := j.Meta()
	st := JobStatus{
		ID: m.ID, Name: m.Name, State: m.State, Runs: m.Runs,
		Crashes: m.Crashes, ExpectFailures: m.ExpectFailures, Error: m.Error,
	}
	switch {
	case m.State == StateDone:
		st.Done = m.Runs
	case j.hasHistory():
		st.Done = j.hub.done()
	default:
		// Not yet picked up by the scheduler this lifetime; the
		// checkpoint logs still know how far it got.
		if recs, err := s.store.LoadRecords(m.ID); err == nil {
			st.Done = len(recs)
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
//	GET  /healthz                        liveness
//	GET  /metrics                        queue depth, jobs by state, throughput
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/report", s.handleReport)
	mux.HandleFunc("GET /campaigns/{id}/events", s.handleEvents)
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
	// Persist the canonical re-encoding, not the submitted bytes: what
	// the store holds is exactly what Parse round-trips.
	canon, err := c.Encode()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding campaign: %v", err)
		return
	}
	s.submitMu.Lock()
	s.mu.Lock()
	depth := len(s.queue)
	s.mu.Unlock()
	if depth >= s.opts.MaxQueue {
		s.submitMu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "queue full (%d jobs waiting)", depth)
		return
	}
	m, err := s.store.Create(canon, Meta{
		Name:          c.Name,
		Runs:          c.Runs(),
		ScaleTo:       scaleTo,
		SubmittedUnix: time.Now().Unix(), //snvet:wallclock job submission timestamp
	})
	if err != nil {
		s.submitMu.Unlock()
		httpError(w, http.StatusInternalServerError, "persisting job: %v", err)
		return
	}
	j := newJob(m)
	s.mu.Lock()
	s.jobs[m.ID] = j
	s.queue = append(s.queue, m.ID)
	s.mu.Unlock()
	s.submitMu.Unlock()
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

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	depth := len(s.queue)
	byState := map[string]int{StateQueued: 0, StateRunning: 0, StateDone: 0, StateFailed: 0}
	for _, j := range s.jobs {
		byState[j.Meta().State]++
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
}
