package safetynet

import (
	"context"
	"net"

	"safetynet/internal/serve"
)

// ServeOptions sizes the campaign-serving daemon: store directory,
// worker-pool width (also the shard-log count per job), checkpoint
// cadence, and queue bound (see cmd/snserved for the CLI front end).
type ServeOptions = serve.Options

// ServeJobStatus is one served campaign's status document: state
// (queued/running/done/failed), progress, per-shard counters, and —
// once finished — crash and expectation-failure counts.
type ServeJobStatus = serve.JobStatus

// ServeEvent is one per-run completion on a served campaign's SSE
// stream; Seq is the stream position replayable via ?from=N.
type ServeEvent = serve.Event

// ServeEnd is the stream's terminal frame.
type ServeEnd = serve.End

// Served job states.
const (
	ServeStateQueued  = serve.StateQueued
	ServeStateRunning = serve.StateRunning
	ServeStateDone    = serve.StateDone
	ServeStateFailed  = serve.StateFailed
)

// ServeClient talks to a running snserved daemon: Submit, Status,
// Report (bytes identical to a local sncampaign run), Events (SSE with
// replay), Wait and Healthy. Setting Retry makes transient failures
// back off and retry.
type ServeClient = serve.Client

// NewServeClient builds a client for the daemon at baseURL (e.g.
// "http://localhost:8321").
func NewServeClient(baseURL string) *ServeClient { return serve.NewClient(baseURL) }

// ServeRetryPolicy caps transient-failure retries (connection errors,
// HTTP 5xx) with exponential backoff + jitter; the zero value is the
// default policy. Install it on a ServeClient's Retry field, or use it
// with serve-side tooling directly.
type ServeRetryPolicy = serve.RetryPolicy

// Serve runs the campaign-serving daemon on addr until ctx ends: an
// HTTP/JSON API (submit campaigns, stream per-run completions over
// SSE, fetch reports) over a persistent job store whose per-shard
// completion checkpoints make a killed-and-restarted daemon resume
// mid-campaign — the service-level analogue of the paper's global
// checkpoint/recovery. Reports served over HTTP are byte-identical to
// local sncampaign output for the same campaign.
func Serve(ctx context.Context, addr string, opts ServeOptions) error {
	s, err := serve.New(opts)
	if err != nil {
		return err
	}
	return s.ListenAndServe(ctx, addr)
}

// ServeListener is Serve on an already-bound listener (tests and
// embedders that need to know the port before serving).
func ServeListener(ctx context.Context, ln net.Listener, opts ServeOptions) error {
	s, err := serve.New(opts)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}
