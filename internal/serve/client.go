package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client talks to a snserved daemon. The zero HTTPClient means
// http.DefaultClient.
type Client struct {
	// BaseURL is the daemon address, e.g. "http://localhost:8321".
	BaseURL string
	// HTTPClient overrides the transport (tests inject
	// httptest.Server.Client()).
	HTTPClient *http.Client
	// Retry, when non-nil, retries transient failures (connection
	// errors, HTTP 5xx) of Submit, Status, Report and Wait with capped
	// exponential backoff + jitter. Events is never retried: replaying a
	// partially consumed stream would re-deliver events to the callback.
	Retry *RetryPolicy
}

// NewClient builds a client for the daemon at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// retryDo applies the client's retry policy (none by default) to op.
func (c *Client) retryDo(ctx context.Context, op func() error) error {
	if c.Retry == nil {
		return op()
	}
	return RetryTransient(ctx, *c.Retry, op)
}

// APIError is a non-2xx daemon response: the HTTP status plus the
// decoded {"error": ...} message when the body carried one. Callers
// branch on Status — Transient treats 5xx as retryable and every 4xx
// as final.
type APIError struct {
	Status int
	Msg    string
}

func (e *APIError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("snserved: %s (HTTP %d)", e.Msg, e.Status)
	}
	return fmt.Sprintf("snserved: HTTP %d", e.Status)
}

// apiError decodes the daemon's {"error": ...} body into an *APIError.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64*1024))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return &APIError{Status: resp.StatusCode, Msg: e.Error}
	}
	return &APIError{Status: resp.StatusCode, Msg: string(bytes.TrimSpace(body))}
}

// ---------------------------------------------------------------------
// Transient-failure retry (what sncampaign -submit rides daemon restarts on)
// ---------------------------------------------------------------------

// RetryPolicy caps transient-failure retries with exponential backoff
// and jitter. The zero value sanitizes to 6 attempts, 100ms base,
// 5s cap.
type RetryPolicy struct {
	// Attempts is the total number of tries (not re-tries); <1 means 6.
	Attempts int
	// Base is the first backoff delay; <=0 means 100ms. Each subsequent
	// delay doubles, capped at Max, then jitters uniformly over
	// [delay/2, delay) so concurrent retriers decorrelate.
	Base time.Duration
	// Max caps the backoff delay; <=0 means 5s.
	Max time.Duration
}

func (p RetryPolicy) sanitized() RetryPolicy {
	if p.Attempts < 1 {
		p.Attempts = 6
	}
	if p.Base <= 0 {
		p.Base = 100 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 5 * time.Second
	}
	return p
}

// Transient reports whether err is worth retrying: connection-level
// failures (dial refused, reset, timeouts) and 5xx responses are;
// 4xx rejections and context cancellation are not.
func Transient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var api *APIError
	if errors.As(err, &api) {
		return api.Status >= 500
	}
	// Anything else a request path produces is transport-level: dial
	// failures, resets, EOFs mid-response.
	return true
}

// RetryTransient runs op, retrying transient failures under the policy
// with capped exponential backoff + jitter until op succeeds, fails
// non-transiently, attempts run out, or ctx ends.
func RetryTransient(ctx context.Context, p RetryPolicy, op func() error) error {
	p = p.sanitized()
	delay := p.Base
	var err error
	for attempt := 0; attempt < p.Attempts; attempt++ {
		if attempt > 0 {
			jittered := delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1)) //snvet:wallclock retry backoff jitter, not simulation state
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(jittered):
			}
			if delay *= 2; delay > p.Max {
				delay = p.Max
			}
		}
		if err = op(); err == nil || !Transient(err) {
			return err
		}
	}
	return err
}

// doJSON issues one request expecting wantStatus and decodes the JSON
// response body into out.
func (c *Client) doJSON(ctx context.Context, method, u string, body []byte, wantStatus int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		return apiError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("snserved: decoding response: %w", err)
	}
	return nil
}

// Submit posts one campaign document (canonical JSON) and returns the
// accepted job's status. scaleTo > 0 asks the daemon to shrink every
// run to that horizon (the sncampaign -short path). Under a retry
// policy, transient submit failures back off and retry; note that a
// retry after a lost success response resubmits (jobs are independent,
// so the duplicate is wasteful, not wrong).
func (c *Client) Submit(ctx context.Context, campaignJSON []byte, scaleTo uint64) (JobStatus, error) {
	u := c.BaseURL + "/campaigns"
	if scaleTo > 0 {
		u += "?scale_to=" + strconv.FormatUint(scaleTo, 10)
	}
	var st JobStatus
	err := c.retryDo(ctx, func() error {
		st = JobStatus{}
		return c.doJSON(ctx, http.MethodPost, u, campaignJSON, http.StatusAccepted, &st)
	})
	return st, err
}

// Status fetches one job's status.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.retryDo(ctx, func() error {
		st = JobStatus{}
		return c.doJSON(ctx, http.MethodGet, c.BaseURL+"/campaigns/"+url.PathEscape(id), nil, http.StatusOK, &st)
	})
	return st, err
}

// Report fetches a finished job's report in the given format ("text",
// "json" or "csv"; "" means text). The bytes are exactly what a local
// sncampaign run prints to stdout.
func (c *Client) Report(ctx context.Context, id, format string) ([]byte, error) {
	u := c.BaseURL + "/campaigns/" + url.PathEscape(id) + "/report"
	if format != "" {
		u += "?format=" + url.QueryEscape(format)
	}
	var out []byte
	err := c.retryDo(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return err
		}
		resp, err := c.http().Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return apiError(resp)
		}
		out, err = io.ReadAll(resp.Body)
		return err
	})
	return out, err
}

// Events subscribes to a job's SSE stream from the given sequence
// index, invoking fn for every run completion in stream order until
// the terminal frame arrives (returned) or ctx ends. A nil fn just
// waits for the end of the stream, which makes Events double as
// "block until the job finishes".
func (c *Client) Events(ctx context.Context, id string, from int, fn func(Event)) (End, error) {
	u := fmt.Sprintf("%s/campaigns/%s/events?from=%d", c.BaseURL, url.PathEscape(id), from)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return End{}, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.http().Do(req)
	if err != nil {
		return End{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return End{}, apiError(resp)
	}
	var (
		event string
		data  bytes.Buffer
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	dispatch := func() (End, bool, error) {
		defer func() { event = ""; data.Reset() }()
		switch event {
		case "run":
			var e Event
			if err := json.Unmarshal(data.Bytes(), &e); err != nil {
				return End{}, false, fmt.Errorf("snserved: decoding run event: %w", err)
			}
			if fn != nil {
				fn(e)
			}
		case "end":
			var end End
			if err := json.Unmarshal(data.Bytes(), &end); err != nil {
				return End{}, false, fmt.Errorf("snserved: decoding end event: %w", err)
			}
			return end, true, nil
		}
		return End{}, false, nil
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			end, final, err := dispatch()
			if err != nil || final {
				return end, err
			}
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		}
	}
	if err := sc.Err(); err != nil {
		return End{}, err
	}
	return End{}, fmt.Errorf("snserved: event stream ended without a terminal frame")
}

// Wait polls the job until it leaves the queued/running states,
// returning its final status.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return JobStatus{}, err
		}
		if st.State == StateDone || st.State == StateFailed {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-t.C:
		}
	}
}

// Healthy reports whether the daemon answers /healthz.
func (c *Client) Healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
