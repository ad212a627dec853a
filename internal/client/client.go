// Package client is the typed Go client for the sops serve /v1 API — the
// same contract documented in API.md and consumed by curl and the embedded
// observatory UI. The CLI's `sops replay` and the serve end-to-end tests go
// through this package, so the client exercises exactly what external
// consumers would.
//
// Every method takes a context and returns typed errors: any non-2xx /v1
// response decodes into *Error carrying the server's machine-readable code
// (see serve.ErrorCodes), so callers branch on errors.As + Error.Code
// instead of string-matching bodies.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"sops/internal/frame"
	"sops/internal/serve"
)

// Error is a non-2xx /v1 response: the decoded error envelope plus the
// HTTP status it arrived with. Responses that are not the envelope (a
// proxy's plaintext 502, say) still produce an *Error with an empty Code
// and the raw body as the message.
type Error struct {
	Status  int    // HTTP status code
	Code    string // machine-readable code, e.g. serve.CodeJobNotFound
	Message string // human-readable detail
	JobID   string // the job the error is about, when applicable
}

func (e *Error) Error() string {
	if e.Code == "" {
		return fmt.Sprintf("server returned %d: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("%s (%d): %s", e.Code, e.Status, e.Message)
}

// IsNotFound reports whether err is a job_not_found or route_not_found
// response.
func IsNotFound(err error) bool {
	var e *Error
	return errors.As(err, &e) && (e.Code == serve.CodeJobNotFound || e.Code == serve.CodeRouteNotFound)
}

// IsBusy reports whether err is an admission shed (node_busy or
// quota_exceeded) — the retryable 429s.
func IsBusy(err error) bool {
	var e *Error
	return errors.As(err, &e) && (e.Code == serve.CodeNodeBusy || e.Code == serve.CodeQuotaExceeded)
}

// Client talks to one sops serve node.
type Client struct {
	base     string
	clientID string
	hc       *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (httptest servers, timeouts).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithClientID sets the X-Sops-Client quota key sent on submissions.
func WithClientID(id string) Option {
	return func(c *Client) { c.clientID = id }
}

// New returns a client for the node at baseURL (e.g. "http://localhost:8723").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// do issues one request and decodes any non-2xx response into *Error. On
// success the caller owns resp.Body.
func (c *Client) do(ctx context.Context, method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.clientID != "" {
		req.Header.Set(serve.ClientHeader, c.clientID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp, nil
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	apiErr := &Error{Status: resp.StatusCode, Message: strings.TrimSpace(string(data))}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
			JobID   string `json:"job_id"`
		} `json:"error"`
	}
	if jerr := json.Unmarshal(data, &env); jerr == nil && env.Error.Code != "" {
		apiErr.Code, apiErr.Message, apiErr.JobID = env.Error.Code, env.Error.Message, env.Error.JobID
	}
	return nil, apiErr
}

// getJSON issues a GET and decodes the response body into out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts a job and returns its accepted record. Busy/quota sheds come
// back as *Error with Code node_busy / quota_exceeded (IsBusy matches both).
func (c *Client) Submit(ctx context.Context, req serve.JobRequest) (serve.Job, error) {
	var job serve.Job
	body, err := json.Marshal(req)
	if err != nil {
		return job, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return job, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&job)
	return job, err
}

// Job fetches one job record.
func (c *Client) Job(ctx context.Context, id string) (serve.Job, error) {
	var job serve.Job
	err := c.getJSON(ctx, "/v1/jobs/"+url.PathEscape(id), &job)
	return job, err
}

// Jobs lists every job the node knows about.
func (c *Client) Jobs(ctx context.Context) ([]serve.Job, error) {
	var jobs []serve.Job
	err := c.getJSON(ctx, "/v1/jobs", &jobs)
	return jobs, err
}

// Delete cancels (running) or removes (terminal) a job. The deleted flag
// reports whether the record is gone, as opposed to canceled-but-retained.
func (c *Client) Delete(ctx context.Context, id string) (serve.Job, bool, error) {
	resp, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil)
	if err != nil {
		return serve.Job{}, false, err
	}
	defer resp.Body.Close()
	var out struct {
		Job     serve.Job `json:"job"`
		Deleted bool      `json:"deleted"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out.Job, out.Deleted, err
}

// Result returns a completed job's result document and its content type.
func (c *Client) Result(ctx context.Context, id string) ([]byte, string, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/result", nil)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.Header.Get("Content-Type"), err
}

// Stream follows the job's frame log from frame 0: history first, then live
// frames until the terminal done frame closes the stream. fn receives each
// decoded frame alongside its raw NDJSON line (without the trailing
// newline); returning an error stops the stream and is returned (except
// io.EOF, which stops it silently). The raw line is only valid during the
// call — copy it to keep it.
//
// The wire carries the binary frame records (?format=binary); the client
// transcodes locally, so fn sees exactly the NDJSON lines the JSON endpoint
// would serve while the server does no per-follower encoding.
func (c *Client) Stream(ctx context.Context, id string, fn func(f serve.Frame, raw []byte) error) error {
	return c.binaryFrames(ctx, "/v1/jobs/"+url.PathEscape(id)+"/stream?format=binary", fn)
}

// Replay fetches a completed job's stored frames — byte-identical to what
// the live stream carried — optionally restricted to [from, to) by seq
// (to == 0 means the end). fn is called as in Stream. Full replays ride the
// binary format; seq-ranged replays use the JSON endpoint (binary records
// are delta-coded and only serve whole logs).
func (c *Client) Replay(ctx context.Context, id string, from, to int, fn func(f serve.Frame, raw []byte) error) error {
	path := "/v1/jobs/" + url.PathEscape(id) + "/frames"
	if from == 0 && to == 0 {
		return c.binaryFrames(ctx, path+"?format=binary", fn)
	}
	q := url.Values{}
	if from > 0 {
		q.Set("from", strconv.Itoa(from))
	}
	if to > 0 {
		q.Set("to", strconv.Itoa(to))
	}
	return c.ndjson(ctx, path+"?"+q.Encode(), fn)
}

// ndjson streams an NDJSON endpoint through fn.
func (c *Client) ndjson(ctx context.Context, path string, fn func(f serve.Frame, raw []byte) error) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return scanLines(resp.Body, fn)
}

// binaryFrames streams a binary frame-log endpoint through fn, transcoding
// each record to its NDJSON line locally. The server answers every
// ?format=binary request with FramesContentType.
func (c *Client) binaryFrames(ctx context.Context, path string, fn func(f serve.Frame, raw []byte) error) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var tr serve.FrameTranscoder
	rd := frame.NewReader(resp.Body)
	for {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("client: reading frame record: %w", err)
		}
		line, err := tr.Transcode(rec)
		if err != nil {
			return fmt.Errorf("client: decoding frame record: %w", err)
		}
		var f serve.Frame
		if err := json.Unmarshal(line, &f); err != nil {
			return fmt.Errorf("client: decoding frame: %w", err)
		}
		if err := fn(f, line); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

// scanLines feeds an NDJSON body through fn.
func scanLines(body io.Reader, fn func(f serve.Frame, raw []byte) error) error {
	sc := bufio.NewScanner(body)
	// Frames with embedded SVG easily clear bufio's 64 KiB default.
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var f serve.Frame
		if err := json.Unmarshal(line, &f); err != nil {
			return fmt.Errorf("client: decoding frame: %w", err)
		}
		if err := fn(f, line); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
	return sc.Err()
}

// Timeline fetches a completed job's timeline artifact; format is "csv" or
// "svg".
func (c *Client) Timeline(ctx context.Context, id, format string) ([]byte, error) {
	switch format {
	case "csv", "svg":
	default:
		return nil, fmt.Errorf("client: unknown timeline format %q (want csv or svg)", format)
	}
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/timeline."+format, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Scenario is one GET /v1/scenarios entry.
type Scenario struct {
	Name        string          `json:"name"`
	Description string          `json:"description"`
	DefaultSpec json.RawMessage `json:"default_spec"`
}

// Scenarios lists the server's registered sweep scenarios.
func (c *Client) Scenarios(ctx context.Context) ([]Scenario, error) {
	var out []Scenario
	err := c.getJSON(ctx, "/v1/scenarios", &out)
	return out, err
}

// Health probes GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	resp, err := c.do(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// WaitTerminal polls the job record until it reaches a terminal state (or
// ctx expires), returning the final record. poll <= 0 defaults to 50ms.
func (c *Client) WaitTerminal(ctx context.Context, id string, poll time.Duration) (serve.Job, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		job, err := c.Job(ctx, id)
		if err != nil {
			return job, err
		}
		if job.Terminal() {
			return job, nil
		}
		select {
		case <-ctx.Done():
			return job, ctx.Err()
		case <-t.C:
		}
	}
}
