package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"sops/internal/experiment"
	"sops/internal/frame"
)

// ClientHeader carries the per-client quota key on submissions. Clients
// that send none share the anonymous quota bucket.
const ClientHeader = "X-Sops-Client"

// Server is the HTTP front of a Manager: the typed /v1 REST API, the
// streaming and replay endpoints, and the embedded observatory UI. It
// implements http.Handler; `sops serve` mounts it on a net/http server,
// tests on httptest. The full route contract — request/response schemas,
// the frame grammar, and the error envelope — is documented in API.md;
// TestRoutesMatchAPIDoc keeps that document and apiRoutes in lockstep.
type Server struct {
	mgr   *Manager
	mux   *http.ServeMux
	pprof bool
}

// New opens the store and starts the job pool behind a ready-to-mount
// handler.
func New(opt Options) (*Server, error) {
	mgr, err := Open(opt)
	if err != nil {
		return nil, err
	}
	s := &Server{mgr: mgr, mux: http.NewServeMux(), pprof: opt.Pprof}
	s.routes()
	return s, nil
}

// Manager exposes the job manager, for embedders and tests.
func (s *Server) Manager() *Manager { return s.mgr }

// Close shuts the job pool down; incomplete sweeps journal and resume on
// the next New over the same directory.
func (s *Server) Close() error { return s.mgr.Close() }

// ServeHTTP routes through the mux, except that unmatched /v1 requests are
// answered with the typed error envelope instead of net/http's plaintext
// 404/405 bodies — every non-2xx byte under /v1 is the envelope.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1") {
		if _, pattern := s.mux.Handler(r); pattern == "" {
			s.handleUnmatched(w, r)
			return
		}
	}
	s.mux.ServeHTTP(w, r)
}

// apiRoutes is the single registry behind the mux, the Routes listing, and
// the API.md contract: adding an endpoint means adding a row here, a
// handler, and its documentation section (the docs test fails otherwise).
var apiRoutes = []struct {
	Method, Pattern string
	handler         func(*Server, http.ResponseWriter, *http.Request)
}{
	{"POST", "/v1/jobs", (*Server).handleSubmit},
	{"GET", "/v1/jobs", (*Server).handleList},
	{"GET", "/v1/jobs/{id}", (*Server).handleJob},
	{"DELETE", "/v1/jobs/{id}", (*Server).handleDelete},
	{"GET", "/v1/jobs/{id}/stream", (*Server).handleStream},
	{"GET", "/v1/jobs/{id}/frames", (*Server).handleFrames},
	{"GET", "/v1/jobs/{id}/result", (*Server).handleResult},
	{"GET", "/v1/jobs/{id}/timeline.csv", (*Server).handleTimelineCSV},
	{"GET", "/v1/jobs/{id}/timeline.svg", (*Server).handleTimelineSVG},
	{"GET", "/v1/scenarios", (*Server).handleScenarios},
}

// Routes lists the /v1 route contract as "METHOD /pattern" strings, in
// registration order — what API.md must document, one section per entry.
func Routes() []string {
	out := make([]string, len(apiRoutes))
	for i, rt := range apiRoutes {
		out[i] = rt.Method + " " + rt.Pattern
	}
	return out
}

func (s *Server) routes() {
	for _, rt := range apiRoutes {
		h := rt.handler
		s.mux.HandleFunc(rt.Method+" "+rt.Pattern, func(w http.ResponseWriter, r *http.Request) {
			h(s, w, r)
		})
	}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, s.mgr.Metrics().String())
	})
	// The embedded observatory UI: index at /, assets under /ui/.
	s.mux.HandleFunc("GET /{$}", handleUIIndex)
	s.mux.Handle("GET /ui/", http.StripPrefix("/ui/", uiFileServer()))
	if s.pprof {
		// Opt-in profiling (Options.Pprof / `sops serve -pprof`). Outside
		// the /v1 contract — like /healthz and /metrics, these routes are
		// operational, not part of the documented API.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// handleUnmatched turns the mux's plaintext fallback for an unmatched /v1
// request into the envelope, preserving the status (404 vs 405) and the
// Allow header the mux would have sent.
func (s *Server) handleUnmatched(w http.ResponseWriter, r *http.Request) {
	probe := &probeWriter{header: http.Header{}}
	s.mux.ServeHTTP(probe, r)
	if probe.status == http.StatusMethodNotAllowed {
		allow := probe.header.Get("Allow")
		if allow != "" {
			w.Header().Set("Allow", allow)
		}
		writeAPIError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "",
			fmt.Errorf("method %s is not allowed on %s (allowed: %s)", r.Method, r.URL.Path, allow))
		return
	}
	writeAPIError(w, http.StatusNotFound, CodeRouteNotFound, "",
		fmt.Errorf("no route %s %s (see API.md for the /v1 contract)", r.Method, r.URL.Path))
}

// maxSubmitBytes caps a POST /v1/jobs body. A sweep spec is a few KB; the
// cap keeps one request from making the server read an unbounded body.
const maxSubmitBytes = 1 << 20

// The body cap bounds bytes, not work. These bound the work one accepted
// request can ask for: the particles of a run or of any sweep size, the
// (point, rep) tasks a sweep expands to, and the snapshots a run takes —
// each one a frame in the stream log and an entry of Result.Snapshots.
const (
	maxSubmitN      = 1_000_000
	maxSubmitTasks  = 100_000
	maxSubmitFrames = 10_000
)

// decodeJobRequest reads a POST /v1/jobs body: exactly one JobRequest
// object with no unknown fields, followed by nothing but whitespace.
func decodeJobRequest(body io.Reader) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		if tok, terr := dec.Token(); terr == nil {
			err = fmt.Errorf("unexpected %v after the job object", tok)
		} else if terr != io.EOF {
			err = terr
		}
	}
	return req, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeJobRequest(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			err = fmt.Errorf("body exceeds the %d-byte limit", maxSubmitBytes)
		}
		writeAPIError(w, http.StatusBadRequest, CodeInvalidSpec, "", fmt.Errorf("decoding job request: %w", err))
		return
	}
	job, err := s.mgr.SubmitAs(req, r.Header.Get(ClientHeader))
	if err != nil {
		// Admission sheds are backpressure, not client errors: 429 tells a
		// well-behaved client to retry (elsewhere, or later).
		switch {
		case errors.Is(err, ErrQuota):
			w.Header().Set("Retry-After", "1")
			writeAPIError(w, http.StatusTooManyRequests, CodeQuotaExceeded, "", err)
		case errors.Is(err, ErrBusy):
			w.Header().Set("Retry-After", "1")
			writeAPIError(w, http.StatusTooManyRequests, CodeNodeBusy, "", err)
		default:
			writeAPIError(w, http.StatusBadRequest, CodeInvalidSpec, "", err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Job(r.PathValue("id"))
	if !ok {
		writeJobNotFound(w, r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, deleted, err := s.mgr.Delete(id)
	switch {
	case errors.Is(err, errUnknownJob):
		writeAPIError(w, http.StatusNotFound, CodeJobNotFound, id, err)
		return
	case err != nil:
		writeAPIError(w, http.StatusInternalServerError, CodeInternal, id, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"job": job, "deleted": deleted})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.mgr.Job(id)
	if !ok {
		writeJobNotFound(w, id)
		return
	}
	if !terminal(job.State) {
		writeAPIError(w, http.StatusConflict, CodeJobNotComplete, id,
			fmt.Errorf("job %s is %s; a result exists once it is done", id, job.State))
		return
	}
	data, ct, err := s.mgr.Result(&job)
	switch {
	case errors.Is(err, errNoResult):
		writeAPIError(w, http.StatusNotFound, CodeNoResult, id, err)
		return
	case err != nil:
		writeAPIError(w, http.StatusInternalServerError, CodeInternal, id, err)
		return
	}
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// FramesContentType is the media type of the binary frame log
// (?format=binary): a frame.Header followed by framed records.
const FramesContentType = "application/x-sops-frames"

// streamFormat parses the ?format query parameter shared by the stream and
// frames endpoints: "json" (the default NDJSON contract) or "binary" (the
// internal/frame wire format, verbatim).
func streamFormat(r *http.Request) (binary bool, err error) {
	switch f := r.URL.Query().Get("format"); f {
	case "", "json":
		return false, nil
	case "binary":
		return true, nil
	default:
		return false, fmt.Errorf("query parameter format=%q: want json or binary", f)
	}
}

// handleStream follows the job's frame log: the full history first
// (reconnects replay from frame 0), then live frames until the job reaches
// a terminal state. The default encoding is NDJSON; ?format=binary streams
// the canonical binary records instead — the same bytes for every follower,
// with no per-client encoding work at all.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	binary, err := streamFormat(r)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, CodeInvalidArgument, id, err)
		return
	}
	st, ok := s.mgr.Stream(id)
	if !ok {
		writeJobNotFound(w, id)
		return
	}
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	if binary {
		w.Header().Set("Content-Type", FramesContentType)
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write(frame.Header()); err != nil {
			return
		}
		_ = st.followRecords(r.Context(), func(rec []byte) error {
			if _, err := w.Write(rec); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	newline := []byte{'\n'}
	_ = st.follow(r.Context(), func(line []byte) error {
		// The frame slice is shared by every follower of this job: never
		// append to it (appending would race on its backing array), write
		// the separator on its own.
		if _, err := w.Write(line); err != nil {
			return err
		}
		if _, err := w.Write(newline); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
}

// handleFrames serves a completed job's stored frame history — the exact
// bytes the live stream carried — optionally restricted to a seq range:
// from= is inclusive (default 0), to= exclusive (0 or absent means the
// end). This is the deterministic-replay read: `sops replay` and the UI's
// re-render path consume it.
func (s *Server) handleFrames(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	binary, err := streamFormat(r)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, CodeInvalidArgument, id, err)
		return
	}
	from, to, err := frameRange(r)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, CodeInvalidArgument, id, err)
		return
	}
	if binary && (from > 0 || to > 0) {
		// Binary records are delta-coded: slicing the log would orphan
		// deltas from their keyframe. Range reads stay a JSON feature.
		writeAPIError(w, http.StatusBadRequest, CodeInvalidArgument, id,
			fmt.Errorf("format=binary serves the full frame log; from/to require format=json"))
		return
	}
	job, ok := s.mgr.Job(id)
	if !ok {
		writeJobNotFound(w, id)
		return
	}
	if !terminal(job.State) {
		writeAPIError(w, http.StatusConflict, CodeJobNotComplete, id,
			fmt.Errorf("job %s is %s; frames replay completed jobs (follow /stream for live frames)", id, job.State))
		return
	}
	if binary {
		recs, err := s.mgr.FrameRecords(r.Context(), id)
		if err != nil {
			writeAPIError(w, http.StatusInternalServerError, CodeInternal, id, err)
			return
		}
		w.Header().Set("Content-Type", FramesContentType)
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write(frame.Header()); err != nil {
			return
		}
		for _, rec := range recs {
			if _, err := w.Write(rec); err != nil {
				return
			}
		}
		return
	}
	lines, err := s.mgr.FrameHistory(r.Context(), id)
	if err != nil {
		writeAPIError(w, http.StatusInternalServerError, CodeInternal, id, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	newline := []byte{'\n'}
	for _, line := range lines {
		if seq, ok := frameSeq(line); !ok || seq < from || (to > 0 && seq >= to) {
			continue
		}
		if _, err := w.Write(line); err != nil {
			return
		}
		if _, err := w.Write(newline); err != nil {
			return
		}
	}
}

// frameRange parses the from/to query parameters of the frames endpoint.
func frameRange(r *http.Request) (from, to int, err error) {
	q := r.URL.Query()
	for _, p := range []struct {
		name string
		dst  *int
	}{{"from", &from}, {"to", &to}} {
		raw := q.Get(p.name)
		if raw == "" {
			continue
		}
		v, perr := strconv.Atoi(raw)
		if perr != nil || v < 0 {
			return 0, 0, fmt.Errorf("query parameter %s=%q: want a non-negative integer", p.name, raw)
		}
		*p.dst = v
	}
	return from, to, nil
}

// frameSeq extracts the seq a stored frame line carries.
func frameSeq(line []byte) (int, bool) {
	var f struct {
		Seq *int `json:"seq"`
	}
	if err := json.Unmarshal(line, &f); err != nil || f.Seq == nil {
		return 0, false
	}
	return *f.Seq, true
}

func (s *Server) handleTimelineCSV(w http.ResponseWriter, r *http.Request) {
	s.serveTimeline(w, r, "csv", "text/csv; charset=utf-8")
}

func (s *Server) handleTimelineSVG(w http.ResponseWriter, r *http.Request) {
	s.serveTimeline(w, r, "svg", "image/svg+xml")
}

// serveTimeline serves a completed job's timeline artifact, computing and
// caching it in the job's workspace on first request (see timeline.go).
func (s *Server) serveTimeline(w http.ResponseWriter, r *http.Request, format, ct string) {
	id := r.PathValue("id")
	job, ok := s.mgr.Job(id)
	if !ok {
		writeJobNotFound(w, id)
		return
	}
	if !terminal(job.State) {
		writeAPIError(w, http.StatusConflict, CodeJobNotComplete, id,
			fmt.Errorf("job %s is %s; timelines are built from completed jobs", id, job.State))
		return
	}
	data, err := s.mgr.Timeline(r.Context(), &job, format)
	switch {
	case errors.Is(err, errNoFrames):
		writeAPIError(w, http.StatusNotFound, CodeNoFrames, id, err)
		return
	case err != nil:
		writeAPIError(w, http.StatusInternalServerError, CodeInternal, id, err)
		return
	}
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

func writeJobNotFound(w http.ResponseWriter, id string) {
	writeAPIError(w, http.StatusNotFound, CodeJobNotFound, id, fmt.Errorf("unknown job %q", id))
}

// scenarioInfo is one GET /v1/scenarios entry: the registry row plus the
// scenario's fully normalized default spec — what a bare
// {"spec": {"scenario": name}} submission would run.
type scenarioInfo struct {
	Name        string          `json:"name"`
	Description string          `json:"description"`
	DefaultSpec experiment.Spec `json:"default_spec"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	infos := experiment.List()
	out := make([]scenarioInfo, 0, len(infos))
	for _, info := range infos {
		spec, err := experiment.DefaultSpec(info.Name)
		if err != nil {
			writeAPIError(w, http.StatusInternalServerError, CodeInternal, "", err)
			return
		}
		out = append(out, scenarioInfo{Name: info.Name, Description: info.Description, DefaultSpec: spec})
	}
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
