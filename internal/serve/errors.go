package serve

import (
	"net/http"
)

// The typed error envelope. Every non-2xx response from a /v1 route is one
// JSON document of this shape — never a plaintext http.Error body — so
// clients (internal/client, curl | jq, the embedded UI) branch on a stable
// machine-readable code instead of parsing prose:
//
//	{"error":{"code":"job_not_found","message":"unknown job \"j99\"","job_id":"j99"}}
//
// The message text is free to improve between versions; the code and the
// envelope shape are the contract (pinned by TestErrorEnvelopeCodes and
// documented per-route in API.md).

// Error codes carried by APIError.Code.
const (
	// CodeInvalidSpec rejects a submission whose body does not decode or
	// whose spec/options fail validation (HTTP 400).
	CodeInvalidSpec = "invalid_spec"
	// CodeInvalidArgument rejects a malformed query parameter, e.g. a
	// non-integer frames?from= (HTTP 400).
	CodeInvalidArgument = "invalid_argument"
	// CodeJobNotFound: the job id names no known job (HTTP 404).
	CodeJobNotFound = "job_not_found"
	// CodeNoFrames: the job completed but holds no snapshot frames to
	// build the requested artifact from (HTTP 404).
	CodeNoFrames = "no_frames"
	// CodeJobNotComplete: the route serves completed jobs only and the job
	// is still pending or running (HTTP 409).
	CodeJobNotComplete = "job_not_complete"
	// CodeNoResult: the job is terminal but holds no stored result — it
	// failed or was canceled, or its workspace is gone (HTTP 404).
	CodeNoResult = "no_result"
	// CodeNodeBusy: admission control shed the submission because this
	// node is at capacity — queue full or MaxActive reached (HTTP 429,
	// Retry-After set).
	CodeNodeBusy = "node_busy"
	// CodeQuotaExceeded: the submitting client (X-Sops-Client) is over its
	// per-client active-job quota (HTTP 429, Retry-After set).
	CodeQuotaExceeded = "quota_exceeded"
	// CodeRouteNotFound: no /v1 route matches the request path (HTTP 404).
	CodeRouteNotFound = "route_not_found"
	// CodeMethodNotAllowed: the path exists but not for this method
	// (HTTP 405, Allow set).
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeInternal: the server failed to build a response it should have
	// been able to build (HTTP 500).
	CodeInternal = "internal"
)

// ErrorCodes lists every error code the API can emit, for docs and the
// code-pinning test.
func ErrorCodes() []string {
	return []string{
		CodeInvalidSpec, CodeInvalidArgument, CodeJobNotFound, CodeNoFrames,
		CodeJobNotComplete, CodeNoResult, CodeNodeBusy, CodeQuotaExceeded,
		CodeRouteNotFound, CodeMethodNotAllowed, CodeInternal,
	}
}

// APIError is the body of the envelope: the machine-readable code, the
// human-readable message, and — when the error concerns one job — its id.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	JobID   string `json:"job_id,omitempty"`
}

// Error makes APIError usable as a Go error (internal/client returns it).
func (e *APIError) Error() string { return e.Message }

// errorEnvelope is the wire shape of every error response.
type errorEnvelope struct {
	Error APIError `json:"error"`
}

// writeAPIError emits the envelope with the given status. jobID may be
// empty for errors not tied to a job.
func writeAPIError(w http.ResponseWriter, status int, code, jobID string, err error) {
	writeJSON(w, status, errorEnvelope{Error: APIError{Code: code, Message: err.Error(), JobID: jobID}})
}

// probeWriter captures the status and headers a handler would have written,
// discarding the body. ServeHTTP uses it to learn whether the mux's
// fallback for an unmatched /v1 request is a 404 or a 405 (and its Allow
// header) before replacing the plaintext body with the envelope.
type probeWriter struct {
	header http.Header
	status int
}

func (p *probeWriter) Header() http.Header { return p.header }

func (p *probeWriter) WriteHeader(code int) {
	if p.status == 0 {
		p.status = code
	}
}

func (p *probeWriter) Write(b []byte) (int, error) {
	if p.status == 0 {
		p.status = http.StatusOK
	}
	return len(b), nil
}
