package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"sops/internal/experiment"
	"sops/internal/runner"
)

// decodeEnvelope asserts resp is the typed error envelope — JSON
// content type, the {"error": {...}} shape, a non-empty code — and
// returns it. Every non-2xx byte under /v1 must pass this; a plaintext
// http.Error body fails here.
func decodeEnvelope(t *testing.T, resp *http.Response) APIError {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("error content type %q (body %s), want application/json", ct, raw)
	}
	var env errorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("error body is not the envelope: %v: %s", err, raw)
	}
	if env.Error.Code == "" {
		t.Fatalf("envelope without a code: %s", raw)
	}
	if env.Error.Message == "" {
		t.Fatalf("envelope without a message: %s", raw)
	}
	return env.Error
}

// TestSubmitBodyIsOneBoundedObject pins POST /v1/jobs to a body of exactly
// one JSON object of at most maxSubmitBytes: a second object, data after
// the object, or a body over the limit (padded inside or after the object)
// is invalid_spec and creates no job, while whitespace after the object —
// json.Encoder ends its output with a newline — is accepted.
func TestSubmitBodyIsOneBoundedObject(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	const obj = `{"run":{"n":8,"lambda":4,"iterations":2000,"seed":9}}`
	pad := strings.Repeat(" ", maxSubmitBytes)
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, tc := range []struct{ name, body string }{
		{"second object", obj + obj},
		{"garbage after the object", obj + "garbage"},
		{"padding after the object past the limit", obj + pad},
		{"padding inside the object past the limit", `{"run":` + pad + obj[len(`{"run":`):]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := len(s.mgr.Jobs())
			resp := post(tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				resp.Body.Close()
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			if e := decodeEnvelope(t, resp); e.Code != CodeInvalidSpec {
				t.Fatalf("code %q, want %q (%s)", e.Code, CodeInvalidSpec, e.Message)
			}
			if after := len(s.mgr.Jobs()); after != before {
				t.Fatalf("rejected body created %d job(s)", after-before)
			}
		})
	}
	resp := post(obj + "\n \t\r\n")
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("object + whitespace: status %d: %s", resp.StatusCode, raw)
	}
	var job Job
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts.URL, job.ID, StateDone)
}

// TestSubmitWorkLimits: a request for absurd work — a huge run n, a huge
// sweep size, axes whose product is 10⁸ tasks, 10¹² reps, or a run
// snapshotting every one of its 2·10⁹ steps — is
// invalid_spec with a message naming the limit, creates no job, and is
// refused before the server allocates anything near the point grid it
// asks for (10⁸ points take about 7 GB).
func TestSubmitWorkLimits(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	var lambdas, sizes []string
	for i := 0; i < 10_000; i++ {
		lambdas = append(lambdas, fmt.Sprint(1+float64(i)/1e4))
		sizes = append(sizes, fmt.Sprint(i+1))
	}
	for _, tc := range []struct{ name, body, limit string }{
		{"run n", `{"run":{"n":4294967296,"lambda":4}}`, "1000000 particles"},
		{"sweep size", `{"spec":{"scenario":"compress","sizes":[20,2000000]}}`, "1000000 particles"},
		{"axis product", `{"spec":{"scenario":"compress","lambdas":[` + strings.Join(lambdas, ",") +
			`],"sizes":[` + strings.Join(sizes, ",") + `]}}`, "100000 tasks"},
		{"reps", `{"spec":{"scenario":"compress","reps":1000000000000}}`, "100000 tasks"},
		{"run frames", `{"run":{"n":10,"lambda":4,"iterations":2000000000,"snapshot_every":1}}`, "10000 frames"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := len(s.mgr.Jobs())
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			if resp.StatusCode != http.StatusBadRequest {
				resp.Body.Close()
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			e := decodeEnvelope(t, resp)
			if e.Code != CodeInvalidSpec || !strings.Contains(e.Message, tc.limit) {
				t.Fatalf("error %s %q, want %s naming %q", e.Code, e.Message, CodeInvalidSpec, tc.limit)
			}
			if after := len(s.mgr.Jobs()); after != before {
				t.Fatalf("refused request created %d job(s)", after-before)
			}
			if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 64<<20 {
				t.Fatalf("refusing the request allocated %d MiB", grew>>20)
			}
		})
	}
}

// TestErrorEnvelopeCodes pins the error contract: every code in
// ErrorCodes() is reachable, arrives with its documented status, and every
// failing /v1 response is the JSON envelope (no plaintext bodies).
func TestErrorEnvelopeCodes(t *testing.T) {
	// MaxActive 2 + ClientQuota 1 lets one server demonstrate both sheds:
	// with one of alice's jobs active her next submission trips the quota,
	// and with a second (bob's) job active anyone's trips the node cap.
	_, ts := newTestServer(t, Options{MaxActive: 2, ClientQuota: 1, Jobs: 2})
	base := ts.URL

	slowSpec := func(seed uint64) *experiment.Spec {
		return &experiment.Spec{
			Scenario: "compress", Lambdas: []float64{4}, Sizes: []int{60},
			Engines: []string{"chain"}, Iterations: 40_000_000, Reps: 2, Seed: seed,
		}
	}
	post := func(client string, req JobRequest) *http.Response {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		hreq, _ := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
		hreq.Header.Set("Content-Type", "application/json")
		if client != "" {
			hreq.Header.Set(ClientHeader, client)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	mustAccept := func(client string, req JobRequest) Job {
		t.Helper()
		resp := post(client, req)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("submit as %q: status %d: %s", client, resp.StatusCode, raw)
		}
		var job Job
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		return job
	}

	// A completed run without snapshots: timelines have nothing to chew on.
	bare := submit(t, base, JobRequest{Run: &runner.Options{
		N: 8, Lambda: 4, Iterations: 2000, Seed: 9,
	}})
	waitState(t, base, bare.ID, StateDone)
	// A long-running hog: with it active, alice's next submission trips her
	// quota. The node_busy case later adds bob's hog to fill the node — the
	// capacity check runs before the quota check, so the order matters.
	hogA := mustAccept("alice", JobRequest{Spec: slowSpec(31)})
	var hogB Job

	cases := []struct {
		code   string
		status int
		jobID  string // expected envelope job_id ("" = don't care)
		do     func() *http.Response
	}{
		{CodeInvalidSpec, http.StatusBadRequest, "", func() *http.Response {
			resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(`{"kind":"run"}`))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}},
		{CodeInvalidArgument, http.StatusBadRequest, bare.ID, func() *http.Response {
			resp, err := http.Get(base + "/v1/jobs/" + bare.ID + "/frames?from=x")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}},
		{CodeJobNotFound, http.StatusNotFound, "j99999999", func() *http.Response {
			resp, err := http.Get(base + "/v1/jobs/j99999999")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}},
		{CodeNoFrames, http.StatusNotFound, bare.ID, func() *http.Response {
			resp, err := http.Get(base + "/v1/jobs/" + bare.ID + "/timeline.csv")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}},
		{CodeJobNotComplete, http.StatusConflict, hogA.ID, func() *http.Response {
			resp, err := http.Get(base + "/v1/jobs/" + hogA.ID + "/frames")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}},
		{CodeQuotaExceeded, http.StatusTooManyRequests, "", func() *http.Response {
			return post("alice", JobRequest{Spec: slowSpec(33)})
		}},
		{CodeNodeBusy, http.StatusTooManyRequests, "", func() *http.Response {
			hogB = mustAccept("bob", JobRequest{Spec: slowSpec(32)})
			return post("carol", JobRequest{Spec: slowSpec(34)})
		}},
		{CodeRouteNotFound, http.StatusNotFound, "", func() *http.Response {
			resp, err := http.Get(base + "/v1/nope")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}},
		{CodeMethodNotAllowed, http.StatusMethodNotAllowed, "", func() *http.Response {
			req, _ := http.NewRequest(http.MethodPut, base+"/v1/jobs", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}},
		{CodeNoResult, http.StatusNotFound, "", func() *http.Response {
			// Runs after the node_busy case, which starts hogB.
			req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+hogB.ID, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			waitState(t, base, hogB.ID, StateCanceled)
			resp, err = http.Get(base + "/v1/jobs/" + hogB.ID + "/result")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}},
	}

	covered := map[string]bool{}
	for _, tc := range cases {
		t.Run(tc.code, func(t *testing.T) {
			resp := tc.do()
			if resp.StatusCode != tc.status {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.status)
			}
			apiErr := decodeEnvelope(t, resp)
			if apiErr.Code != tc.code {
				t.Errorf("code %q, want %q (message %q)", apiErr.Code, tc.code, apiErr.Message)
			}
			if tc.jobID != "" && apiErr.JobID != tc.jobID {
				t.Errorf("job_id %q, want %q", apiErr.JobID, tc.jobID)
			}
			switch tc.code {
			case CodeNodeBusy, CodeQuotaExceeded:
				if resp.Header.Get("Retry-After") == "" {
					t.Error("shed response without Retry-After")
				}
			case CodeMethodNotAllowed:
				if allow := resp.Header.Get("Allow"); !strings.Contains(allow, http.MethodPost) {
					t.Errorf("Allow %q does not list POST", allow)
				}
			}
			covered[tc.code] = true
		})
	}

	// CodeInternal has no honest trigger from a well-formed store, so pin
	// its envelope at the writer.
	t.Run(CodeInternal, func(t *testing.T) {
		rec := httptest.NewRecorder()
		writeAPIError(rec, http.StatusInternalServerError, CodeInternal, "j1", errors.New("boom"))
		resp := rec.Result()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("status %d, want 500", resp.StatusCode)
		}
		if apiErr := decodeEnvelope(t, resp); apiErr.Code != CodeInternal || apiErr.JobID != "j1" {
			t.Errorf("envelope %+v", apiErr)
		}
		covered[CodeInternal] = true
	})

	for _, code := range ErrorCodes() {
		if !covered[code] {
			t.Errorf("error code %q has no envelope test pinning it", code)
		}
	}

	// Unblock shutdown: the hogs would otherwise run for minutes.
	for _, id := range []string{hogA.ID, hogB.ID} {
		req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
}

// TestRoutesMatchAPIDoc keeps API.md and the route table in lockstep: the
// document's "### METHOD /v1/..." headings must list exactly the registered
// /v1 routes, in registration order.
func TestRoutesMatchAPIDoc(t *testing.T) {
	doc, err := os.ReadFile("../../API.md")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^### (GET|POST|PUT|DELETE|PATCH) (\S+)$`)
	var documented []string
	for _, m := range re.FindAllStringSubmatch(string(doc), -1) {
		if strings.HasPrefix(m[2], "/v1") {
			documented = append(documented, m[1]+" "+m[2])
		}
	}
	routes := Routes()
	if len(documented) != len(routes) {
		t.Errorf("API.md documents %d /v1 routes, server registers %d", len(documented), len(routes))
	}
	for i := 0; i < len(routes) || i < len(documented); i++ {
		var want, got string
		if i < len(routes) {
			want = routes[i]
		}
		if i < len(documented) {
			got = documented[i]
		}
		if want != got {
			t.Errorf("route %d: API.md has %q, server registers %q", i, got, want)
		}
	}
}

// TestEmbeddedUI: the observatory index is served at / with its content
// type, and the same bytes are reachable under /ui/.
func TestEmbeddedUI(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{"/", "/ui/index.html"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
			t.Fatalf("GET %s: content type %q", path, ct)
		}
		if !bytes.Contains(raw, []byte("sops observatory")) {
			t.Fatalf("GET %s: page does not look like the observatory (%d bytes)", path, len(raw))
		}
		// The UI may only speak documented /v1 routes.
		for _, m := range regexp.MustCompile(`/v1/[a-z]+`).FindAll(raw, -1) {
			if s := string(m); s != "/v1/jobs" && s != "/v1/scenarios" {
				t.Fatalf("GET %s references undocumented prefix %q", path, s)
			}
		}
	}
}
