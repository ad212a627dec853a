package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sops/internal/frame"
	"sops/internal/runner"
)

// TestGoldenBinaryStreams pins the exact binary frame-log bytes of
// GET /v1/jobs/{id}/stream?format=binary for the same engine × rule matrix
// as TestGoldenStreams, and proves the transcode contract directly: the
// binary records, run through FrameTranscoder, reproduce the pinned NDJSON
// golden byte for byte.
func TestGoldenBinaryStreams(t *testing.T) {
	for _, tc := range streamGoldenCases() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			_, ts := newTestServer(t, Options{TaskWorkers: 1})
			job := submit(t, ts.URL, tc.Req)
			waitState(t, ts.URL, job.ID, StateDone)
			resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/stream?format=binary")
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("stream: %d (%s)", resp.StatusCode, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != FramesContentType {
				t.Fatalf("Content-Type = %q, want %q", ct, FramesContentType)
			}
			if !frame.HasHeader(body) {
				t.Fatalf("binary stream does not start with the SOPF header: % x", body[:min(len(body), 8)])
			}
			checkGolden(t, fmt.Sprintf("streams/%s.bin", tc.Name), body)

			recs, err := frame.Split(body)
			if err != nil {
				t.Fatalf("split: %v", err)
			}
			var tr FrameTranscoder
			var ndjson []byte
			for i, rec := range recs {
				line, err := tr.Transcode(rec)
				if err != nil {
					t.Fatalf("transcode record %d: %v", i, err)
				}
				ndjson = append(ndjson, line...)
				ndjson = append(ndjson, '\n')
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", "streams", tc.Name+".ndjson"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ndjson, want) {
				t.Errorf("JSON transcode of the binary log drifted from the NDJSON golden.\n--- got ---\n%s\n--- want ---\n%s", ndjson, want)
			}
		})
	}
}

// TestFramesFormatNegotiation covers the ?format contract on /frames: the
// binary log round-trips with its header and content type, ranged reads
// stay JSON-only, and unknown formats are rejected.
func TestFramesFormatNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Options{TaskWorkers: 1})
	job := submit(t, ts.URL, JobRequest{Run: &runner.Options{
		N: 12, Lambda: 4, Iterations: 200, Seed: 3, SnapshotEvery: 100,
	}})
	waitState(t, ts.URL, job.ID, StateDone)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/frames?format=binary")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frames?format=binary: %d (%s)", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != FramesContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, FramesContentType)
	}
	if !frame.HasHeader(body) {
		t.Fatal("binary frame log lacks the SOPF header")
	}
	if n, _ := frame.Count(body); n == 0 {
		t.Fatal("binary frame log holds no records")
	}

	for _, bad := range []string{"?format=binary&from=1", "?format=binary&to=2", "?format=protobuf"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/frames" + bad)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("frames%s: status %d (%s), want 400", bad, resp.StatusCode, raw)
		}
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != CodeInvalidArgument {
			t.Fatalf("frames%s: envelope %s (err %v), want code %q", bad, raw, err, CodeInvalidArgument)
		}
	}
}

// TestPprofOptIn: /debug/pprof is absent by default and mounted only when
// Options.Pprof is set — and never through the versioned API surface.
func TestPprofOptIn(t *testing.T) {
	_, off := newTestServer(t, Options{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("default /debug/pprof/: status %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, Options{Pprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d (%s), want 200", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("profile")) {
		t.Fatalf("pprof index does not list profiles: %s", body)
	}
	for _, r := range Routes() {
		if strings.Contains(r, "pprof") {
			t.Fatalf("pprof leaked into the versioned route table: %s", r)
		}
	}
}
