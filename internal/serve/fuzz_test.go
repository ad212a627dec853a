package serve

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"sops/internal/experiment"
)

// FuzzLeaseFile hammers the store-facing parsers a cluster node trusts its
// safety to: lease files (ownership arbitration) and COMPLETE markers
// (cache-hit predicate). Both are written by peer processes that can crash
// mid-write, hold divergent code versions, or — outside the lease
// protocol's guarantees — interleave. Arbitrary corruption must surface as
// a clean rejection, never a panic or a half-valid record: a misread lease
// is a double-executed job, a misread COMPLETE a wrongly served cache
// entry. Seeds cover the interesting shapes (truncation, foreign owners,
// stale protocol versions, concurrent-rewrite concatenation); the
// checked-in corpus under testdata/fuzz pins them for the CI smoke run.
func FuzzLeaseFile(f *testing.F) {
	valid, err := json.Marshal(leaseRecord{
		Version:    leaseVersion,
		Owner:      "node-a",
		ID:         "j00000001-node-a",
		AcquiredAt: time.Unix(1700000000, 0).UTC(),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(valid, '\n'))
	f.Add(valid[:len(valid)/2])                         // truncated mid-write
	f.Add(append(append([]byte{}, valid...), valid...)) // concurrent rewrite: two docs
	f.Add([]byte(`{"v":"sops-lease-v0","owner":"node-b","id":"x","acquired_at":"2020-01-01T00:00:00Z"}`))
	f.Add([]byte(`{"v":"sops-lease-v1","owner":"","id":"x","acquired_at":"2020-01-01T00:00:00Z"}`))
	f.Add([]byte(`{"v":"sops-lease-v1","owner":"node-z","id":"","acquired_at":"2020-01-01T00:00:00Z"}`))
	f.Add([]byte(`{"v":"sops-lease-v1","owner":"node-z","id":"y","acquired_at":"2020-01-01T00:00:00Z","extra":1}`))
	f.Add([]byte(`{"digest":"abc","result_file":"results.jsonl","owner":"node-a"}`))
	f.Add([]byte{})
	f.Add([]byte("\x00\xff{"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		rec, err := parseLease(raw)
		if err != nil {
			if rec != (leaseRecord{}) {
				t.Fatalf("error %v returned a non-zero record: %+v", err, rec)
			}
		} else {
			// Accepted records satisfy every invariant callers rely on…
			if rec.Version != leaseVersion {
				t.Fatalf("accepted lease with version %q", rec.Version)
			}
			if rec.Owner == "" || rec.ID == "" {
				t.Fatalf("accepted lease missing owner/id: %+v", rec)
			}
			// …and survive a write/read cycle unchanged: what one node
			// persists, every node reads back identically.
			re, err := json.Marshal(rec)
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			rec2, err := parseLease(append(re, '\n'))
			if err != nil {
				t.Fatalf("re-parse of own output: %v", err)
			}
			if rec2 != rec {
				t.Fatalf("lease round-trip drifted: %+v vs %+v", rec2, rec)
			}
		}

		// The COMPLETE marker decoder shares the exposure (peer-written
		// JSON bytes): it must never panic, and a decodable marker must
		// round-trip its digest/owner — what readCompletion's digest
		// comparison and the provenance field rely on.
		var c completion
		if json.Unmarshal(raw, &c) == nil && c.Digest != "" {
			re, err := json.Marshal(c)
			if err != nil {
				t.Fatalf("completion re-marshal: %v", err)
			}
			var c2 completion
			if err := json.Unmarshal(re, &c2); err != nil || c2.Digest != c.Digest || c2.Owner != c.Owner {
				t.Fatalf("completion round-trip drifted: %+v vs %+v (%v)", c2, c, err)
			}
		}
	})
}

// FuzzSubmit feeds arbitrary bytes through the POST /v1/jobs decoder and
// the request normalizer, the path every submission takes before a job
// exists. It must never panic, and a request it accepts must be within the
// work limits — particles, tasks, and a run's snapshot frames — and
// already canonical: encoded and submitted again, it normalizes to the
// same bytes and task count.
func FuzzSubmit(f *testing.F) {
	f.Add([]byte(`{"run":{"n":8,"lambda":4,"iterations":2000,"seed":9}}`))
	f.Add([]byte(`{"run":{"n":30,"lambda":4,"seed":5,"snapshot_every":50000,"engine":"amoebot"},"svg":true}`))
	f.Add([]byte(`{"spec":{"scenario":"compress","lambdas":[2,4],"sizes":[20],"engines":["chain","kmc"],"iterations":80000,"reps":2,"seed":1}}`))
	f.Add([]byte(`{"spec":{"scenario":"forage","sizes":[20],"forage":{"radius":6,"food_steps":20000}}}`))
	f.Add([]byte(`{"run":{"n":4294967296,"lambda":4}}`))
	f.Add([]byte(`{"spec":{"scenario":"compress","sizes":[1000001]}}`))
	f.Add([]byte(`{"spec":{"scenario":"compress","lambdas":[2,3,4,5],"sizes":[1,2,3,4,5,6,7,8,9,10],"reps":2500}}`))
	f.Add([]byte(`{"spec":{"scenario":"compress","reps":9223372036854775807}}`))
	f.Add([]byte(`{"kind":"run","spec":{"scenario":"compress"}}`))
	f.Add([]byte(`{"run":{"n":1,"lambda":4}} {}`))
	f.Add([]byte(`{"run":{"n":10,"lambda":4,"iterations":2000000000,"snapshot_every":1}}`))
	f.Add([]byte(`{"run":{"n":10,"lambda":4,"iterations":100000,"snapshot_every":10}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeJobRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		tasks, err := req.normalize()
		if err != nil {
			return
		}
		switch {
		case req.Kind == KindRun && req.Run != nil && req.Spec == nil:
			if req.Run.N > maxSubmitN || tasks != 1 {
				t.Fatalf("accepted run n=%d as %d tasks", req.Run.N, tasks)
			}
			// The runner snapshots after every SnapshotEvery steps and
			// after a final partial interval, unless one interval covers
			// the whole budget.
			iters, every := req.Run.Iterations, req.Run.SnapshotEvery
			if every != 0 && every < iters && (iters-1)/every+1 > maxSubmitFrames {
				t.Fatalf("accepted a run of %d iterations snapshotting every %d", iters, every)
			}
		case req.Kind == KindSweep && req.Spec != nil && req.Run == nil:
			for _, n := range req.Spec.Sizes {
				if n > maxSubmitN {
					t.Fatalf("accepted sweep size %d", n)
				}
			}
			if n, err := experiment.TaskCount(*req.Spec); err != nil || n != tasks || n > maxSubmitTasks {
				t.Fatalf("accepted sweep of %d tasks (TaskCount %d, %v)", tasks, n, err)
			}
		default:
			t.Fatalf("accepted a request of kind %q with spec %v and run %v", req.Kind, req.Spec != nil, req.Run != nil)
		}
		canon, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("encoding an accepted request: %v", err)
		}
		again, err := decodeJobRequest(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("decoding an accepted request's encoding %s: %v", canon, err)
		}
		tasks2, err := again.normalize()
		if err != nil {
			t.Fatalf("renormalizing %s: %v", canon, err)
		}
		if recanon, _ := json.Marshal(again); !bytes.Equal(recanon, canon) || tasks2 != tasks {
			t.Fatalf("normalize is not a fixpoint:\n %s (%d tasks)\n %s (%d tasks)", canon, tasks, recanon, tasks2)
		}
	})
}
