package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzSpecRoundTrip feeds arbitrary JSON into the Spec decoder and checks
// the canonicalization contract the serve cache rests on: Normalize is a
// fixpoint (normalizing a normalized spec changes nothing), the canonical
// encoding survives a JSON round trip byte-for-byte, and the digest is
// stable across raw spec, normalized spec, and round-tripped spec. Any
// drift here would silently split or poison cache entries.
func FuzzSpecRoundTrip(f *testing.F) {
	f.Add([]byte(`{"scenario":"compress"}`))
	f.Add([]byte(`{"scenario":"phase","lambdas":[0.5,4],"sizes":[10,20],"reps":3,"seed":7}`))
	f.Add([]byte(`{"scenario":"align","rules":["align"],"rule_states":3,"engines":["chain","kmc"]}`))
	f.Add([]byte(`{"scenario":"compress","rules":["compression"],"seed":18446744073709551615}`))
	f.Add([]byte(`{"scenario":"fault-tolerance","engines":["amoebot"],"crash_fractions":[0.25]}`))
	f.Add([]byte(`{"scenario":"compress","lambdas":[1e-9,6.02e23],"iterations":1,"snapshot_every":99}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if err := json.Unmarshal(data, &spec); err != nil {
			t.Skip()
		}
		norm, err := Normalize(spec)
		if err != nil {
			// Invalid specs must also fail identically on retry — a
			// validation flake would make Submit nondeterministic.
			if _, err2 := Normalize(spec); err2 == nil {
				t.Fatalf("Normalize flaked: first %v, then nil", err)
			}
			t.Skip()
		}

		// Fixpoint: normalizing the normalized spec is the identity.
		again, err := Normalize(norm)
		if err != nil {
			t.Fatalf("normalized spec failed to re-normalize: %v", err)
		}
		enc1, err := json.Marshal(norm)
		if err != nil {
			t.Fatalf("canonical encoding: %v", err)
		}
		enc2, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("Normalize not a fixpoint:\n%s\nvs\n%s", enc1, enc2)
		}

		// Encode → decode → normalize reproduces the same bytes: the
		// canonical form survives the wire.
		var rt Spec
		if err := json.Unmarshal(enc1, &rt); err != nil {
			t.Fatalf("canonical encoding does not decode: %v", err)
		}
		rtNorm, err := Normalize(rt)
		if err != nil {
			t.Fatalf("round-tripped spec failed to normalize: %v", err)
		}
		enc3, err := json.Marshal(rtNorm)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc3) {
			t.Fatalf("JSON round trip not a fixpoint:\n%s\nvs\n%s", enc1, enc3)
		}

		// Digest stability: raw, normalized, and round-tripped specs all
		// address the same cache entry.
		d1, err := Digest(spec)
		if err != nil {
			t.Fatalf("digest of valid spec: %v", err)
		}
		d2, err := Digest(norm)
		if err != nil {
			t.Fatal(err)
		}
		d3, err := Digest(rt)
		if err != nil {
			t.Fatal(err)
		}
		if d1 != d2 || d1 != d3 {
			t.Fatalf("digest unstable: %s / %s / %s", d1, d2, d3)
		}
		if len(d1) != 64 {
			t.Fatalf("digest %q is not hex SHA-256", d1)
		}

		// The canonical bytes are what the digest helper exposes.
		canon, err := MarshalCanonical(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, enc1) {
			t.Fatalf("MarshalCanonical differs from canonical encoding:\n%s\nvs\n%s", canon, enc1)
		}
	})
}

// FuzzJournal feeds arbitrary bytes to the journal reader as a stored
// journal.jsonl. openJournal must never panic, must load, in order,
// exactly those lines before the last newline that decode as a
// journalEntry and carry point, rep and seed, and must cut the file at its
// last newline, so a torn final line is dropped and the next append starts
// a line of its own.
func FuzzJournal(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"point":0,"rep":0,"seed":1,"metrics":{"perimeter":12,"alpha":1.5}}` + "\n"))
	f.Add([]byte(`{"point":0,"rep":1,"seed":2,"error":"boom"}` + "\n" + `{"point":1,"rep":0,"se`))
	f.Add([]byte("\n\n{}\nnull\n[1]\n\"x\"\n{\"point\":-3,\"extra\":true}\n"))
	f.Add([]byte(`{"point":null,"rep":0,"seed":1}` + "\n" + `{"point":0,"rep":0}` + "\n" + `{"POINT":0,"Rep":1,"seed":2}` + "\n"))
	f.Add([]byte(`{"point":0,"rep":0,"seed":1,"metrics":{"p":1e999}}` + "\n" + `{"point":2,"rep":0,"seed":3}` + "\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, JournalFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := openJournal(dir, Spec{Scenario: "compress"})
		if err != nil {
			t.Fatalf("openJournal: %v", err)
		}
		if err := j.close(); err != nil {
			t.Fatal(err)
		}
		keep := data[:bytes.LastIndexByte(data, '\n')+1]
		var want []journalEntry
		for _, line := range bytes.Split(keep, []byte{'\n'}) {
			var e journalEntry
			var key struct{ Point, Rep, Seed *json.RawMessage }
			if json.Unmarshal(line, &e) == nil && json.Unmarshal(line, &key) == nil &&
				key.Point != nil && key.Rep != nil && key.Seed != nil {
				want = append(want, e)
			}
		}
		if !reflect.DeepEqual(j.entries, want) {
			t.Fatalf("loaded entries %+v, want %+v", j.entries, want)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, keep) {
			t.Fatalf("journal left as %q, want the input cut at its last newline, %q", got, keep)
		}
	})
}
