package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// DigestVersion is folded into every spec digest: the digest hashes this
// line, a newline, and the canonical JSON of the normalized Spec. Bump it
// whenever the canonical Spec encoding, the task-seed derivation, the
// point-grid order, or any scenario's semantics change in a way that alters
// results: the bump retires every cached result at once instead of serving
// stale bytes.
const DigestVersion = "sops-experiment-digest-v1"

// Normalize returns the canonical form of spec: scenario defaults applied,
// empty axes filled, values validated — exactly what Run journals as the
// sweep's identity. Normalize is idempotent (FuzzSpecRoundTrip enforces the
// fixpoint), so the canonical Spec is a stable content address.
func Normalize(spec Spec) (Spec, error) {
	sc, err := lookup(spec.Scenario)
	if err != nil {
		return Spec{}, err
	}
	return spec.normalized(sc)
}

// Digest returns the content address of the experiment spec: a hex SHA-256
// over a versioned canonical JSON encoding of the normalized Spec. The
// normalized Spec determines the scenario, every axis value, the iteration
// budgets, and (through the seed-derivation contract) every task's RNG
// stream, so two specs with equal digests produce byte-identical
// PointSummaries; `sops serve` keys its result cache on this.
func Digest(spec Spec) (string, error) {
	norm, err := Normalize(spec)
	if err != nil {
		return "", err
	}
	canon, err := json.Marshal(norm)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	_, _ = io.WriteString(h, DigestVersion+"\n")
	_, _ = h.Write(canon)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// TaskCount returns the total number of (point, rep) tasks a spec returned
// by Normalize expands to: the product of its axis lengths and Reps,
// counted without building the point grid. It errors when the count
// overflows an int, or on an empty axis, which Normalize would have filled.
func TaskCount(norm Spec) (int, error) {
	// An empty rule axis means compression only.
	n := 1
	for _, k := range []int{len(norm.Lambdas), len(norm.Sizes), len(norm.Starts), len(norm.Engines),
		len(norm.CrashFractions), max(len(norm.Rules), 1), norm.Reps} {
		if k < 1 {
			return 0, fmt.Errorf("experiment: TaskCount needs a normalized spec")
		}
		if n > math.MaxInt/k {
			return 0, fmt.Errorf("experiment: the sweep's task count overflows an int")
		}
		n *= k
	}
	return n, nil
}

// MarshalCanonical returns the canonical JSON encoding of the normalized
// spec — the exact bytes the digest covers, useful for debugging cache
// misses ("why did these two specs hash differently?").
func MarshalCanonical(spec Spec) ([]byte, error) {
	norm, err := Normalize(spec)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(norm)
	if err != nil {
		return nil, fmt.Errorf("experiment: canonical encoding: %w", err)
	}
	return b, nil
}
