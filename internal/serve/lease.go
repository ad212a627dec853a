package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The lease layer: raft-free work claiming over the shared store.
//
// Cluster nodes coordinate exclusively through lease files under
// <dir>/leases/ — no sockets, no consensus. A lease is claimed by
// hard-linking a fully written file to its path (the filesystem arbitrates
// exactly one winner), kept alive by bumping the file's mtime every
// heartbeat, and considered expired once the mtime is older than the TTL.
// Any node may reclaim an expired lease: it renames the file to a private
// tombstone (rename is atomic, so concurrent stealers race on the rename
// and exactly one wins), double-checks the tombstone is still stale, and
// recreates the lease under its own ownership. An owner discovers it lost
// its lease when the next mtime renewal fails with ENOENT — at which point
// it must stop writing to the store on that workload's behalf.
//
// Two lease families share the directory:
//
//	job-<id>.lease      who drives job <id>'s lifecycle (claims, record
//	                    writes, stream mirroring)
//	dig-<digest16>.lease who may simulate the workload behind a digest —
//	                    the cluster-wide single-flight lock; waiters poll
//	                    the COMPLETE marker instead of simulating
//	job-<id>.cancel     cross-node cancel request; the owner's heartbeat
//	                    polls for it
//
// Correctness does not hinge on perfectly exclusive execution: workloads
// are deterministic and content-addressed, journal appends are line-atomic
// and replay-deduplicated, and the COMPLETE marker is published by atomic
// rename — so even the unavoidable lease-protocol race (an owner paused
// longer than its TTL while a stealer resumes the job) converges to one
// byte-identical result. The leases exist to make duplicated work rare,
// not to make it unsafe. DESIGN.md covers the timing argument.

// leaseVersion versions the lease file encoding; parseLease rejects files
// from a different protocol generation so a mixed-version cluster fails
// loudly instead of misreading ownership.
const leaseVersion = "sops-lease-v1"

// leaseRecord is the JSON content of a lease file. Freshness is carried by
// the file's mtime, not by a field: renewals are a single utimes call and
// never rewrite content another node may be reading.
type leaseRecord struct {
	Version string `json:"v"`
	// Owner is the node id holding the lease.
	Owner string `json:"owner"`
	// ID names what the lease guards: a job id (job- leases) or a digest
	// key (dig- leases).
	ID string `json:"id"`
	// AcquiredAt records when this ownership began (informational; expiry
	// uses the mtime).
	AcquiredAt time.Time `json:"acquired_at"`
}

// parseLease decodes and validates a lease file's bytes. It is the fuzzed
// surface: arbitrary store corruption must come back as an error, never a
// half-valid record.
func parseLease(raw []byte) (leaseRecord, error) {
	var rec leaseRecord
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return leaseRecord{}, fmt.Errorf("serve: corrupt lease: %w", err)
	}
	// A second JSON document after the first means two writers interleaved
	// non-atomically; the file is untrustworthy.
	if dec.More() {
		return leaseRecord{}, errors.New("serve: corrupt lease: trailing data")
	}
	if rec.Version != leaseVersion {
		return leaseRecord{}, fmt.Errorf("serve: lease version %q, want %q", rec.Version, leaseVersion)
	}
	if rec.Owner == "" {
		return leaseRecord{}, errors.New("serve: lease has no owner")
	}
	if rec.ID == "" {
		return leaseRecord{}, errors.New("serve: lease has no id")
	}
	return rec, nil
}

// acquireLease atomically creates the lease file, claiming it for owner.
// false means another node holds it (or a filesystem error intervened —
// claiming is always safe to retry on the next scan). The record is
// written to a private file first and hard-linked into place: the link
// fails if the lease exists, as O_EXCL would, but no node can ever read the
// lease empty — an empty lease parses as corrupt, and a corrupt lease is
// reclaimed at once, which would hand it to a second owner.
func acquireLease(path, owner, id string) bool {
	raw, err := json.Marshal(leaseRecord{
		Version:    leaseVersion,
		Owner:      owner,
		ID:         id,
		AcquiredAt: time.Now().UTC(),
	})
	if err != nil {
		return false
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".new-*")
	if err != nil {
		return false
	}
	defer os.Remove(f.Name())
	if err = f.Chmod(0o644); err == nil {
		_, err = f.Write(append(raw, '\n'))
	}
	if cerr := f.Close(); err != nil || cerr != nil {
		return false
	}
	return os.Link(f.Name(), path) == nil
}

// readLease loads a lease file with its freshness timestamp. ok is false
// when the file is missing or unparseable — an unparseable lease is
// reported stale by callers and reclaimed, which heals corruption.
func readLease(path string) (rec leaseRecord, mtime time.Time, ok bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return leaseRecord{}, time.Time{}, false
	}
	rec, err = parseLease(raw)
	if err != nil {
		return leaseRecord{}, time.Time{}, false
	}
	st, err := os.Stat(path)
	if err != nil {
		return leaseRecord{}, time.Time{}, false
	}
	return rec, st.ModTime(), true
}

// renewLease bumps the lease's mtime iff owner still holds it. false means
// the lease was lost (stolen, released, or corrupted) and the caller must
// stop acting as owner.
func renewLease(path, owner string) bool {
	rec, _, ok := readLease(path)
	if !ok || rec.Owner != owner {
		return false
	}
	now := time.Now()
	return os.Chtimes(path, now, now) == nil
}

// releaseLease removes the lease iff owner holds it; releasing a lease that
// was already stolen is a no-op (the thief owns the file now).
func releaseLease(path, owner string) {
	rec, _, ok := readLease(path)
	if !ok || rec.Owner != owner {
		return
	}
	_ = os.Remove(path)
}

// leaseExpired reports whether the lease at path exists and is stale:
// either unparseable (corruption heals by reclaim), or untouched for
// longer than ttl. Absent leases are not expired — they are acquired.
func leaseExpired(path string, ttl time.Duration) bool {
	st, err := os.Stat(path)
	if err != nil {
		return false
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	if _, perr := parseLease(raw); perr != nil {
		return true
	}
	return time.Since(st.ModTime()) > ttl
}

// reclaimLease steals an expired lease. The atomic rename to a per-node
// tombstone arbitrates concurrent stealers: exactly one rename succeeds and
// the losers see ENOENT. After the rename the stealer re-checks staleness —
// if the owner renewed in the read/rename window, the tombstone is moved
// back and the steal aborts. On success the path is free and the caller
// acquires it normally. Returns true when the path was freed by this call.
func reclaimLease(path, self string, ttl time.Duration) bool {
	_, mtime, ok := readLease(path)
	if ok && time.Since(mtime) <= ttl {
		return false // fresh: owner is alive
	}
	if !ok {
		// Missing file: nothing to reclaim. Corrupt-but-present files fall
		// through to the rename below via the stat check.
		if _, err := os.Stat(path); err != nil {
			return false
		}
	}
	tomb := path + ".reclaim-" + self
	if err := os.Rename(path, tomb); err != nil {
		return false // another stealer (or the owner's release) got there first
	}
	if st, err := os.Stat(tomb); err == nil && ok && time.Since(st.ModTime()) <= ttl {
		// The owner renewed between our read and the rename: give it back.
		// If the rename-back fails the owner will observe lease loss on its
		// next renewal and re-queue the job — safe, just slower.
		_ = os.Rename(tomb, path)
		return false
	}
	_ = os.Remove(tomb)
	return true
}

// Lease-file path helpers on the manager.

func (m *Manager) leaseDir() string { return filepath.Join(m.dir, "leases") }

func (m *Manager) jobLeasePath(id string) string {
	return filepath.Join(m.leaseDir(), "job-"+id+".lease")
}

func (m *Manager) digLeasePath(digest string) string {
	return filepath.Join(m.leaseDir(), "dig-"+digest[:16]+".lease")
}

func (m *Manager) cancelMarkPath(id string) string {
	return filepath.Join(m.leaseDir(), "job-"+id+".cancel")
}

// mirrorPath is the live binary frame log of one job: every record the
// owning node publishes is appended here, and non-owner nodes serve
// /stream by tailing it. Cluster mode only. The .bin suffix also fences
// off .ndjson mirrors left by pre-codec builds, which would misparse as
// uvarint-framed records.
func (m *Manager) mirrorPath(id string) string {
	return filepath.Join(m.dir, "frames", id+".bin")
}
