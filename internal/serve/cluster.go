package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"sops/internal/frame"
)

// Cluster-mode machinery: the claim scanner, the lease heartbeat, the
// cross-node frame tailer, and the digest single-flight. Everything here
// coordinates purely through the shared store — lease files, job records,
// frame mirrors — so "a cluster" is nothing more than several managers
// opened over one directory with distinct node IDs. lease.go holds the
// lease protocol itself; DESIGN.md the correctness argument.

// scanLoop periodically sweeps the store, claiming free pending jobs and
// stealing expired leases from dead nodes. One immediate sweep at start
// lets a freshly joined node pick up a backlog without waiting a tick.
func (m *Manager) scanLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.scanEvery)
	defer t.Stop()
	for {
		m.scanOnce()
		select {
		case <-m.ctx.Done():
			return
		case <-t.C:
		}
	}
}

func (m *Manager) scanOnce() {
	entries, err := os.ReadDir(filepath.Join(m.dir, "jobs"))
	if err != nil {
		return
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, strings.TrimSuffix(e.Name(), ".json"))
		}
	}
	sort.Strings(names) // oldest submissions first
	for _, id := range names {
		if m.ctx.Err() != nil || m.killed.Load() {
			return
		}
		m.considerJob(id)
	}
}

// considerJob claims one store job for local execution if it is free (or
// its owner is dead). The lease file is the sole arbiter: every path to
// execution goes through acquireLease, so two nodes can never both claim.
func (m *Manager) considerJob(id string) {
	h, ok := m.lookup(id)
	if !ok {
		return
	}
	h.mu.Lock()
	if h.leased || terminal(h.job.State) {
		h.mu.Unlock()
		return // already ours, or already settled locally
	}
	h.mu.Unlock()
	job, err := m.readRecord(id)
	if err != nil {
		return
	}
	if terminal(job.State) {
		m.adoptRecord(h, job)
		return
	}
	lease := m.jobLeasePath(id)
	claimed, stolen := false, false
	switch job.State {
	case StatePending:
		if acquireLease(lease, m.nodeID, id) {
			claimed = true
		} else if leaseExpired(lease, m.leaseTTL) &&
			reclaimLease(lease, m.nodeID, m.leaseTTL) &&
			acquireLease(lease, m.nodeID, id) {
			// A claimer died between acquiring and finishing the job.
			claimed, stolen = true, true
		}
	case StateRunning:
		// A running record with a live lease is another node's job; with a
		// dead (or absent — crash between writes) lease it is ours to
		// steal and resume from the journal.
		if rec, mtime, ok := readLease(lease); ok {
			switch {
			case rec.Owner == m.nodeID && time.Since(mtime) <= m.leaseTTL:
				// Our own lease from a previous incarnation of this node
				// id. Nothing in this process runs the job, so the
				// heartbeat is ours to revoke: take the job back now
				// rather than waiting out our own TTL.
				releaseLease(lease, m.nodeID)
			case time.Since(mtime) <= m.leaseTTL:
				return // live owner elsewhere
			default:
				if !reclaimLease(lease, m.nodeID, m.leaseTTL) {
					return // the owner revived, or another stealer won
				}
			}
		} else if _, err := os.Stat(lease); err == nil {
			// Present but unparseable: corruption heals by reclaim.
			if !reclaimLease(lease, m.nodeID, m.leaseTTL) {
				return
			}
		}
		if !acquireLease(lease, m.nodeID, id) {
			return
		}
		claimed, stolen = true, true
		job.State = StatePending
		job.StartedAt = nil
		job.Owner = ""
	default:
		return
	}
	if !claimed {
		return
	}
	// The record read above may predate its owner finishing the job and
	// releasing the lease we just took. Owners write the terminal record
	// before releasing, so a re-read now is definitive.
	if cur, err := m.readRecord(id); err == nil && terminal(cur.State) {
		releaseLease(lease, m.nodeID)
		m.adoptRecord(h, cur)
		return
	}
	if stolen {
		m.add("leases_stolen", 1)
	} else {
		m.add("leases_claimed", 1)
	}
	m.markClaimed(h, &job)
	if !m.enqueue(h) {
		// Local pool saturated: hand the job back to the cluster rather
		// than sitting on a lease we will not service.
		m.unclaim(h)
	}
}

// markClaimed flips a handle to locally-owned execution state. The caller
// holds the job's lease. A nil job keeps the handle's current record (the
// submit fast path); the scanner passes the record it just read. When a
// tailer already feeds the local stream from the mirror, execution
// publishes through a detached mirror-only stream so local followers see
// each frame exactly once.
func (m *Manager) markClaimed(h *handle, job *Job) {
	h.mu.Lock()
	h.leased = true
	h.remote = false
	h.leaseLost = false
	h.canceled = false
	if job != nil {
		h.job = *job
	}
	if h.tailing {
		if h.pub == h.stream {
			h.pub = newStream()
		}
	} else {
		h.pub = h.stream
	}
	h.mu.Unlock()
}

// unclaim releases a claimed-but-unqueued job back to the cluster.
func (m *Manager) unclaim(h *handle) {
	h.mu.Lock()
	h.leased = false
	h.remote = true
	id := h.job.ID
	h.mu.Unlock()
	releaseLease(m.jobLeasePath(id), m.nodeID)
}

// enqueue offers a claimed handle to the local pool without blocking.
func (m *Manager) enqueue(h *handle) bool {
	select {
	case m.queue <- h:
		return true
	default:
		return false
	}
}

// lookup resolves a job ID to its handle, registering store jobs this node
// has not seen yet (cluster mode) so any node answers for any job.
func (m *Manager) lookup(id string) (*handle, bool) {
	m.mu.Lock()
	h, ok := m.jobs[id]
	m.mu.Unlock()
	if ok {
		return h, true
	}
	if !m.cluster() || !validJobID(id) {
		return nil, false
	}
	job, err := m.readRecord(id)
	if err != nil {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.jobs[id]; ok {
		return h, true // lost a registration race
	}
	h = &handle{job: job, stream: newStream()}
	h.pub = h.stream
	if terminal(job.State) {
		h.coldStream = true
	} else {
		h.remote = true
	}
	m.jobs[id] = h
	m.order = append(m.order, id)
	sort.Strings(m.order)
	if n := idSeq(id); n >= m.seq {
		m.seq = n + 1
	}
	return h, true
}

// readRecord loads a job record straight from the store. Records are
// written by atomic rename, so a successful read is never torn. A record
// whose request this binary cannot fully read comes back failed
// (decodeRecord), so the claim path settles it instead of running it.
func (m *Manager) readRecord(id string) (Job, error) {
	raw, err := os.ReadFile(m.recordPath(id))
	if err != nil {
		return Job{}, err
	}
	job, _, err := decodeRecord(raw)
	if err != nil {
		return Job{}, fmt.Errorf("serve: corrupt job record %s: %w", id, err)
	}
	if job.ID != id {
		return Job{}, fmt.Errorf("serve: job record %s names id %q", id, job.ID)
	}
	return job, nil
}

// heartbeatLoop renews the executing node's leases every beat and watches
// for cross-node cancel markers. Losing the job lease cancels the
// execution immediately: the stealer owns the record now, and every
// further local write would fight it.
func (m *Manager) heartbeatLoop(ctx context.Context, cancel context.CancelFunc, h *handle, id string, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(m.heartbeat)
	defer t.Stop()
	lease := m.jobLeasePath(id)
	mark := m.cancelMarkPath(id)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if m.killed.Load() {
			return // a crashed node heartbeats nothing
		}
		if !renewLease(lease, m.nodeID) {
			h.mu.Lock()
			h.leaseLost = true
			h.mu.Unlock()
			cancel()
			return
		}
		m.add("lease_renewals", 1)
		h.mu.Lock()
		dig := h.digLease
		h.mu.Unlock()
		if dig != "" {
			// The digest lease shares the job's heartbeat; if it was
			// stolen the job lease loss (same dead-node horizon) is what
			// stops us, so a failed digest renewal alone is not fatal.
			_ = renewLease(dig, m.nodeID)
		}
		if _, err := os.Stat(mark); err == nil {
			h.mu.Lock()
			h.canceled = true
			h.mu.Unlock()
			cancel()
			return
		}
	}
}

// acquireDigestFlight takes the cluster-wide single-flight lease for a
// workload digest. It blocks until this node either holds the lease
// (returns true — simulate) or observes the workload's COMPLETE marker
// (returns false — serve from cache). A dead holder's lease is reclaimed
// after the TTL, so the flight always makes progress.
func (m *Manager) acquireDigestFlight(ctx context.Context, h *handle, digest, dir string) (bool, error) {
	path := m.digLeasePath(digest)
	for {
		// Completion first: a finished holder writes COMPLETE before
		// releasing its lease, so acquiring before looking would let a
		// waiter win the just-released lease and re-simulate a workload
		// that is already served.
		if _, ok := readCompletion(dir, digest); ok {
			return false, nil
		}
		if acquireLease(path, m.nodeID, digest[:16]) {
			// The same release race on the acquire itself: re-check now
			// that we hold the lease. COMPLETE-before-release ordering
			// makes this check definitive.
			if _, ok := readCompletion(dir, digest); ok {
				releaseLease(path, m.nodeID)
				return false, nil
			}
			h.mu.Lock()
			h.digLease = path
			h.mu.Unlock()
			return true, nil
		}
		if leaseExpired(path, m.leaseTTL) && reclaimLease(path, m.nodeID, m.leaseTTL) {
			continue
		}
		select {
		case <-ctx.Done():
			return false, ctx.Err()
		case <-time.After(m.heartbeat):
		}
	}
}

// releaseDigestFlight returns the digest lease. A killed (crash-simulated)
// manager leaves it to expire, exactly as a real crash would.
func (m *Manager) releaseDigestFlight(h *handle, digest string) {
	h.mu.Lock()
	path := h.digLease
	h.digLease = ""
	h.mu.Unlock()
	if path != "" && !m.killed.Load() {
		releaseLease(path, m.nodeID)
	}
}

// --- frame mirroring -------------------------------------------------------

// doneFramePrefix identifies a terminal frame line without decoding it:
// Frame marshals Type first, so every done frame starts exactly like this.
var doneFramePrefix = []byte(`{"type":"done"`)

func isDoneFrameLine(line []byte) bool { return bytes.HasPrefix(line, doneFramePrefix) }

// isDoneRecord reports whether a framed record carries a terminal frame.
// Done frames are always published through the JSON path, so they are raw
// records; snapshot records can never be terminal.
func isDoneRecord(rec []byte) bool {
	line, ok := frame.RawBody(rec)
	return ok && isDoneFrameLine(line)
}

// openMirror opens (creating if needed) a job's frame mirror for append
// and returns how many complete records it already holds — the Seq base a
// resuming owner continues from. A torn last record (its writer died
// mid-append) is cut off first, or it would swallow the head of the next
// record appended. A mirror left empty gets the frame-log header.
func (m *Manager) openMirror(id string) (*os.File, int, error) {
	f, err := os.OpenFile(m.mirrorPath(id), os.O_CREATE|os.O_APPEND|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(f)
	recs, size := frame.Count(raw)
	if err == nil && size < len(raw) {
		err = f.Truncate(int64(size))
	}
	if err == nil && size == 0 {
		_, err = f.Write(frame.Header())
	}
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, recs, nil
}

// mirrorDone appends a terminal frame to a job's mirror outside any
// execution — the cancel-before-start paths, where no mirror is attached
// but cross-node followers still need their stream to end.
func (m *Manager) mirrorDone(id string, f Frame) {
	g, recs, err := m.openMirror(id)
	if err != nil {
		return
	}
	defer g.Close()
	f.Seq = recs
	if line, err := json.Marshal(f); err == nil {
		_, _ = g.Write(frame.Raw(line))
	}
}

// replayMirror publishes a job's stored mirror records into st, returning
// how many records it replayed and whether one was a terminal frame. A
// truncated tail (owner died mid-append) is dropped.
func (m *Manager) replayMirror(st *stream, id string) (int, bool) {
	raw, err := os.ReadFile(m.mirrorPath(id))
	if err != nil || len(raw) == 0 {
		return 0, false
	}
	n, sawDone := 0, false
	for _, rec := range splitTolerant(raw) {
		st.publishRecord(rec)
		n++
		if isDoneRecord(rec) {
			sawDone = true
		}
	}
	return n, sawDone
}

// tailMirror follows a remote job's frame mirror, feeding the local
// broadcast stream until a terminal frame arrives. However many local
// followers watch the job, one tailer (and one open file) serves them all.
// It also absorbs every owner-death shape: no mirror ever appearing for an
// already-terminal record (pre-cluster store) falls back to the workspace
// history, and a terminal record whose mirror stays quiet past the lease
// TTL — the owner died between its last frame and its done frame, and
// nobody needed to resume — is closed with a synthesized terminal frame.
func (m *Manager) tailMirror(st *stream, id string) {
	defer st.close()
	path := m.mirrorPath(id)
	var f *os.File
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	poll := m.scanEvery / 4
	if poll < 5*time.Millisecond {
		poll = 5 * time.Millisecond
	}
	var sc frame.Scanner
	chunk := make([]byte, 64<<10)
	var idle time.Duration
	for {
		progressed := false
		if f == nil {
			f, _ = os.Open(path)
		}
		if f != nil {
			for {
				n, err := f.Read(chunk)
				if n > 0 {
					sc.Write(chunk[:n])
					progressed = true
				}
				if err != nil {
					break // EOF: caught up; poll again later
				}
			}
			for {
				rec, ok := sc.Next()
				if !ok {
					break // keep the partial record until the rest lands
				}
				st.publishRecord(rec)
				if isDoneRecord(rec) {
					return
				}
			}
		}
		if progressed {
			idle = 0
		} else {
			idle += poll
			if job, err := m.readRecord(id); err == nil && terminal(job.State) {
				if f == nil {
					if job.Kind == KindRun {
						m.replayStoredFrames(st, &job)
					}
					st.publish(Frame{Type: FrameDone, State: job.State, Error: job.Error, CacheHit: job.CacheHit})
					return
				}
				if idle > m.leaseTTL {
					st.publish(Frame{Type: FrameDone, State: job.State, Error: job.Error, CacheHit: job.CacheHit})
					return
				}
			}
		}
		select {
		case <-m.ctx.Done():
			return
		case <-time.After(poll):
		}
	}
}

// cancelRemote cancels a job this node does not own. A still-pending job
// is claimed and cancelled here (the lease makes that race-free); a
// running one gets a cancel marker that the owner's heartbeat honors
// within one beat.
func (m *Manager) cancelRemote(h *handle, id string) (Job, error) {
	job, err := m.readRecord(id)
	if os.IsNotExist(err) {
		return Job{}, fmt.Errorf("serve: %w %q", errUnknownJob, id)
	}
	if err != nil {
		return Job{}, err
	}
	if terminal(job.State) {
		m.adoptRecord(h, job)
		return job, nil
	}
	lease := m.jobLeasePath(id)
	if job.State == StatePending && acquireLease(lease, m.nodeID, id) {
		m.add("leases_claimed", 1)
		now := time.Now().UTC()
		job.State = StateCanceled
		job.FinishedAt = &now
		if err := m.writeRecord(job); err == nil {
			m.adoptRecord(h, job)
			m.mirrorDone(id, Frame{Type: FrameDone, State: StateCanceled})
			m.add("jobs_canceled", 1)
		}
		releaseLease(lease, m.nodeID)
		return job, nil
	}
	_ = os.WriteFile(m.cancelMarkPath(id), []byte(m.nodeID+"\n"), 0o644)
	j, _ := m.Job(id)
	return j, nil
}
