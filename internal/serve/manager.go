package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sops/internal/experiment"
	"sops/internal/frame"
	"sops/internal/runner"
)

// framesFile is the binary frame log persisted in a run job's workspace:
// a frame.Header followed by the run's snapshot records verbatim.
const framesFile = "frames.bin"

// Options configures a Manager (and through it a Server).
type Options struct {
	// Dir is the store directory: job records, journals, and cached
	// results live there, and a manager reopened over the same directory
	// resumes its incomplete jobs. Required.
	Dir string
	// Jobs bounds how many jobs execute concurrently (the job-level worker
	// pool); values < 1 mean 2.
	Jobs int
	// TaskWorkers is the per-sweep worker pool handed to experiment.Run;
	// values < 1 mean GOMAXPROCS.
	TaskWorkers int
	// QueueDepth bounds the pending-job queue; Submit sheds (ErrBusy) once
	// it is full in single-node mode, and leaves the job for the cluster
	// to claim in cluster mode. Values < 1 mean 256.
	QueueDepth int

	// NodeID, when non-empty, turns on cluster mode: this node claims
	// pending jobs from the shared store via lease files, heartbeats the
	// leases it holds, steals expired leases from dead nodes, mirrors its
	// frame streams into the store, and answers reads for any job in the
	// store — not just its own. Several processes (or in-process managers)
	// with distinct NodeIDs over one Dir form a cluster. NodeIDs may use
	// letters, digits, '.', '_' and '-'.
	NodeID string
	// LeaseTTL is how stale a lease's heartbeat may grow before any node
	// may reclaim it — the crash-detection horizon. It must comfortably
	// exceed Heartbeat (a TTL below ~4 heartbeats risks spurious steals
	// under scheduling jitter). Values ≤ 0 mean 10s.
	LeaseTTL time.Duration
	// Heartbeat is how often an executing node renews its leases. Values
	// ≤ 0 mean LeaseTTL/4.
	Heartbeat time.Duration
	// ScanEvery is how often the claim scanner sweeps the store for
	// pending jobs and expired leases. Values ≤ 0 mean LeaseTTL/2.
	ScanEvery time.Duration

	// MaxActive caps the non-terminal jobs this node tracks from its own
	// submissions; beyond it Submit sheds with ErrBusy (HTTP 429). 0 means
	// unlimited.
	MaxActive int
	// ClientQuota caps the non-terminal jobs any one client (the
	// X-Sops-Client header) may have in flight through this node; beyond
	// it Submit sheds with ErrQuota (HTTP 429). 0 means unlimited.
	ClientQuota int

	// Pprof mounts net/http/pprof under /debug/pprof/ on the HTTP server
	// (`sops serve -pprof`). Off by default; the Manager itself ignores it.
	Pprof bool
}

// handle pairs a job record with its execution state.
type handle struct {
	mu     sync.Mutex
	job    Job
	stream *stream
	// pub is the stream executions publish to. Normally pub == stream; when
	// a cross-node tailer is already feeding stream, pub is a detached
	// mirror-only stream so frames reach local followers exactly once
	// (through the store).
	pub *stream
	// cancel interrupts the running job; nil until execution starts.
	cancel context.CancelFunc
	// canceled records a client cancellation (vs a server shutdown).
	canceled bool
	// coldStream marks a terminal job whose frame history lives in the
	// store, not in memory — set for jobs recovered from a previous
	// process and for completed run jobs once their frames are persisted.
	// The first Stream call hydrates it, so neither restart cost nor
	// resident memory scales with the store's history.
	coldStream bool

	// Cluster state (single-node managers never set these).

	// leased: this node holds the job's lease and drives its lifecycle.
	leased bool
	// remote: the job is not (or no longer) executed here — record reads
	// go to the store and streams to the mirror tailer.
	remote bool
	// tailing: a tailer goroutine is feeding stream from the store mirror.
	tailing bool
	// leaseLost: the heartbeat observed our lease stolen; the stealer owns
	// the record and mirror now.
	leaseLost bool
	// digLease is the digest-lease path held while simulating this job's
	// workload (renewed by the heartbeat), empty otherwise.
	digLease string
	// counted/settled track the submission-side quota slot.
	counted bool
	settled bool

	// persistMu serializes record writes against Delete. deleted, guarded
	// by it, is set once Delete removed the record, so a persist still in
	// flight cannot write the record back.
	persistMu sync.Mutex
	deleted   bool
}

// locked views and updates; callers hold h.mu or use these helpers.

func (h *handle) view() Job {
	h.mu.Lock()
	defer h.mu.Unlock()
	j := h.job
	j.Frames = h.stream.len()
	return j
}

func (h *handle) pubStream() *stream {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.pub
}

// Manager owns the job table, the bounded execution pool, and the store.
type Manager struct {
	dir         string
	taskWorkers int

	nodeID    string
	leaseTTL  time.Duration
	heartbeat time.Duration
	scanEvery time.Duration

	maxActive   int
	clientQuota int

	ctx    context.Context
	stop   context.CancelFunc
	queue  chan *handle
	wg     sync.WaitGroup
	closed chan struct{}
	// killed simulates a crash (fault-injection tests): goroutines stop
	// with no shutdown bookkeeping at all.
	killed atomic.Bool

	mu      sync.Mutex
	jobs    map[string]*handle
	order   []string // submission order, for listing
	seq     int
	closing bool
	// digestLocks single-flights execution per content digest so two
	// identical jobs never race one journal; the loser rechecks the cache
	// and replays. In cluster mode the digest lease extends the same
	// guarantee across nodes.
	digestLocks map[string]*sync.Mutex
	// active tracks the non-terminal jobs submitted through this node, per
	// client quota key; activeTotal is their sum (admission control).
	active      map[string]int
	activeTotal int

	// counters back /metrics. tasksRun is the work counter the cache
	// tests assert against: it moves only when a simulation task actually
	// executes.
	counters *expvar.Map
	tasksRun *expvar.Int
}

// cluster reports whether this manager runs in cluster mode.
func (m *Manager) cluster() bool { return m.nodeID != "" }

// Open loads (or initializes) a store directory, requeues every incomplete
// job found in it — the crash-recovery path; in cluster mode claiming goes
// through the lease scanner instead — and starts the execution pool.
func Open(opt Options) (*Manager, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("serve: Options.Dir is required")
	}
	if opt.NodeID != "" && !validNodeID(opt.NodeID) {
		return nil, fmt.Errorf("serve: invalid node id %q (letters, digits, '.', '_', '-'; max 64 chars)", opt.NodeID)
	}
	if opt.Jobs < 1 {
		opt.Jobs = 2
	}
	if opt.TaskWorkers < 1 {
		opt.TaskWorkers = runtime.GOMAXPROCS(0)
	}
	if opt.QueueDepth < 1 {
		opt.QueueDepth = 256
	}
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = 10 * time.Second
	}
	if opt.Heartbeat <= 0 {
		opt.Heartbeat = opt.LeaseTTL / 4
	}
	if opt.ScanEvery <= 0 {
		opt.ScanEvery = opt.LeaseTTL / 2
	}
	subs := []string{"jobs", "exp", "run"}
	if opt.NodeID != "" {
		subs = append(subs, "leases", "frames")
	}
	for _, sub := range subs {
		if err := os.MkdirAll(filepath.Join(opt.Dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("serve: creating store: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		dir:         opt.Dir,
		taskWorkers: opt.TaskWorkers,
		nodeID:      opt.NodeID,
		leaseTTL:    opt.LeaseTTL,
		heartbeat:   opt.Heartbeat,
		scanEvery:   opt.ScanEvery,
		maxActive:   opt.MaxActive,
		clientQuota: opt.ClientQuota,
		ctx:         ctx,
		stop:        cancel,
		closed:      make(chan struct{}),
		jobs:        map[string]*handle{},
		digestLocks: map[string]*sync.Mutex{},
		active:      map[string]int{},
		counters:    new(expvar.Map).Init(),
	}
	m.tasksRun = new(expvar.Int)
	m.counters.Set("tasks_run", m.tasksRun)
	for _, name := range []string{
		"jobs_submitted", "jobs_completed", "jobs_failed", "jobs_canceled",
		"cache_hits", "snapshots_streamed",
		"leases_claimed", "leases_stolen", "lease_renewals", "requests_shed",
	} {
		m.counters.Set(name, new(expvar.Int))
	}

	recovered, err := m.loadRecords()
	if err != nil {
		cancel()
		return nil, err
	}
	// The queue must hold every recovered job plus headroom, or recovery
	// would deadlock before the pool starts.
	m.queue = make(chan *handle, opt.QueueDepth+len(recovered))
	for _, h := range recovered {
		m.queue <- h
	}
	for i := 0; i < opt.Jobs; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	if m.cluster() {
		m.wg.Add(1)
		go m.scanLoop()
	}
	return m, nil
}

// loadRecords scans jobs/*.json, rebuilding the in-memory table. In
// single-node mode, jobs left pending or running by a previous process are
// reset to pending and returned for requeueing — their journals resume
// exactly like `sops resume` — and a job whose stored request this binary
// cannot fully read is persisted failed instead (decodeRecord). In cluster
// mode nothing is requeued or written here: non-terminal jobs keep their
// on-disk state and ownership flows through the lease scanner, which
// claims what is free and steals what is stale.
func (m *Manager) loadRecords() ([]*handle, error) {
	entries, err := os.ReadDir(filepath.Join(m.dir, "jobs"))
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // IDs are zero-padded, so this is submission order
	var requeue []*handle
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(m.dir, "jobs", name))
		if err != nil {
			return nil, err
		}
		job, refused, err := decodeRecord(raw)
		if err != nil {
			return nil, fmt.Errorf("serve: corrupt job record %s: %w", name, err)
		}
		if refused && !m.cluster() {
			if err := m.writeRecord(job); err != nil {
				return nil, fmt.Errorf("serve: failing job record %s: %w", name, err)
			}
			m.add("jobs_failed", 1)
		}
		h := &handle{job: job, stream: newStream()}
		h.pub = h.stream
		switch {
		case terminal(job.State):
			// Finished before the restart: the stream replays the stored
			// frames and terminal frame lazily, on first request.
			h.coldStream = true
		case m.cluster():
			h.remote = true
		default:
			h.job.State = StatePending
			h.job.StartedAt = nil
			requeue = append(requeue, h)
		}
		m.jobs[job.ID] = h
		m.order = append(m.order, job.ID)
		if n := idSeq(job.ID); n >= m.seq {
			m.seq = n + 1
		}
	}
	return requeue, nil
}

// Submit validates, records, and enqueues a job with no client quota key.
func (m *Manager) Submit(req JobRequest) (Job, error) { return m.SubmitAs(req, "") }

// SubmitAs validates, records, and enqueues a job on behalf of a client
// quota key. The returned Job is the accepted record (state pending). It
// sheds with ErrBusy when the node is at capacity and ErrQuota when the
// client is over its per-client limit.
func (m *Manager) SubmitAs(req JobRequest, client string) (Job, error) {
	tasks, err := req.normalize()
	if err != nil {
		return Job{}, err
	}
	digest, err := jobDigest(req)
	if err != nil {
		return Job{}, err
	}
	job := Job{
		Kind:        req.Kind,
		State:       StatePending,
		Digest:      digest,
		Request:     req,
		Client:      client,
		SubmittedAt: time.Now().UTC(),
		TasksTotal:  tasks,
	}
	h := &handle{stream: newStream()}
	h.pub = h.stream

	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return Job{}, fmt.Errorf("serve: manager is shutting down")
	}
	if m.maxActive > 0 && m.activeTotal >= m.maxActive {
		m.mu.Unlock()
		m.add("requests_shed", 1)
		return Job{}, fmt.Errorf("%w (%d active jobs)", ErrBusy, m.maxActive)
	}
	if m.clientQuota > 0 && m.active[client] >= m.clientQuota {
		m.mu.Unlock()
		m.add("requests_shed", 1)
		return Job{}, fmt.Errorf("%w (client %q, %d active jobs)", ErrQuota, client, m.clientQuota)
	}
	job.ID = fmt.Sprintf("j%08d", m.seq)
	if m.cluster() {
		// Node-scoped IDs: two nodes allocating concurrently over one
		// store must never collide on a record path.
		job.ID += "-" + m.nodeID
	}
	m.seq++
	m.active[client]++
	m.activeTotal++
	h.job = job
	h.counted = true
	h.remote = m.cluster() // until this node claims the lease below
	m.jobs[job.ID] = h
	m.order = append(m.order, job.ID)
	m.mu.Unlock()

	if err := m.persist(h); err != nil {
		// An unpersistable job must not linger pending in the table: it
		// was never enqueued and would list (and stream) forever.
		m.withdraw(h)
		return Job{}, err
	}
	if m.cluster() {
		// Fast path: claim our own submission. Losing the race (another
		// node's scanner got there first) or a full local queue is fine —
		// the job stays pending in the store and any node's scanner picks
		// it up.
		if acquireLease(m.jobLeasePath(job.ID), m.nodeID, job.ID) {
			m.add("leases_claimed", 1)
			m.markClaimed(h, nil)
			if !m.enqueue(h) {
				m.unclaim(h)
			}
		}
		m.add("jobs_submitted", 1)
		return h.view(), nil
	}
	select {
	case m.queue <- h:
	default:
		// Backpressure: the node is saturated. Withdraw the record and
		// shed the request instead of admitting work that cannot start.
		m.withdraw(h)
		m.add("requests_shed", 1)
		return Job{}, fmt.Errorf("%w (queue full, %d pending)", ErrBusy, cap(m.queue))
	}
	m.add("jobs_submitted", 1)
	return h.view(), nil
}

// withdraw removes a just-submitted job that was never admitted to any
// queue: table entry, record file, and quota slot.
func (m *Manager) withdraw(h *handle) {
	h.mu.Lock()
	id := h.job.ID
	client := h.job.Client
	counted := h.counted && !h.settled
	h.settled = true
	h.mu.Unlock()
	m.mu.Lock()
	delete(m.jobs, id)
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	if counted {
		m.releaseSlot(client)
	}
	m.mu.Unlock()
	_ = os.Remove(m.recordPath(id))
	h.stream.close()
}

// releaseSlot frees one admission and quota slot of client. The caller
// holds m.mu.
func (m *Manager) releaseSlot(client string) {
	m.activeTotal--
	if m.active[client] > 1 {
		m.active[client]--
	} else {
		delete(m.active, client)
	}
}

// settle releases the submission quota slot of a terminal job, exactly
// once. The caller holds h.mu and calls settle in the critical section that
// makes the state terminal, so whoever observes the terminal state (a poll,
// the done frame) can resubmit at once. Lock order: h.mu, then m.mu.
func (m *Manager) settle(h *handle) {
	if !terminal(h.job.State) || h.settled || !h.counted {
		return
	}
	h.settled = true
	m.mu.Lock()
	m.releaseSlot(h.job.Client)
	m.mu.Unlock()
}

// adoptRecord replaces a remote handle's record with one read from the
// store, settling the job in the same critical section if it is terminal.
func (m *Manager) adoptRecord(h *handle, job Job) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.remote {
		h.job = job
	}
	m.settle(h)
}

// Job returns the current record of one job. In cluster mode a job running
// on another node is read fresh from the store, so any node answers with
// current state.
func (m *Manager) Job(id string) (Job, bool) {
	h, ok := m.lookup(id)
	if !ok {
		return Job{}, false
	}
	if m.cluster() {
		h.mu.Lock()
		fresh := h.remote && !terminal(h.job.State)
		h.mu.Unlock()
		if fresh {
			if job, err := m.readRecord(id); err == nil {
				m.adoptRecord(h, job)
				job.Frames = h.stream.len()
				return job, true
			}
		}
	}
	return h.view(), true
}

// Jobs lists every job in ID order. In cluster mode the listing covers the
// whole store — every node's submissions — not just local handles.
func (m *Manager) Jobs() []Job {
	if m.cluster() {
		entries, err := os.ReadDir(filepath.Join(m.dir, "jobs"))
		if err != nil {
			return nil
		}
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
				names = append(names, strings.TrimSuffix(e.Name(), ".json"))
			}
		}
		sort.Strings(names)
		out := make([]Job, 0, len(names))
		for _, id := range names {
			if job, ok := m.Job(id); ok {
				out = append(out, job)
			}
		}
		return out
	}
	m.mu.Lock()
	hs := make([]*handle, 0, len(m.order))
	for _, id := range m.order {
		hs = append(hs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]Job, len(hs))
	for i, h := range hs {
		out[i] = h.view()
	}
	return out
}

// Cancel stops a pending or running job. Cancelling a terminal job is a
// no-op returning its final record. In cluster mode, cancelling a job
// owned by another node claims it if it is still pending, and otherwise
// leaves a cancel marker the owner's heartbeat honors.
func (m *Manager) Cancel(id string) (Job, error) {
	h, ok := m.lookup(id)
	if !ok {
		return Job{}, fmt.Errorf("serve: unknown job %q", id)
	}
	h.mu.Lock()
	if m.cluster() && h.remote && !terminal(h.job.State) {
		h.mu.Unlock()
		return m.cancelRemote(h, id)
	}
	switch h.job.State {
	case StatePending:
		// The queued handle stays in the channel; the worker skips
		// non-pending jobs when it dequeues them.
		h.job.State = StateCanceled
		now := time.Now().UTC()
		h.job.FinishedAt = &now
		m.settle(h)
		leased := h.leased
		h.leased = false
		h.mu.Unlock()
		_ = m.persist(h)
		if m.cluster() {
			m.mirrorDone(id, Frame{Type: FrameDone, State: StateCanceled})
			if leased {
				releaseLease(m.jobLeasePath(id), m.nodeID)
			}
		}
		h.stream.publish(Frame{Type: FrameDone, State: StateCanceled})
		h.stream.close()
		m.add("jobs_canceled", 1)
	case StateRunning:
		h.canceled = true
		cancel := h.cancel
		h.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	default:
		h.mu.Unlock()
	}
	j, _ := m.Job(id)
	return j, nil
}

// Delete removes a terminal job's record; active jobs are cancelled
// instead (the record stays until a later delete).
func (m *Manager) Delete(id string) (Job, bool, error) {
	h, ok := m.lookup(id)
	if !ok {
		return Job{}, false, fmt.Errorf("serve: unknown job %q", id)
	}
	job, _ := m.Job(id)
	if !terminal(job.State) {
		j, err := m.Cancel(id)
		return j, false, err
	}
	m.mu.Lock()
	delete(m.jobs, id)
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
	// A job reads terminal before execute writes its terminal record;
	// marking the handle deleted under persistMu makes that write a no-op
	// instead of a resurrection.
	h.persistMu.Lock()
	h.deleted = true
	err := os.Remove(m.recordPath(id))
	h.persistMu.Unlock()
	if err != nil && !os.IsNotExist(err) {
		return Job{}, false, err
	}
	if m.cluster() {
		// Leases and mirrors are per-job bookkeeping; they go with the
		// record. The cached workspace (keyed by digest) stays.
		_ = os.Remove(m.jobLeasePath(id))
		_ = os.Remove(m.cancelMarkPath(id))
		_ = os.Remove(m.mirrorPath(id))
	}
	return job, true, nil
}

// Stream returns the frame stream of a job. Local terminal jobs hydrate
// their history from the store on first access; jobs owned by other
// cluster nodes are followed by tailing the shared frame mirror.
func (m *Manager) Stream(id string) (*stream, bool) {
	h, ok := m.lookup(id)
	if !ok {
		return nil, false
	}
	h.mu.Lock()
	if m.cluster() && h.remote {
		if !h.tailing {
			h.tailing = true
			st := h.stream
			spawned := m.spawnTracked(func() { m.tailMirror(st, id) })
			if !spawned {
				h.tailing = false
				st.close()
			}
		}
		st := h.stream
		h.mu.Unlock()
		return st, true
	}
	if h.coldStream {
		h.coldStream = false
		job := h.job
		m.hydrateCold(h.stream, &job)
	}
	st := h.stream
	h.mu.Unlock()
	return st, true
}

// hydrateCold replays a terminal job's frame history into st and closes
// it. The cluster mirror — which holds the full live history, including
// sweep task frames — wins when present; otherwise run jobs replay their
// workspace frames and the terminal frame is synthesized from the record.
func (m *Manager) hydrateCold(st *stream, job *Job) {
	if m.cluster() {
		if lines, sawDone := m.replayMirror(st, job.ID); lines > 0 {
			if !sawDone {
				st.publish(Frame{Type: FrameDone, State: job.State, Error: job.Error, CacheHit: job.CacheHit})
			}
			st.close()
			return
		}
	}
	if job.Kind == KindRun {
		m.replayStoredFrames(st, job)
	}
	st.publish(Frame{Type: FrameDone, State: job.State, Error: job.Error, CacheHit: job.CacheHit})
	st.close()
}

// Result returns the stored result artifact of a job along with its
// content type. Any cluster node serves any job's result: the workspace
// is shared.
func (m *Manager) Result(id string) ([]byte, string, error) {
	job, ok := m.Job(id)
	if !ok {
		return nil, "", fmt.Errorf("serve: unknown job %q", id)
	}
	data, err := m.readResult(&job)
	if err != nil {
		return nil, "", err
	}
	ct := "application/json"
	if job.Kind == KindSweep {
		ct = "application/x-ndjson"
	}
	return data, ct, nil
}

// Metrics returns the counter map backing /metrics.
func (m *Manager) Metrics() *expvar.Map { return m.counters }

// Close stops accepting jobs, interrupts running ones (sweeps journal
// their in-flight tasks and return to pending, resuming on the next Open
// or — in cluster mode — on whichever node claims them next), and waits
// for the pool to drain.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		<-m.closed
		return nil
	}
	m.closing = true
	m.mu.Unlock()
	m.stop()
	m.wg.Wait()
	// Release leases still held for queued-but-unstarted jobs so other
	// nodes claim them now instead of after a TTL expiry.
	m.mu.Lock()
	hs := make([]*handle, 0, len(m.jobs))
	for _, h := range m.jobs {
		hs = append(hs, h)
	}
	m.mu.Unlock()
	for _, h := range hs {
		if m.cluster() && !m.killed.Load() {
			h.mu.Lock()
			if h.leased {
				h.leased = false
				id := h.job.ID
				h.mu.Unlock()
				releaseLease(m.jobLeasePath(id), m.nodeID)
			} else {
				h.mu.Unlock()
			}
		}
		// Close every stream so connected followers drain instead of
		// waiting forever on jobs that returned to pending — this process
		// will never finish them; the next Open rebuilds fresh streams
		// from the records.
		h.mu.Lock()
		st := h.stream
		h.mu.Unlock()
		st.close()
	}
	close(m.closed)
	return nil
}

// kill simulates a crash for fault-injection tests: every goroutine stops
// with no shutdown bookkeeping — no record writes, no lease releases, no
// stream closes. The store is left exactly as a SIGKILLed process would
// leave it, which is what the lease-expiry reclaim path exists to absorb.
// Mirrors are severed first for the same reason: a dead process writes no
// further bytes to the store, so an engine callback still unwinding after
// the "crash" must not either (it could race the stealer's frame log).
func (m *Manager) kill() {
	m.killed.Store(true)
	m.mu.Lock()
	hs := make([]*handle, 0, len(m.jobs))
	for _, h := range m.jobs {
		hs = append(hs, h)
	}
	m.mu.Unlock()
	for _, h := range hs {
		h.mu.Lock()
		pub := h.pub
		h.mu.Unlock()
		pub.setMirror(nil)
	}
	m.stop()
}

// spawnTracked runs fn on a goroutine tracked by the manager's WaitGroup,
// unless the manager is already closing. The closing check and the Add
// happen under mu, ordering them strictly before Close's Wait.
func (m *Manager) spawnTracked(fn func()) bool {
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return false
	}
	m.wg.Add(1)
	m.mu.Unlock()
	go func() {
		defer m.wg.Done()
		fn()
	}()
	return true
}

// --- execution -------------------------------------------------------------

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case h := <-m.queue:
			m.execute(h)
		}
	}
}

// execute drives one job from pending to a final state (or back to pending
// on shutdown / lease loss).
func (m *Manager) execute(h *handle) {
	h.mu.Lock()
	if h.job.State != StatePending {
		h.mu.Unlock()
		return // cancelled while queued
	}
	if m.cluster() && !h.leased {
		h.mu.Unlock()
		return // lease released while queued; another node owns the job now
	}
	ctx, cancel := context.WithCancel(m.ctx)
	defer cancel()
	h.cancel = cancel
	h.job.State = StateRunning
	now := time.Now().UTC()
	h.job.StartedAt = &now
	if m.cluster() {
		h.job.Owner = m.nodeID
	}
	// Progress counters describe this execution; a record recovered from a
	// prior process carries its partial counts, which resume reports as
	// replays instead.
	h.job.TasksRun, h.job.TasksReplayed, h.job.TasksFailed = 0, 0, 0
	h.job.Error = ""
	pub := h.pub
	id := h.job.ID
	h.mu.Unlock()

	var mirror *os.File
	var hbDone chan struct{}
	if m.cluster() {
		if f, lines, err := m.openMirror(id); err == nil {
			mirror = f
			// Continue the cross-node frame sequence where the previous
			// owner stopped, so followers of the mirror see one monotone
			// history across a steal.
			pub.setBase(lines)
			pub.setMirror(f)
		}
		hbDone = make(chan struct{})
		go m.heartbeatLoop(ctx, cancel, h, id, hbDone)
	}
	_ = m.persist(h)

	var err error
	switch h.view().Kind {
	case KindSweep:
		err = m.runSweep(ctx, h)
	case KindRun:
		err = m.runRun(ctx, h)
	default:
		err = fmt.Errorf("serve: unknown job kind %q", h.view().Kind)
	}

	if m.cluster() {
		cancel()
		<-hbDone
	}
	if m.killed.Load() {
		// Crash simulation: vanish mid-flight. The record stays "running"
		// on disk, the lease heartbeat stops, and after LeaseTTL any live
		// node steals the job and resumes it from the journal.
		return
	}

	h.mu.Lock()
	if h.leaseLost {
		// Another node reclaimed the job: it owns the record and the
		// mirror now. Drop every local claim without writing anything —
		// our record write would clobber the thief's — and leave local
		// followers to the mirror tailer (if one is running) or to a
		// drain on close.
		h.leased = false
		h.remote = true
		tailing := h.tailing
		h.mu.Unlock()
		pub.setMirror(nil)
		if mirror != nil {
			mirror.Close()
		}
		if !tailing {
			h.stream.close()
		}
		pub.close()
		return
	}
	// Only a genuine context cancellation counts as interrupted — a real
	// failure (journal write error, bad store) that merely races a cancel
	// or shutdown must surface as failed with its message, not be
	// swallowed as canceled/pending.
	interrupted := err != nil && errors.Is(err, context.Canceled)
	switch {
	case err == nil:
		h.job.State = StateDone
		m.add("jobs_completed", 1)
	case interrupted && h.canceled:
		h.job.State = StateCanceled
		m.add("jobs_canceled", 1)
	case interrupted:
		// Server shutdown: the journal holds completed tasks; back to
		// pending so the next claimant resumes.
		h.job.State = StatePending
		h.job.StartedAt = nil
		h.job.Owner = ""
	default:
		h.job.State = StateFailed
		h.job.Error = err.Error()
		m.add("jobs_failed", 1)
	}
	if terminal(h.job.State) {
		fin := time.Now().UTC()
		h.job.FinishedAt = &fin
		m.settle(h)
	}
	final := h.job
	h.mu.Unlock()
	if terminal(final.State) {
		// The done frame reaches the mirror before the record turns
		// terminal, so a tailer that sees a terminal record knows the
		// mirror already carries (or imminently carries) its final frame.
		pub.publish(Frame{Type: FrameDone, State: final.State, Error: final.Error, CacheHit: final.CacheHit})
	}
	_ = m.persist(h)
	if m.cluster() {
		pub.setMirror(nil)
		if mirror != nil {
			mirror.Close()
		}
	}
	if terminal(final.State) {
		pub.close()
		if m.cluster() {
			releaseLease(m.jobLeasePath(final.ID), m.nodeID)
			_ = os.Remove(m.cancelMarkPath(final.ID))
			h.mu.Lock()
			h.leased = false
			h.mu.Unlock()
		}
		if final.Kind == KindRun && final.State == StateDone {
			// The frame history is persisted (frames.bin): drop the
			// in-memory log and rehydrate lazily on demand, exactly as
			// after a restart, so finished jobs cost no resident memory.
			h.mu.Lock()
			if h.pub == h.stream && !h.tailing {
				h.stream = newStream()
				h.pub = h.stream
				h.coldStream = true
			}
			h.mu.Unlock()
		}
	} else if m.cluster() {
		// Back to pending at shutdown: hand the lease back immediately so
		// a live node resumes without waiting out the TTL.
		releaseLease(m.jobLeasePath(final.ID), m.nodeID)
		h.mu.Lock()
		h.leased = false
		h.mu.Unlock()
	}
}

// runSweep executes (or cache-serves) a sweep job.
func (m *Manager) runSweep(ctx context.Context, h *handle) error {
	job := h.view()
	dir := m.workspace(&job)
	pub := h.pubStream()
	if m.tryCached(h, dir) {
		return nil
	}
	lk := m.digestLock(job.Digest)
	lk.Lock()
	defer lk.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	if m.tryCached(h, dir) {
		return nil
	}
	if m.cluster() {
		acquired, err := m.acquireDigestFlight(ctx, h, job.Digest, dir)
		if err != nil {
			return err
		}
		if !acquired {
			// Another node finished the workload while we waited.
			if m.tryCached(h, dir) {
				return nil
			}
			return fmt.Errorf("serve: digest %.16s completed elsewhere but its workspace is unreadable", job.Digest)
		}
		defer m.releaseDigestFlight(h, job.Digest)
	}

	res, err := experiment.Run(ctx, *job.Request.Spec, experiment.RunOptions{
		Dir:     dir,
		Workers: m.taskWorkers,
		OnTask: func(t experiment.Task, mx experiment.Metrics, terr error) {
			h.mu.Lock()
			h.job.TasksRun++
			if terr != nil {
				h.job.TasksFailed++
			}
			h.mu.Unlock()
			m.tasksRun.Add(1)
			f := Frame{Type: FrameTask, Point: &t.Point, Rep: t.Rep, Metrics: mx}
			if terr != nil {
				f.Error = terr.Error()
			}
			pub.publish(f)
		},
		OnSnapshot: func(t experiment.Task, s runner.Snapshot) {
			m.add("snapshots_streamed", 1)
			pub.publish(Frame{Type: FrameSnapshot, Point: &t.Point, Rep: t.Rep, Snapshot: &s})
		},
	})
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.job.TasksTotal = res.TasksRun + res.TasksReplayed
	h.job.TasksReplayed = res.TasksReplayed
	h.job.TasksFailed = res.Failures
	h.mu.Unlock()
	return writeCompletion(dir, completion{
		Digest:      job.Digest,
		TasksTotal:  res.TasksRun + res.TasksReplayed,
		TasksFailed: res.Failures,
		ResultFile:  experiment.ResultsJSONL,
		Owner:       m.nodeID,
	})
}

// runRun executes (or cache-serves) a single-run job.
func (m *Manager) runRun(ctx context.Context, h *handle) error {
	job := h.view()
	dir := m.workspace(&job)
	pub := h.pubStream()
	if cacheable(job.Request) && m.tryCached(h, dir) {
		return nil
	}
	lk := m.digestLock(job.Digest)
	lk.Lock()
	defer lk.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	if cacheable(job.Request) && m.tryCached(h, dir) {
		return nil
	}
	if m.cluster() && cacheable(job.Request) {
		acquired, err := m.acquireDigestFlight(ctx, h, job.Digest, dir)
		if err != nil {
			return err
		}
		if !acquired {
			if m.tryCached(h, dir) {
				return nil
			}
			return fmt.Errorf("serve: digest %.16s completed elsewhere but its workspace is unreadable", job.Digest)
		}
		defer m.releaseDigestFlight(h, job.Digest)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	opts := *job.Request.Run
	var frameRecs [][]byte
	var frameBytes int
	var enc frame.Encoder
	seqBase := pub.nextSeq()
	opts.DeltaFunc = func(s runner.Snapshot, d runner.Delta) {
		m.add("snapshots_streamed", 1)
		// One binary encode per snapshot: the same record fans out to every
		// follower (and the cluster mirror) and lands verbatim in frames.bin.
		// JSON followers get the NDJSON transcode, built lazily per stream.
		rec := enc.EncodeSnapshot(frame.Snap{
			Seq:       seqBase + len(frameRecs),
			Iteration: s.Iteration,
			Perimeter: s.Perimeter,
			Edges:     s.Edges,
			Energy:    s.Energy,
			Alpha:     s.Alpha,
			Beta:      s.Beta,
			Bias:      s.Bias,
			HoleFree:  s.HoleFree,
			SVG:       s.SVG != "",
			Payloads:  d.Payloads,
		}, d.Moves, d.Tracked, d.Grid)
		frameRecs = append(frameRecs, rec)
		frameBytes += len(rec)
		pub.publishRecord(rec)
	}
	opts.Interrupt = func() bool { return ctx.Err() != nil }
	res, err := runner.Compress(opts)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	m.tasksRun.Add(1)
	h.mu.Lock()
	h.job.TasksRun = 1
	h.mu.Unlock()
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(dir, "result.json"), append(raw, '\n')); err != nil {
		return err
	}
	if len(frameRecs) > 0 {
		buf := frame.AppendHeader(make([]byte, 0, frame.HeaderSize+frameBytes))
		for _, rec := range frameRecs {
			buf = append(buf, rec...)
		}
		if err := writeFileAtomic(filepath.Join(dir, framesFile), buf); err != nil {
			return err
		}
	}
	if !cacheable(job.Request) {
		return nil
	}
	return writeCompletion(dir, completion{Digest: job.Digest, ResultFile: "result.json", Owner: m.nodeID})
}

// tryCached serves the job from a completed workspace. Returning true means
// the job is done without any simulation work — the cache hit the digest
// scheme promises. The stored completion must name the job's full digest:
// workspaces are keyed by a 16-hex prefix, and serving across a prefix
// collision (or a hand-copied store directory) would be a silent lie.
func (m *Manager) tryCached(h *handle, dir string) bool {
	job := h.view()
	c, ok := readCompletion(dir, job.Digest)
	if !ok {
		return false
	}
	h.mu.Lock()
	h.job.CacheHit = true
	if c.TasksTotal > 0 {
		h.job.TasksTotal = c.TasksTotal
	}
	h.job.TasksFailed = c.TasksFailed
	h.mu.Unlock()
	if job.Kind == KindRun {
		m.replayStoredFrames(h.pubStream(), &job)
	}
	m.add("cache_hits", 1)
	return true
}

// replayStoredFrames republishes a run workspace's persisted snapshot
// frames (frames.bin) into st, so a cached or rehydrated job's stream is
// byte-identical to the original's. A run without snapshots stores no
// frame log and replays nothing. Publishes synchronize on the stream
// itself, so the caller need not hold the owning handle's mutex.
func (m *Manager) replayStoredFrames(st *stream, job *Job) {
	raw, err := os.ReadFile(filepath.Join(m.workspace(job), framesFile))
	if err != nil {
		return
	}
	for _, rec := range splitTolerant(raw) {
		st.publishRecord(rec)
	}
}

// splitTolerant splits a frame log into records, dropping a truncated tail
// (a crash mid-append) instead of failing the replay.
func splitTolerant(raw []byte) [][]byte {
	var recs [][]byte
	var sc frame.Scanner
	sc.Write(raw)
	for {
		rec, ok := sc.Next()
		if !ok {
			return recs
		}
		recs = append(recs, rec)
	}
}

// --- small helpers ---------------------------------------------------------

func (m *Manager) digestLock(digest string) *sync.Mutex {
	m.mu.Lock()
	defer m.mu.Unlock()
	lk, ok := m.digestLocks[digest]
	if !ok {
		lk = &sync.Mutex{}
		m.digestLocks[digest] = lk
	}
	return lk
}

func (m *Manager) add(counter string, delta int64) {
	m.counters.Add(counter, delta)
}

func (m *Manager) recordPath(id string) string {
	return filepath.Join(m.dir, "jobs", id+".json")
}

// persist writes the job's current record atomically. A killed manager
// writes nothing: the crash simulation must leave the store untouched; nor
// does a deleted job's handle.
func (m *Manager) persist(h *handle) error {
	if m.killed.Load() {
		return nil
	}
	h.persistMu.Lock()
	defer h.persistMu.Unlock()
	if h.deleted {
		return nil
	}
	h.mu.Lock()
	job := h.job
	h.mu.Unlock()
	return m.writeRecord(job)
}

// decodeRecord parses a stored job record. A record still to run must also
// hold a request that decodes as a submission does (decodeJobRequest): a
// field this binary does not know would otherwise be dropped, and the job
// would run as something other than what was submitted. Such a record
// comes back failed with the decode error, and refused set. Terminal
// records decode leniently, so their stored results stay servable.
func decodeRecord(raw []byte) (job Job, refused bool, err error) {
	if err := json.Unmarshal(raw, &job); err != nil {
		return Job{}, false, err
	}
	if terminal(job.State) {
		return job, false, nil
	}
	var stored struct {
		Request json.RawMessage `json:"request"`
	}
	_ = json.Unmarshal(raw, &stored) // raw decoded as a Job just above
	if _, err := decodeJobRequest(bytes.NewReader(stored.Request)); err != nil {
		fin := time.Now().UTC()
		job.State, job.FinishedAt = StateFailed, &fin
		job.Error = fmt.Sprintf("serve: stored request: %v", err)
		return job, true, nil
	}
	return job, false, nil
}

func (m *Manager) writeRecord(job Job) error {
	raw, err := json.MarshalIndent(job, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(m.recordPath(job.ID), append(raw, '\n'))
}

// idSeq parses the numeric component of a job ID; -1 when malformed.
// Cluster IDs carry a -<node> suffix after the number, which Sscanf
// naturally stops at.
func idSeq(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "j%d", &n); err != nil {
		return -1
	}
	return n
}

// validNodeID bounds node identifiers to path-safe characters.
func validNodeID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// validJobID bounds job identifiers read back from request paths before
// they are used as file names.
func validJobID(id string) bool {
	if len(id) < 2 || len(id) > 128 || id[0] != 'j' {
		return false
	}
	for _, c := range id[1:] {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
