package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"sync"

	"sops/internal/config"
	"sops/internal/experiment"
	"sops/internal/frame"
	"sops/internal/runner"
	"sops/internal/viz"
)

// Frame types of the streaming endpoint.
const (
	// FrameSnapshot carries one runner.Snapshot taken mid-run. Sweep-job
	// frames also carry the task's sweep point and replication index;
	// within one task, snapshot iterations are strictly increasing.
	FrameSnapshot = "snapshot"
	// FrameTask reports one completed sweep task with its metrics.
	FrameTask = "task"
	// FrameDone is the terminal frame of every stream: the job's final
	// state. After it the stream closes.
	FrameDone = "done"
)

// Frame is one NDJSON line of GET /v1/jobs/{id}/stream.
type Frame struct {
	Type string `json:"type"`
	// Seq is the frame's index in the job's stream, monotone from 0;
	// reconnecting clients replay the full history in order.
	Seq int `json:"seq"`
	// Point and Rep identify the sweep task a snapshot or task frame
	// belongs to (sweep jobs only).
	Point *experiment.Point `json:"point,omitempty"`
	Rep   int               `json:"rep,omitempty"`
	// Snapshot is the mid-run measurement of a snapshot frame.
	Snapshot *runner.Snapshot `json:"snapshot,omitempty"`
	// Metrics are the completed task's measurements (task frames).
	Metrics experiment.Metrics `json:"metrics,omitempty"`
	// Error is a failed task's message (task frames) or the job error
	// (done frames of failed jobs).
	Error string `json:"error,omitempty"`
	// State is the job's final state (done frames).
	State string `json:"state,omitempty"`
	// CacheHit marks a done frame served from the result cache.
	CacheHit bool `json:"cache_hit,omitempty"`
}

// marshalBufs pools the scratch buffers publish marshals frames into, so a
// busy stream (or many streams) reuses one allocation per concurrent
// publisher instead of one per frame.
var marshalBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// FrameTranscoder converts the binary frame records of a stream (the
// internal/frame wire format) into the NDJSON lines of the JSON contract.
// Raw records pass through as their exact stored bytes; snapshot records
// are decoded and re-marshaled through the same Frame struct the server
// originally encoded, which makes the transcode byte-identical to the
// historical NDJSON stream — including the SVG, re-rendered from the
// decoded configuration (viz.AppendSVG is a pure function of the point
// set). Records must be fed in log order: the decoder carries the
// keyframe/delta state across calls. Not safe for concurrent use.
type FrameTranscoder struct {
	dec frame.Decoder
	svg []byte
}

// Transcode converts one binary record into its NDJSON line (no trailing
// newline). Raw-record lines alias the record's bytes; snapshot lines are
// freshly marshaled. Corrupt records return an error and leave the decoder
// state untouched beyond the failed decode.
func (t *FrameTranscoder) Transcode(rec []byte) ([]byte, error) {
	r, err := t.dec.Decode(rec)
	if err != nil {
		return nil, err
	}
	if r.Kind == frame.KindRaw {
		return r.Raw, nil
	}
	s := r.Snap
	rs := runner.Snapshot{
		Iteration: s.Iteration,
		Perimeter: s.Perimeter,
		Edges:     s.Edges,
		Energy:    s.Energy,
		Alpha:     s.Alpha,
		Beta:      s.Beta,
		Bias:      s.Bias,
		HoleFree:  s.HoleFree,
	}
	if s.SVG {
		t.svg = viz.AppendSVG(t.svg[:0], config.New(t.dec.Points()...), nil)
		rs.SVG = string(t.svg)
	}
	return json.Marshal(Frame{Type: FrameSnapshot, Seq: s.Seq, Snapshot: &rs})
}

// stream is an append-only broadcast log of encoded frames. Publishers
// append; any number of subscribers replay from the start and then follow
// live until the stream closes. The canonical history is binary frame
// records (internal/frame): a frame is encoded once however many clients
// watch, binary followers and the cluster mirror receive the same bytes
// verbatim, and the NDJSON view is transcoded lazily — at most once per
// record — only when a JSON follower asks for it.
type stream struct {
	mu   sync.Mutex
	cond *sync.Cond
	// recs is the canonical record log (framed, no file header).
	recs [][]byte
	// json caches the NDJSON transcode of a prefix of recs; it extends
	// under mu through tr, whose decoder state advances strictly in record
	// order. A nil entry marks a record that failed to transcode (JSON
	// followers skip it; binary followers still see the raw bytes).
	json   [][]byte
	tr     FrameTranscoder
	closed bool
	// base offsets the Seq stamped on published frames. Cluster nodes that
	// resume a stolen job set it to the number of records its previous owner
	// already mirrored, so a follower of the cross-node frame log sees one
	// monotone sequence across the steal.
	base int
	// mirror, when non-nil, receives every appended record — the cluster
	// frame log other nodes tail. Write errors are dropped: mirroring is
	// best-effort replication of an in-memory log that remains
	// authoritative for local followers.
	mirror io.Writer
}

func newStream() *stream {
	s := &stream{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// publish encodes f (stamping its Seq) as a raw JSON record and appends it.
// Publishing to a closed stream is a no-op so late engine callbacks cannot
// corrupt a finished job's history.
func (s *stream) publish(f Frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	f.Seq = s.base + len(s.recs)
	buf := marshalBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(f); err != nil {
		// Frames are built from plain data types; a marshal failure is a
		// programmer error, but dropping the frame beats killing the job.
		marshalBufs.Put(buf)
		return
	}
	line := buf.Bytes()
	s.append(frame.Raw(line[:len(line)-1])) // Encode appends '\n'
	marshalBufs.Put(buf)
}

// publishRecord appends an already-framed binary record — encoded snapshot
// deltas from the run loop, stored frames.bin replay, and records tailed
// from a cluster mirror. The record carries its own Seq; none is stamped.
func (s *stream) publishRecord(rec []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.append(rec)
}

// append records one framed record and mirrors it; callers hold s.mu. The
// mirror write is a single call: with O_APPEND that keeps each record
// atomic on disk even if a lease-protocol race briefly leaves two writers
// alive.
func (s *stream) append(rec []byte) {
	s.recs = append(s.recs, rec)
	if s.mirror != nil {
		_, _ = s.mirror.Write(rec)
	}
	s.cond.Broadcast()
}

// extendJSON transcodes records [len(s.json), n) into the NDJSON cache;
// callers hold s.mu.
func (s *stream) extendJSON(n int) {
	for len(s.json) < n {
		line, err := s.tr.Transcode(s.recs[len(s.json)])
		if err != nil {
			line = nil
		}
		s.json = append(s.json, line)
	}
}

// setBase sets the Seq offset of subsequently published frames.
func (s *stream) setBase(n int) {
	s.mu.Lock()
	s.base = n
	s.mu.Unlock()
}

// nextSeq returns the Seq the next published frame would carry.
func (s *stream) nextSeq() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base + len(s.recs)
}

// setMirror attaches (or, with nil, detaches) the cluster frame-log writer.
func (s *stream) setMirror(w io.Writer) {
	s.mu.Lock()
	s.mirror = w
	s.mu.Unlock()
}

// close ends the stream; followers drain and return.
func (s *stream) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// len returns the number of frames published so far.
func (s *stream) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// follow delivers every frame from the beginning to emit as NDJSON lines,
// blocking for new ones until the stream closes or ctx is done. It returns
// nil after a full drain of a closed stream, ctx.Err() on cancellation, or
// emit's error.
func (s *stream) follow(ctx context.Context, emit func([]byte) error) error {
	return s.followFunc(ctx, false, emit)
}

// followRecords is follow over the canonical binary records: every emitted
// slice is one framed record, byte-identical for every follower.
func (s *stream) followRecords(ctx context.Context, emit func([]byte) error) error {
	return s.followFunc(ctx, true, emit)
}

func (s *stream) followFunc(ctx context.Context, binary bool, emit func([]byte) error) error {
	// A canceled client must wake the cond wait; AfterFunc broadcasts on
	// cancellation and is released when follow returns.
	stop := context.AfterFunc(ctx, s.cond.Broadcast)
	defer stop()
	i := 0
	for {
		s.mu.Lock()
		for i >= len(s.recs) && !s.closed && ctx.Err() == nil {
			s.cond.Wait()
		}
		var batch [][]byte
		if binary {
			batch = s.recs[i:len(s.recs):len(s.recs)]
		} else {
			s.extendJSON(len(s.recs))
			batch = s.json[i:len(s.json):len(s.json)]
		}
		closed := s.closed
		s.mu.Unlock()
		for _, line := range batch {
			i++
			if line == nil {
				continue
			}
			if err := emit(line); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if closed && len(batch) == 0 {
			return nil
		}
	}
}
