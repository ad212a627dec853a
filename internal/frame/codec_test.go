package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sops/internal/grid"
	"sops/internal/lattice"
)

func TestHeader(t *testing.T) {
	h := Header()
	if len(h) != HeaderSize {
		t.Fatalf("header size = %d, want %d", len(h), HeaderSize)
	}
	if !HasHeader(h) {
		t.Fatal("HasHeader(Header()) = false")
	}
	if HasHeader([]byte("SOPX1234")) {
		t.Fatal("HasHeader accepted wrong magic")
	}
}

func TestRawRoundTrip(t *testing.T) {
	line := []byte(`{"type":"done","seq":7}`)
	rec := Raw(line)
	if k, err := Kind(rec); err != nil || k != KindRaw {
		t.Fatalf("Kind = %v, %v", k, err)
	}
	got, ok := RawBody(rec)
	if !ok || !bytes.Equal(got, line) {
		t.Fatalf("RawBody = %q, %v", got, ok)
	}
	var d Decoder
	r, err := d.Decode(rec)
	if err != nil || r.Kind != KindRaw || !bytes.Equal(r.Raw, line) {
		t.Fatalf("Decode raw = %+v, %v", r, err)
	}
}

// line builds a horizontal run of n occupied sites starting at p.
func line(p lattice.Point, n int) []lattice.Point {
	pts := make([]lattice.Point, n)
	for i := range pts {
		pts[i] = lattice.Point{X: p.X + i, Y: p.Y}
	}
	return pts
}

// checkState compares the decoder's held configuration (points and
// payloads) against the authoritative grid.
func checkState(t *testing.T, d *Decoder, g *grid.Grid) {
	t.Helper()
	want := g.AppendPoints(nil)
	got := d.Points()
	if len(got) != len(want) {
		t.Fatalf("points: got %d, want %d", len(got), len(want))
	}
	pays := d.Payloads()
	if len(pays) != len(got) {
		t.Fatalf("payloads: %d entries for %d points", len(pays), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d: got %v, want %v", i, got[i], want[i])
		}
		if pays[i] != g.Payload(want[i]) {
			t.Fatalf("payload at %v: got %d, want %d", want[i], pays[i], g.Payload(want[i]))
		}
	}
}

func TestKeyframeDeltaRoundTrip(t *testing.T) {
	g := grid.New(line(lattice.Point{}, 8), 0)
	g.EnablePayload()
	for i := 0; i < 8; i++ {
		g.SetPayload(lattice.Point{X: i}, uint8(i%6))
	}
	var (
		enc Encoder
		dec Decoder
		log MoveLog
	)
	rng := rand.New(rand.NewSource(42))
	pts := g.AppendPoints(nil)
	snapAt := func(seq int) Snap {
		return Snap{
			Seq: seq, Iteration: uint64(seq) * 100,
			Perimeter: g.Perimeter(), Edges: g.Edges(), Energy: -g.Edges(),
			Alpha: 1.25, Beta: 0.75, HoleFree: true, Payloads: true,
		}
	}
	for seq := 0; seq < 100; seq++ {
		// A few random single-particle moves and rotations per interval.
		for m := 0; m < 3; m++ {
			i := rng.Intn(len(pts))
			p := pts[i]
			if rng.Intn(2) == 0 {
				pay := uint8(rng.Intn(6))
				g.SetPayload(p, pay)
				log.Rotated(p, pay)
				continue
			}
			q := lattice.Point{X: p.X + rng.Intn(5) - 2, Y: p.Y + rng.Intn(5) - 2}
			if q == p || g.Has(q) {
				continue
			}
			pay := g.Payload(p)
			g.Move(p, q)
			g.SetPayload(q, pay)
			log.Moved(p, q, pay)
			pts[i] = q
		}
		s := snapAt(seq)
		rec := enc.EncodeSnapshot(s, log.Drain(), true, g)
		r, err := dec.Decode(rec)
		if err != nil {
			t.Fatalf("seq %d: decode: %v", seq, err)
		}
		if r.Snap != s {
			t.Fatalf("seq %d: snap = %+v, want %+v", seq, r.Snap, s)
		}
		if seq == 0 && r.Kind != KindKeyframe {
			t.Fatalf("first record kind = %#x, want keyframe", r.Kind)
		}
		checkState(t, &dec, g)
	}
}

func TestUntrackedForcesKeyframe(t *testing.T) {
	g := grid.New(line(lattice.Point{}, 5), 0)
	var enc Encoder
	enc.EncodeSnapshot(Snap{Seq: 0}, nil, true, g)
	rec := enc.EncodeSnapshot(Snap{Seq: 1}, nil, false, g)
	if k, _ := Kind(rec); k != KindKeyframe {
		t.Fatalf("untracked interval kind = %#x, want keyframe", k)
	}
}

func TestKeyframeCadence(t *testing.T) {
	g := grid.New(line(lattice.Point{}, 5), 0)
	enc := Encoder{KeyframeEvery: 4}
	var kinds []byte
	for seq := 0; seq < 10; seq++ {
		rec := enc.EncodeSnapshot(Snap{Seq: seq}, nil, true, g)
		k, err := Kind(rec)
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, k)
	}
	want := []byte{KindKeyframe, KindDelta, KindDelta, KindDelta, KindDelta,
		KindKeyframe, KindDelta, KindDelta, KindDelta, KindDelta}
	if !bytes.Equal(kinds, want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
}

// TestCoalesce checks that multi-hop and round-trip moves net out.
func TestCoalesce(t *testing.T) {
	g := grid.New(line(lattice.Point{}, 4), 0)
	var enc Encoder
	var dec Decoder
	if _, err := dec.Decode(enc.EncodeSnapshot(Snap{Seq: 0}, nil, true, g)); err != nil {
		t.Fatal(err)
	}

	// A → B → C in one interval plus D → E → D (net no-op).
	a, c := lattice.Point{X: 0}, lattice.Point{X: 5}
	b := lattice.Point{X: 4}
	d, e := lattice.Point{X: 2}, lattice.Point{X: 2, Y: 1}
	var log MoveLog
	g.Move(a, b)
	log.Moved(a, b, 0)
	g.Move(b, c)
	log.Moved(b, c, 0)
	g.Move(d, e)
	log.Moved(d, e, 0)
	g.Move(e, d)
	log.Moved(e, d, 0)

	rec := enc.EncodeSnapshot(Snap{Seq: 1}, log.Drain(), true, g)
	if k, _ := Kind(rec); k != KindDelta {
		t.Fatalf("kind = %#x, want delta", k)
	}
	if _, err := dec.Decode(rec); err != nil {
		t.Fatal(err)
	}
	checkState(t, &dec, g)
}

func TestDeltaLargerThanKeyframeResyncs(t *testing.T) {
	g := grid.New(line(lattice.Point{}, 3), 0)
	var enc Encoder
	enc.EncodeSnapshot(Snap{Seq: 0}, nil, true, g)
	// Move every particle: the delta (3 removed + 3 added) is not smaller
	// than a 3-point keyframe, so the encoder must resync.
	var log MoveLog
	for i := 0; i < 3; i++ {
		from := lattice.Point{X: i}
		to := lattice.Point{X: i, Y: 2}
		g.Move(from, to)
		log.Moved(from, to, 0)
	}
	rec := enc.EncodeSnapshot(Snap{Seq: 1}, log.Drain(), true, g)
	if k, _ := Kind(rec); k != KindKeyframe {
		t.Fatalf("kind = %#x, want keyframe", k)
	}
}

func TestScannerChunked(t *testing.T) {
	var logBuf []byte
	logBuf = AppendHeader(logBuf)
	lines := [][]byte{
		[]byte(`{"type":"snapshot","seq":0}`),
		[]byte(`{"type":"snapshot","seq":1}`),
		[]byte(`{"type":"done","seq":2}`),
	}
	for _, l := range lines {
		logBuf = AppendRaw(logBuf, l)
	}
	// Feed one byte at a time; records must come out whole and in order.
	var sc Scanner
	var got [][]byte
	for _, b := range logBuf {
		sc.Write([]byte{b})
		for {
			rec, ok := sc.Next()
			if !ok {
				break
			}
			got = append(got, rec)
		}
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if sc.Buffered() != 0 {
		t.Fatalf("buffered = %d, want 0", sc.Buffered())
	}
	if len(got) != len(lines) {
		t.Fatalf("records = %d, want %d", len(got), len(lines))
	}
	for i, rec := range got {
		body, ok := RawBody(rec)
		if !ok || !bytes.Equal(body, lines[i]) {
			t.Fatalf("record %d = %q", i, body)
		}
	}
}

func TestScannerHeaderless(t *testing.T) {
	var sc Scanner
	sc.Write(Raw([]byte(`{"type":"done"}`)))
	if _, ok := sc.Next(); !ok {
		t.Fatal("headerless record not scanned")
	}
}

func TestScannerBadVersion(t *testing.T) {
	h := Header()
	h[4] = 99
	var sc Scanner
	sc.Write(h)
	if _, ok := sc.Next(); ok {
		t.Fatal("scanned record from bad-version log")
	}
	if !errors.Is(sc.Err(), ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", sc.Err())
	}
}

func TestSplitAndCount(t *testing.T) {
	var logBuf []byte
	logBuf = AppendHeader(logBuf)
	for i := 0; i < 5; i++ {
		logBuf = AppendRaw(logBuf, []byte(`{"seq":0}`))
	}
	recs, err := Split(logBuf)
	if err != nil || len(recs) != 5 {
		t.Fatalf("Split = %d recs, %v", len(recs), err)
	}
	if n, size := Count(logBuf); n != 5 || size != len(logBuf) {
		t.Fatalf("Count = %d records in %d bytes, want 5 in %d", n, size, len(logBuf))
	}
	// Truncate mid-record: Split errors, Count ignores the tail.
	trunc := logBuf[:len(logBuf)-3]
	if _, err := Split(trunc); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Split(truncated) err = %v", err)
	}
	if n, size := Count(trunc); n != 4 || size != len(logBuf)-len(recs[4]) {
		t.Fatalf("Count(truncated) = %d records in %d bytes, want 4 in %d", n, size, len(logBuf)-len(recs[4]))
	}
}

func TestReader(t *testing.T) {
	var logBuf []byte
	logBuf = AppendHeader(logBuf)
	logBuf = AppendRaw(logBuf, []byte(`{"seq":0}`))
	logBuf = AppendRaw(logBuf, []byte(`{"seq":1}`))

	r := NewReader(bytes.NewReader(logBuf))
	for i := 0; i < 2; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}

	r = NewReader(bytes.NewReader(logBuf[:len(logBuf)-2]))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestDecodeTruncated feeds every prefix of a valid snapshot record to a
// fresh decoder: none may panic, all must error (except the full record).
func TestDecodeTruncated(t *testing.T) {
	g := grid.New(line(lattice.Point{}, 6), 0)
	g.EnablePayload()
	var enc Encoder
	rec := enc.EncodeSnapshot(Snap{Seq: 3, Iteration: 7, Perimeter: 9,
		Edges: 5, Energy: -5, Alpha: 2.5, Beta: 1.1, Payloads: true}, nil, true, g)
	for n := 0; n < len(rec); n++ {
		var d Decoder
		if _, err := d.Decode(rec[:n]); err == nil {
			t.Fatalf("Decode of %d/%d-byte prefix succeeded", n, len(rec))
		}
	}
	var d Decoder
	if _, err := d.Decode(rec); err != nil {
		t.Fatal(err)
	}
}

func TestNilMoveLog(t *testing.T) {
	var l *MoveLog
	l.Moved(lattice.Point{}, lattice.Point{X: 1}, 0)
	l.Rotated(lattice.Point{}, 1)
	if l.Len() != 0 || l.Drain() != nil {
		t.Fatal("nil MoveLog not inert")
	}
}

// mapEncoder is the map-based encoder the dense-table coalescer replaced,
// kept verbatim as the oracle TestCoalesceMatchesMapOracle compares
// EncodeSnapshot against byte for byte.
type mapEncoder struct {
	started  bool
	sinceKey int

	touched map[lattice.Point]mapSite
	removed []lattice.Point
	added   []lattice.Point
	addPay  []uint8
	rotated []lattice.Point
	rotPay  []uint8
}

type mapSite struct {
	orig, cur bool
	pay       uint8
}

func (e *mapEncoder) encodeSnapshot(s Snap, moves []Move, tracked bool, g *grid.Grid) []byte {
	key := !tracked || !e.started || e.sinceKey >= DefaultKeyframeEvery
	if !key {
		e.coalesce(moves, s.Payloads)
		if len(e.removed)+len(e.added)+len(e.rotated) >= g.N() {
			key = true
		}
	}
	var flags byte
	if s.HoleFree {
		flags |= flagHoleFree
	}
	if s.SVG {
		flags |= flagSVG
	}
	if s.Payloads {
		flags |= flagPayloads
	}
	if s.Bias != 0 {
		flags |= flagBias
	}
	kind := KindDelta
	if key {
		kind = KindKeyframe
	}
	body := []byte{kind, flags}
	body = binary.AppendUvarint(body, uint64(s.Seq))
	body = binary.AppendUvarint(body, s.Iteration)
	body = binary.AppendUvarint(body, uint64(s.Perimeter))
	body = binary.AppendUvarint(body, uint64(s.Edges))
	body = binary.AppendVarint(body, int64(s.Energy))
	body = binary.LittleEndian.AppendUint64(body, math.Float64bits(s.Alpha))
	body = binary.LittleEndian.AppendUint64(body, math.Float64bits(s.Beta))
	if s.Bias != 0 {
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(s.Bias))
	}
	if key {
		pts := g.AppendPoints(nil)
		body = binary.AppendUvarint(body, uint64(len(pts)))
		body = appendPoints(body, pts)
		if s.Payloads {
			for _, p := range pts {
				body = append(body, g.Payload(p))
			}
		}
		e.sinceKey = 0
	} else {
		body = binary.AppendUvarint(body, uint64(len(e.removed)))
		body = appendPoints(body, e.removed)
		body = binary.AppendUvarint(body, uint64(len(e.added)))
		body = appendPoints(body, e.added)
		if s.Payloads {
			body = append(body, e.addPay...)
			body = binary.AppendUvarint(body, uint64(len(e.rotated)))
			body = appendPoints(body, e.rotated)
			body = append(body, e.rotPay...)
		}
		e.sinceKey++
	}
	e.started = true
	rec := binary.AppendUvarint(nil, uint64(len(body)))
	return append(rec, body...)
}

func (e *mapEncoder) coalesce(moves []Move, payloads bool) {
	e.touched = make(map[lattice.Point]mapSite, 2*len(moves)+1)
	site := func(p lattice.Point, occIfNew bool) mapSite {
		if t, ok := e.touched[p]; ok {
			return t
		}
		return mapSite{orig: occIfNew, cur: occIfNew}
	}
	for _, m := range moves {
		if m.Rotate {
			t := site(m.To, true)
			t.pay = m.Payload
			e.touched[m.To] = t
			continue
		}
		f := site(m.From, true)
		f.cur = false
		e.touched[m.From] = f
		t := site(m.To, false)
		t.cur = true
		t.pay = m.Payload
		e.touched[m.To] = t
	}
	e.removed, e.added, e.addPay = e.removed[:0], e.added[:0], e.addPay[:0]
	e.rotated, e.rotPay = e.rotated[:0], e.rotPay[:0]
	for p, t := range e.touched {
		switch {
		case t.orig && !t.cur:
			e.removed = append(e.removed, p)
		case !t.orig && t.cur:
			e.added = append(e.added, p)
		case t.orig && t.cur && payloads:
			e.rotated = append(e.rotated, p)
		}
	}
	for _, pts := range [][]lattice.Point{e.removed, e.added, e.rotated} {
		sort.Slice(pts, func(i, j int) bool { return pts[i].Less(pts[j]) })
	}
	if payloads {
		for _, p := range e.added {
			e.addPay = append(e.addPay, e.touched[p].pay)
		}
		for _, p := range e.rotated {
			e.rotPay = append(e.rotPay, e.touched[p].pay)
		}
	}
}

// oracleRun applies scripted intervals to a grid and checks that Encoder
// and the map oracle emit identical records for each, and that the records
// decode to the grid.
type oracleRun struct {
	t        *testing.T
	g        *grid.Grid
	payloads bool
	enc      Encoder
	ora      mapEncoder
	dec      Decoder
	log      MoveLog
	seq      int
	deltas   int
}

func newOracleRun(t *testing.T, pts []lattice.Point, payloads bool) *oracleRun {
	r := &oracleRun{t: t, g: grid.New(pts, 0), payloads: payloads}
	if payloads {
		r.g.EnablePayload()
		for i, p := range pts {
			r.g.SetPayload(p, uint8(i%6))
		}
	}
	return r
}

// hop moves the particle at from to the free site to, logging it.
func (r *oracleRun) hop(from, to lattice.Point) {
	pay := r.g.Payload(from)
	r.g.Move(from, to)
	if r.payloads {
		r.g.SetPayload(to, pay)
	}
	r.log.Moved(from, to, pay)
}

// rotate sets the payload at p (possibly to its current value), logging it.
func (r *oracleRun) rotate(p lattice.Point, pay uint8) {
	r.g.SetPayload(p, pay)
	r.log.Rotated(p, pay)
}

// snapshot ends the interval: both encoders must emit the same bytes.
func (r *oracleRun) snapshot() {
	r.t.Helper()
	s := Snap{
		Seq: r.seq, Iteration: uint64(r.seq) * 1000, Perimeter: r.g.Perimeter(),
		Edges: r.g.Edges(), Energy: -r.g.Edges(), Alpha: 1.5, Beta: 0.5,
		Payloads: r.payloads,
	}
	moves := r.log.Drain()
	got := r.enc.EncodeSnapshot(s, moves, true, r.g)
	want := r.ora.encodeSnapshot(s, moves, true, r.g)
	if !bytes.Equal(got, want) {
		r.t.Fatalf("seq %d (%d moves): record differs from the map oracle:\n got %x\nwant %x", r.seq, len(moves), got, want)
	}
	if k, _ := Kind(got); k == KindDelta {
		r.deltas++
	}
	if _, err := r.dec.Decode(got); err != nil {
		r.t.Fatalf("seq %d: decode: %v", r.seq, err)
	}
	checkState(r.t, &r.dec, r.g)
	r.seq++
}

// walk runs k random moves among pts (updated in place): hops to a free
// site within distance 2, hops straight back (revisits), and rotations,
// some of which keep the payload unchanged.
func (r *oracleRun) walk(rng *rand.Rand, pts []lattice.Point, k int) {
	for m := 0; m < k; m++ {
		i := rng.Intn(len(pts))
		p := pts[i]
		switch op := rng.Intn(10); {
		case op < 2 && r.payloads:
			pay := uint8(rng.Intn(6))
			if op == 0 {
				pay = r.g.Payload(p)
			}
			r.rotate(p, pay)
		default:
			q := lattice.Point{X: p.X + rng.Intn(5) - 2, Y: p.Y + rng.Intn(5) - 2}
			if q == p || r.g.Has(q) {
				continue
			}
			r.hop(p, q)
			pts[i] = q
			if op == 9 {
				r.hop(q, p) // and straight back
				pts[i] = p
			}
		}
	}
}

// TestCoalesceMatchesMapOracle: the dense-table coalescer emits the bytes
// of the map-based one it replaced, over seeded random intervals and the
// shapes a cell table can get wrong — revisits, vacated sites refilled by
// another particle, rotations that keep the payload, wide sparse boxes,
// empty intervals, and successive boxes of different shape.
func TestCoalesceMatchesMapOracle(t *testing.T) {
	for _, payloads := range []bool{false, true} {
		t.Run(fmt.Sprintf("payloads=%v", payloads), func(t *testing.T) {
			t.Run("random", func(t *testing.T) {
				rng := rand.New(rand.NewSource(7))
				var pts []lattice.Point
				for y := 0; y < 40; y++ {
					for x := 0; x < 40; x++ {
						if rng.Intn(2) == 0 {
							pts = append(pts, lattice.Point{X: x, Y: y})
						}
					}
				}
				r := newOracleRun(t, pts, payloads)
				r.snapshot()
				for i := 0; i < 200; i++ {
					r.walk(rng, pts, []int{0, 1, 2, 10, 100, 1350, 3000}[rng.Intn(7)])
					r.snapshot()
				}
				if r.deltas < 100 {
					t.Fatalf("only %d of %d records were deltas", r.deltas, r.seq)
				}
			})
			t.Run("refill-and-rotate", func(t *testing.T) {
				r := newOracleRun(t, line(lattice.Point{}, 12), payloads)
				r.snapshot()
				a, b := lattice.Point{X: 0}, lattice.Point{X: 1}
				vacated, out := lattice.Point{X: 2}, lattice.Point{X: 2, Y: 1}
				r.hop(vacated, out) // vacate…
				r.hop(b, vacated)   // …refill with another particle…
				r.hop(a, b)         // …and refill its site in turn
				if payloads {
					r.rotate(lattice.Point{X: 4}, r.g.Payload(lattice.Point{X: 4})) // unchanged payload
					r.rotate(lattice.Point{X: 5}, 3)
					r.rotate(lattice.Point{X: 5}, r.g.Payload(lattice.Point{X: 5}))
				}
				r.snapshot()
				r.snapshot() // empty interval
				if r.deltas != 2 {
					t.Fatalf("%d deltas, want 2", r.deltas)
				}
			})
			t.Run("sparse-boxes", func(t *testing.T) {
				rng := rand.New(rand.NewSource(11))
				clusters := []lattice.Point{{}, {X: 3000}, {Y: 2000}, {X: 700, Y: 900}, {X: -400, Y: 5}}
				var all []lattice.Point
				groups := make([][]lattice.Point, len(clusters))
				for c, o := range clusters {
					for y := 0; y < 4; y++ {
						groups[c] = append(groups[c], line(lattice.Point{X: o.X, Y: o.Y + 2*y}, 8)...)
					}
					all = append(all, groups[c]...)
				}
				r := newOracleRun(t, all, payloads)
				r.snapshot()
				for i := 0; i < 60; i++ {
					// Each interval moves particles of a random subset of
					// the clusters: boxes from a few cells to ~3000×2000.
					for c := range clusters {
						if rng.Intn(3) == 0 {
							r.walk(rng, groups[c], 1+rng.Intn(20))
						}
					}
					r.snapshot()
				}
				if r.deltas < 30 {
					t.Fatalf("only %d of %d records were deltas", r.deltas, r.seq)
				}
			})
		})
	}
}
