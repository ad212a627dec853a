package frame

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"sort"

	"sops/internal/grid"
	"sops/internal/lattice"
)

// A Move is one accepted engine transition: a particle hop (From → To) or,
// with Rotate set, an in-place payload rotation at To. Payload is the
// particle's payload byte after the transition (0 under stateless rules).
type Move struct {
	From, To lattice.Point
	Payload  uint8
	Rotate   bool
}

// A MoveLog collects the accepted moves of a snapshot interval. Engines
// call Moved/Rotated on their hot path; both are nil-safe no-ops when no
// log is attached, so untraced runs pay only a pointer test.
type MoveLog struct {
	moves []Move
}

// Moved records a particle hop from → to carrying payload pay.
func (l *MoveLog) Moved(from, to lattice.Point, pay uint8) {
	if l != nil {
		l.moves = append(l.moves, Move{From: from, To: to, Payload: pay})
	}
}

// Rotated records an in-place payload rotation at site at.
func (l *MoveLog) Rotated(at lattice.Point, pay uint8) {
	if l != nil {
		l.moves = append(l.moves, Move{From: at, To: at, Payload: pay, Rotate: true})
	}
}

// Len returns the number of recorded moves.
func (l *MoveLog) Len() int {
	if l == nil {
		return 0
	}
	return len(l.moves)
}

// Drain returns the recorded moves and resets the log. The returned slice
// aliases the log's buffer and is valid until the next Moved/Rotated call.
func (l *MoveLog) Drain() []Move {
	if l == nil {
		return nil
	}
	m := l.moves
	l.moves = l.moves[:0]
	return m
}

// Snap is the scalar prelude of a snapshot record — the non-configuration
// fields of one stream frame.
type Snap struct {
	Seq       int
	Iteration uint64
	Perimeter int
	Edges     int
	Energy    int
	Alpha     float64
	Beta      float64
	// Bias is the schedule's λ at this instant for biased rules (0 for
	// fixed-λ runs); on the wire it rides behind the bias flag bit, so
	// records from fixed-λ runs carry no extra bytes and logs written
	// before the field existed decode unchanged.
	Bias     float64
	HoleFree bool
	SVG      bool
	Payloads bool
}

// DefaultKeyframeEvery is the keyframe cadence: at most this many snapshot
// records between keyframes.
const DefaultKeyframeEvery = 32

// siteTrack is the per-touched-site state of delta coalescing. orig is the
// site's occupancy at the start of the interval, inferred at first touch:
// a site first seen as a move destination was empty, one first seen as a
// source or rotation target was occupied. pay is the latest payload a
// move or rotation left at p.
type siteTrack struct {
	p    lattice.Point
	orig bool
	cur  bool
	pay  uint8
}

// An Encoder turns snapshot intervals into framed records. It keeps no
// authoritative copy of the configuration: deltas are coalesced from the
// interval's move list alone, and keyframes read the live grid. One
// encoder serves one execution; its first snapshot is always a keyframe.
type Encoder struct {
	// KeyframeEvery caps snapshot records between keyframes; <= 0 means
	// DefaultKeyframeEvery.
	KeyframeEvery int

	started  bool
	sinceKey int

	// cells is a dense table over the bounding box of the interval's
	// moves: 1 + the index in sites of each touched site, 0 elsewhere.
	// Every cell an interval touches is zeroed again before coalesce
	// returns, so the table is all zeros between intervals whatever the
	// box; it only grows, to the largest box seen.
	cells   []int32
	sites   []siteTrack // touched sites, in first-touch order
	removed []siteTrack
	added   []siteTrack
	rotated []siteTrack

	pts  []lattice.Point
	pays []uint8
	body []byte
}

// EncodeSnapshot encodes one snapshot as a standalone framed record.
// moves are the interval's accepted moves (drained, in order); tracked
// reports whether they are a complete account of the interval — when
// false (a caller that did not log every move) the record is forced to a
// keyframe. g is the live grid the snapshot describes.
func (e *Encoder) EncodeSnapshot(s Snap, moves []Move, tracked bool, g *grid.Grid) []byte {
	every := e.KeyframeEvery
	if every <= 0 {
		every = DefaultKeyframeEvery
	}
	key := !tracked || !e.started || e.sinceKey >= every
	if !key {
		e.coalesce(moves, s.Payloads)
		// A delta no smaller than the keyframe's point list buys nothing;
		// resync instead.
		if len(e.removed)+len(e.added)+len(e.rotated) >= g.N() {
			key = true
		}
	}

	e.body = e.body[:0]
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
	e.body = append(e.body, kind, flags)
	e.body = binary.AppendUvarint(e.body, uint64(s.Seq))
	e.body = binary.AppendUvarint(e.body, s.Iteration)
	e.body = binary.AppendUvarint(e.body, uint64(s.Perimeter))
	e.body = binary.AppendUvarint(e.body, uint64(s.Edges))
	e.body = binary.AppendVarint(e.body, int64(s.Energy))
	e.body = binary.LittleEndian.AppendUint64(e.body, math.Float64bits(s.Alpha))
	e.body = binary.LittleEndian.AppendUint64(e.body, math.Float64bits(s.Beta))
	if s.Bias != 0 {
		e.body = binary.LittleEndian.AppendUint64(e.body, math.Float64bits(s.Bias))
	}

	if key {
		e.pts = g.AppendPoints(e.pts[:0])
		e.body = binary.AppendUvarint(e.body, uint64(len(e.pts)))
		e.body = appendPoints(e.body, e.pts)
		if s.Payloads {
			e.pays = e.pays[:0]
			for _, p := range e.pts {
				e.pays = append(e.pays, g.Payload(p))
			}
			e.body = append(e.body, e.pays...)
		}
		e.sinceKey = 0
	} else {
		e.body = appendSites(e.body, e.removed, false)
		e.body = appendSites(e.body, e.added, s.Payloads)
		if s.Payloads {
			e.body = appendSites(e.body, e.rotated, true)
		}
		e.sinceKey++
	}
	e.started = true

	rec := make([]byte, 0, binary.MaxVarintLen32+len(e.body))
	rec = binary.AppendUvarint(rec, uint64(len(e.body)))
	return append(rec, e.body...)
}

// coalesce folds the interval's move list into net per-site changes,
// filling e.removed/added/rotated in canonical (Y, X) order. A particle
// that leaves and returns (or a vacated site refilled by another) nets out
// to nothing or a rotation; only true occupancy changes survive.
func (e *Encoder) coalesce(moves []Move, payloads bool) {
	e.sites = e.sites[:0]
	e.removed = e.removed[:0]
	e.added = e.added[:0]
	e.rotated = e.rotated[:0]
	if len(moves) == 0 {
		return
	}
	lo, hi := moves[0].To, moves[0].To
	for _, m := range moves {
		lo.X, hi.X = min(lo.X, m.From.X, m.To.X), max(hi.X, m.From.X, m.To.X)
		lo.Y, hi.Y = min(lo.Y, m.From.Y, m.To.Y), max(hi.Y, m.From.Y, m.To.Y)
	}
	w := hi.X - lo.X + 1
	if area := w * (hi.Y - lo.Y + 1); len(e.cells) < area {
		e.cells = make([]int32, area)
	}
	cell := func(p lattice.Point) *int32 { return &e.cells[(p.Y-lo.Y)*w+p.X-lo.X] }
	for _, m := range moves {
		if m.Rotate {
			e.touch(cell(m.To), m.To, true).pay = m.Payload
			continue
		}
		e.touch(cell(m.From), m.From, true).cur = false
		t := e.touch(cell(m.To), m.To, false)
		t.cur = true
		t.pay = m.Payload
	}
	for _, t := range e.sites {
		*cell(t.p) = 0
		switch {
		case t.orig && !t.cur:
			e.removed = append(e.removed, t)
		case !t.orig && t.cur:
			e.added = append(e.added, t)
		case t.orig && t.cur && payloads:
			// Net-stationary but touched: its payload may have changed
			// (rotation, or a different particle settled here). Emitting
			// an unchanged payload is harmless — decode is idempotent.
			e.rotated = append(e.rotated, t)
		}
	}
	slices.SortFunc(e.removed, compareSites)
	slices.SortFunc(e.added, compareSites)
	slices.SortFunc(e.rotated, compareSites)
}

// touch returns the tracking state of p, whose table cell is c, adding it
// at first touch with its occupancy inferred from how the site is used.
// The pointer is valid until the next touch.
func (e *Encoder) touch(c *int32, p lattice.Point, occIfNew bool) *siteTrack {
	if *c == 0 {
		e.sites = append(e.sites, siteTrack{p: p, orig: occIfNew, cur: occIfNew})
		*c = int32(len(e.sites))
	}
	return &e.sites[*c-1]
}

// compareSites orders sites canonically, by (Y, X).
func compareSites(a, b siteTrack) int {
	if c := cmp.Compare(a.p.Y, b.p.Y); c != 0 {
		return c
	}
	return cmp.Compare(a.p.X, b.p.X)
}

// appendSites writes a sorted site list as a count, its delta-coded
// points and, with pays set, one payload byte per site.
func appendSites(dst []byte, sites []siteTrack, pays bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(sites)))
	prev := lattice.Point{}
	for _, t := range sites {
		dst = appendPoint(dst, prev, t.p)
		prev = t.p
	}
	if pays {
		for _, t := range sites {
			dst = append(dst, t.pay)
		}
	}
	return dst
}

// appendPoints delta-codes a sorted point list: zigzag-varint (dx, dy)
// against the previous point, the first against the origin.
func appendPoints(dst []byte, pts []lattice.Point) []byte {
	prev := lattice.Point{}
	for _, p := range pts {
		dst = appendPoint(dst, prev, p)
		prev = p
	}
	return dst
}

func appendPoint(dst []byte, prev, p lattice.Point) []byte {
	dst = binary.AppendVarint(dst, int64(p.X-prev.X))
	return binary.AppendVarint(dst, int64(p.Y-prev.Y))
}

// A Record is one decoded frame record.
type Record struct {
	// Kind is KindRaw, KindKeyframe, or KindDelta.
	Kind byte
	// Raw is the NDJSON line of a KindRaw record (aliasing the input).
	Raw []byte
	// Snap holds the scalar prelude of a snapshot record.
	Snap Snap
}

// A Decoder reconstructs configurations from a record sequence. It holds
// the current point set (sorted) and payloads, updated by each keyframe or
// delta it decodes. Malformed input returns an error; it never panics.
type Decoder struct {
	pts  []lattice.Point
	pays []uint8

	scratchPts  []lattice.Point
	scratchPays []uint8
	decRem      []lattice.Point
	decAdd      []lattice.Point
	decAddPay   []uint8
	decRot      []lattice.Point
	decRotPay   []uint8
}

// Points returns the current configuration in canonical (Y, X) order. The
// slice is valid until the next Decode call.
func (d *Decoder) Points() []lattice.Point { return d.pts }

// Payloads returns the payload bytes parallel to Points (all zero under
// stateless rules). Valid until the next Decode call.
func (d *Decoder) Payloads() []uint8 { return d.pays }

// Decode decodes one framed record, applying snapshot records to the
// held configuration.
func (d *Decoder) Decode(rec []byte) (Record, error) {
	body, err := recordBody(rec)
	if err != nil {
		return Record{}, err
	}
	switch body[0] {
	case KindRaw:
		return Record{Kind: KindRaw, Raw: body[1:]}, nil
	case KindKeyframe, KindDelta:
		return d.decodeSnapshot(body)
	default:
		return Record{}, ErrCorrupt
	}
}

func (d *Decoder) decodeSnapshot(body []byte) (Record, error) {
	r := cursor{b: body[1:]}
	flags, err := r.byte()
	if err != nil {
		return Record{}, err
	}
	var s Snap
	s.HoleFree = flags&flagHoleFree != 0
	s.SVG = flags&flagSVG != 0
	s.Payloads = flags&flagPayloads != 0
	seq, err := r.uvarint()
	if err != nil {
		return Record{}, err
	}
	s.Seq = int(seq)
	if s.Iteration, err = r.uvarint(); err != nil {
		return Record{}, err
	}
	per, err := r.uvarint()
	if err != nil {
		return Record{}, err
	}
	s.Perimeter = int(per)
	edges, err := r.uvarint()
	if err != nil {
		return Record{}, err
	}
	s.Edges = int(edges)
	energy, err := r.varint()
	if err != nil {
		return Record{}, err
	}
	s.Energy = int(energy)
	if s.Alpha, err = r.float64(); err != nil {
		return Record{}, err
	}
	if s.Beta, err = r.float64(); err != nil {
		return Record{}, err
	}
	if flags&flagBias != 0 {
		if s.Bias, err = r.float64(); err != nil {
			return Record{}, err
		}
	}

	if body[0] == KindKeyframe {
		if d.scratchPts, err = r.points(d.scratchPts[:0]); err != nil {
			return Record{}, err
		}
		d.scratchPays = d.scratchPays[:0]
		if s.Payloads {
			if d.scratchPays, err = r.bytes(d.scratchPays, len(d.scratchPts)); err != nil {
				return Record{}, err
			}
		} else {
			for range d.scratchPts {
				d.scratchPays = append(d.scratchPays, 0)
			}
		}
		if r.len() != 0 {
			return Record{}, ErrCorrupt
		}
		d.pts, d.scratchPts = d.scratchPts, d.pts
		d.pays, d.scratchPays = d.scratchPays, d.pays
		return Record{Kind: KindKeyframe, Snap: s}, nil
	}

	if d.decRem, err = r.points(d.decRem[:0]); err != nil {
		return Record{}, err
	}
	if d.decAdd, err = r.points(d.decAdd[:0]); err != nil {
		return Record{}, err
	}
	d.decAddPay = d.decAddPay[:0]
	d.decRot = d.decRot[:0]
	d.decRotPay = d.decRotPay[:0]
	if s.Payloads {
		if d.decAddPay, err = r.bytes(d.decAddPay, len(d.decAdd)); err != nil {
			return Record{}, err
		}
		if d.decRot, err = r.points(d.decRot); err != nil {
			return Record{}, err
		}
		if d.decRotPay, err = r.bytes(d.decRotPay, len(d.decRot)); err != nil {
			return Record{}, err
		}
	}
	if r.len() != 0 {
		return Record{}, ErrCorrupt
	}
	d.apply(d.decRem, d.decAdd, d.decAddPay, d.decRot, d.decRotPay)
	return Record{Kind: KindDelta, Snap: s}, nil
}

// apply merges a delta into the held configuration: drop removed sites,
// merge in added sites, then patch rotated payloads. All inputs and the
// held set are in canonical order; unknown removals and duplicate
// additions are ignored rather than rejected, so a corrupt-but-parseable
// delta degrades instead of crashing.
func (d *Decoder) apply(removed, added []lattice.Point, addPays []uint8, rotated []lattice.Point, rotPays []uint8) {
	out := d.scratchPts[:0]
	outPay := d.scratchPays[:0]
	j, k := 0, 0
	for i, p := range d.pts {
		for j < len(removed) && removed[j].Less(p) {
			j++ // removal of an unknown site: ignore
		}
		if j < len(removed) && removed[j] == p {
			j++
			continue
		}
		for k < len(added) && added[k].Less(p) {
			out = append(out, added[k])
			outPay = append(outPay, pay(addPays, k))
			k++
		}
		if k < len(added) && added[k] == p {
			k++ // duplicate addition: keep the existing site
		}
		out = append(out, p)
		outPay = append(outPay, pay(d.pays, i))
	}
	for ; k < len(added); k++ {
		out = append(out, added[k])
		outPay = append(outPay, pay(addPays, k))
	}
	d.scratchPts, d.pts = d.pts, out
	d.scratchPays, d.pays = d.pays, outPay
	for idx, p := range rotated {
		at := sort.Search(len(d.pts), func(n int) bool { return !d.pts[n].Less(p) })
		if at < len(d.pts) && d.pts[at] == p {
			d.pays[at] = pay(rotPays, idx)
		}
	}
}

func pay(pays []uint8, i int) uint8 {
	if i < len(pays) {
		return pays[i]
	}
	return 0
}

// cursor is a bounds-checked reader over a record body.
type cursor struct {
	b []byte
}

func (c *cursor) len() int { return len(c.b) }

func (c *cursor) byte() (byte, error) {
	if len(c.b) == 0 {
		return 0, ErrCorrupt
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v, nil
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		return 0, ErrCorrupt
	}
	c.b = c.b[n:]
	return v, nil
}

func (c *cursor) varint() (int64, error) {
	v, n := binary.Varint(c.b)
	if n <= 0 {
		return 0, ErrCorrupt
	}
	c.b = c.b[n:]
	return v, nil
}

func (c *cursor) float64() (float64, error) {
	if len(c.b) < 8 {
		return 0, ErrCorrupt
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.b))
	c.b = c.b[8:]
	return v, nil
}

func (c *cursor) bytes(dst []uint8, n int) ([]uint8, error) {
	if n < 0 || len(c.b) < n {
		return dst, ErrCorrupt
	}
	dst = append(dst, c.b[:n]...)
	c.b = c.b[n:]
	return dst, nil
}

// points reads a delta-coded point list (count prefix included).
func (c *cursor) points(dst []lattice.Point) ([]lattice.Point, error) {
	n, err := c.uvarint()
	if err != nil {
		return dst, err
	}
	// Each point costs at least two bytes; a count beyond that is corrupt
	// and must not drive the allocation below.
	if n > uint64(len(c.b)) {
		return dst, ErrCorrupt
	}
	prev := lattice.Point{}
	for i := uint64(0); i < n; i++ {
		dx, err := c.varint()
		if err != nil {
			return dst, err
		}
		dy, err := c.varint()
		if err != nil {
			return dst, err
		}
		prev = lattice.Point{X: prev.X + int(dx), Y: prev.Y + int(dy)}
		dst = append(dst, prev)
	}
	return dst, nil
}
