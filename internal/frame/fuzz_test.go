package frame

import (
	"bytes"
	"math/rand"
	"testing"

	"sops/internal/grid"
	"sops/internal/lattice"
)

// FuzzFrameCodec drives the codec two ways from the same input. First the
// bytes are decoded as a hostile frame log: scanning and decoding must
// never panic, and the incremental scanner must agree with one-shot Split.
// Second the bytes are read as a move script against an authoritative
// grid: the encoded keyframe/delta sequence must decode back to exactly
// the grid's configuration at every snapshot, including after truncating
// any record mid-stream (decode errors are fine, corruption of prior state
// is not).
func FuzzFrameCodec(f *testing.F) {
	// A small valid log: header, keyframe, delta, raw done frame.
	g := grid.New([]lattice.Point{{X: 0}, {X: 1}, {X: 2}}, 0)
	var enc Encoder
	seed := Header()
	seed = append(seed, enc.EncodeSnapshot(Snap{Seq: 0, Alpha: 1.5}, nil, true, g)...)
	var ml MoveLog
	g.Move(lattice.Point{X: 0}, lattice.Point{Y: 1})
	ml.Moved(lattice.Point{X: 0}, lattice.Point{Y: 1}, 0)
	seed = append(seed, enc.EncodeSnapshot(Snap{Seq: 1, Alpha: 1.5}, ml.Drain(), true, g)...)
	seed = AppendRaw(seed, []byte(`{"type":"done","seq":2}`))
	f.Add(seed)
	f.Add(seed[:len(seed)-4])
	f.Add([]byte("SOPF"))
	f.Add([]byte{0x05, 0x02, 0x00, 0x01})
	f.Add(bytes.Repeat([]byte{0xff}, 16))
	// One interval of thousands of moves: every op byte is odd, so no
	// snapshot falls before the script ends.
	long := make([]byte, 2*maxScriptOps)
	rand.New(rand.NewSource(1)).Read(long)
	for i := 1; i < len(long); i += 2 {
		long[i] |= 1
	}
	f.Add(long)

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode(t, data)
		fuzzRoundTrip(t, data)
	})
}

// fuzzDecode treats data as a frame log from an untrusted peer.
func fuzzDecode(t *testing.T, data []byte) {
	recs, _ := Split(data)
	var d Decoder
	for _, rec := range recs {
		if _, err := d.Decode(rec); err != nil {
			continue
		}
		if len(d.Points()) != len(d.Payloads()) {
			t.Fatalf("points/payloads diverged: %d vs %d", len(d.Points()), len(d.Payloads()))
		}
	}
	// The incremental scanner must yield the same records as Split.
	var sc Scanner
	for _, b := range data {
		sc.Write([]byte{b})
	}
	for i := 0; ; i++ {
		rec, ok := sc.Next()
		if !ok {
			if i != len(recs) && sc.Err() == nil {
				t.Fatalf("scanner yielded %d records, Split %d", i, len(recs))
			}
			break
		}
		if i >= len(recs) || !bytes.Equal(rec, recs[i]) {
			t.Fatalf("scanner record %d diverges from Split", i)
		}
	}
}

// maxScriptOps caps the ops fuzzRoundTrip reads from one input.
const maxScriptOps = 4096

// fuzzRoundTrip reads data as a move script: two bytes per op over a small
// payload-enabled grid, snapshotting every few ops.
func fuzzRoundTrip(t *testing.T, data []byte) {
	pts := []lattice.Point{{X: 0}, {X: 1}, {X: 2}, {X: 0, Y: 1}, {X: 1, Y: 1}}
	g := grid.New(pts, 0)
	g.EnablePayload()
	enc := Encoder{KeyframeEvery: 3}
	var dec Decoder
	var log MoveLog
	pts = g.AppendPoints(pts[:0])
	seq := 0
	snapshot := func() {
		s := Snap{
			Seq: seq, Iteration: uint64(seq), Perimeter: g.Perimeter(),
			Edges: g.Edges(), Energy: -g.Edges(), Alpha: 1.0, Beta: 2.0,
			Payloads: true,
		}
		rec := enc.EncodeSnapshot(s, log.Drain(), true, g)
		// Truncated copies must error or no-op, never panic; state checks
		// below only apply to the intact record.
		if len(rec) > 1 {
			var scratch Decoder
			scratch.Decode(rec[:len(rec)/2])
		}
		r, err := dec.Decode(rec)
		if err != nil {
			t.Fatalf("seq %d: decode: %v", seq, err)
		}
		if r.Snap != s {
			t.Fatalf("seq %d: snap mismatch: %+v != %+v", seq, r.Snap, s)
		}
		want := g.AppendPoints(nil)
		got := dec.Points()
		if len(got) != len(want) {
			t.Fatalf("seq %d: %d points, want %d", seq, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seq %d: point %d = %v, want %v", seq, i, got[i], want[i])
			}
			if dec.Payloads()[i] != g.Payload(want[i]) {
				t.Fatalf("seq %d: payload at %v = %d, want %d",
					seq, want[i], dec.Payloads()[i], g.Payload(want[i]))
			}
		}
		seq++
	}
	for i := 0; i+1 < len(data) && i < 2*maxScriptOps; i += 2 {
		a, b := data[i], data[i+1]
		idx := int(a) % len(pts)
		p := pts[idx]
		switch a % 3 {
		case 0: // rotate
			g.SetPayload(p, b%6)
			log.Rotated(p, b%6)
		default: // hop to a nearby free site
			q := lattice.Point{X: p.X + int(b%5) - 2, Y: p.Y + int(b/5%5) - 2}
			if q != p && !g.Has(q) {
				pay := g.Payload(p)
				g.Move(p, q)
				g.SetPayload(q, pay)
				log.Moved(p, q, pay)
				pts[idx] = q
			}
		}
		if b%4 == 0 {
			snapshot()
		}
	}
	snapshot()
}
