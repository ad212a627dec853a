package serve

import (
	"context"
	"encoding/json"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"sops/internal/frame"
	"sops/internal/grid"
	"sops/internal/lattice"
	"sops/internal/runner"
)

// BenchmarkSnapshotEncode measures the legacy full-state per-frame cost:
// render the configuration's SVG into the reused buffer (the runner's
// snapshotter discipline) and marshal the NDJSON frame. This is the
// baseline the binary delta path (BenchmarkFrameDelta) is compared
// against; the bench gate holds both so streaming stays cheap enough to
// run on every snapshot boundary.
func BenchmarkSnapshotEncode(b *testing.B) {
	res, err := runner.Compress(runner.Options{
		N: 50, Lambda: 4, Iterations: 200_000, Seed: 1, Start: runner.StartSpiral,
	})
	if err != nil {
		b.Fatal(err)
	}
	snap := runner.Snapshot{
		Iteration: res.Iterations, Perimeter: res.Perimeter, Edges: res.Edges,
		Energy: res.Energy, Alpha: res.Alpha, Beta: res.Beta, HoleFree: res.HoleFree,
	}
	var svgBuf []byte
	var total int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svgBuf = res.AppendSVG(svgBuf[:0])
		f := snap
		f.SVG = string(svgBuf)
		line, merr := json.Marshal(Frame{Type: FrameSnapshot, Snapshot: &f})
		if merr != nil {
			b.Fatal(merr)
		}
		total += len(line)
	}
	b.ReportMetric(float64(total)/float64(b.N), "frame_bytes")
}

// BenchmarkSnapshotEncodeNoSVG isolates the metrics-only frame (the sweep
// streaming default).
func BenchmarkSnapshotEncodeNoSVG(b *testing.B) {
	snap := runner.Snapshot{Iteration: 123456, Perimeter: 42, Edges: 120, Energy: 120, Alpha: 1.4, Beta: 0.2, HoleFree: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(Frame{Type: FrameSnapshot, Snapshot: &snap}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameDelta measures the binary streaming path over the same
// configuration as BenchmarkSnapshotEncode: one delta record per snapshot
// interval, with the encoder's keyframe cadence included so the reported
// ns/op and frame_bytes are the honest amortized per-frame cost.
func BenchmarkFrameDelta(b *testing.B) {
	res, err := runner.Compress(runner.Options{
		N: 50, Lambda: 4, Iterations: 200_000, Seed: 1, Start: runner.StartSpiral,
	})
	if err != nil {
		b.Fatal(err)
	}
	g := grid.New(res.Points, 0)
	// An interval's coalesced move list: two boundary particles step to a
	// free neighbor — the typical net change between snapshot boundaries.
	sorted := g.AppendPoints(nil)
	freeNeighbor := func(p lattice.Point) lattice.Point {
		for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
			if q := p.Neighbor(d); !g.Has(q) {
				return q
			}
		}
		return p
	}
	lo, hi := sorted[0], sorted[len(sorted)-1]
	moves := []frame.Move{
		{From: lo, To: freeNeighbor(lo)},
		{From: hi, To: freeNeighbor(hi)},
	}
	snap := frame.Snap{
		Iteration: res.Iterations, Perimeter: res.Perimeter, Edges: res.Edges,
		Energy: res.Energy, Alpha: res.Alpha, Beta: res.Beta,
		HoleFree: res.HoleFree, SVG: true,
	}
	var enc frame.Encoder
	var total int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Seq = i
		total += len(enc.EncodeSnapshot(snap, moves, true, g))
	}
	b.ReportMetric(float64(total)/float64(b.N), "frame_bytes")
}

// BenchmarkFrameDeltaInterval measures the frame encoder on the intervals
// a serve run job streams: ten 20k-step chain intervals at n=50, λ=4 from
// a line (about 1,350 accepted moves each while the line compresses),
// recorded once with each snapshot's grid, then encoded by a fresh encoder
// per op — one keyframe and nine coalesced deltas. BenchmarkFrameDelta's
// two-move interval hides the coalescing cost this one reports.
func BenchmarkFrameDeltaInterval(b *testing.B) {
	type interval struct {
		snap  frame.Snap
		moves []frame.Move
		grid  *grid.Grid
	}
	var ivs []interval
	_, err := runner.Compress(runner.Options{
		N: 50, Lambda: 4, Iterations: 200_000, Seed: 1, SnapshotEvery: 20_000,
		DeltaFunc: func(s runner.Snapshot, d runner.Delta) {
			ivs = append(ivs, interval{
				snap: frame.Snap{
					Seq: len(ivs), Iteration: s.Iteration, Perimeter: s.Perimeter,
					Edges: s.Edges, Energy: s.Energy, Alpha: s.Alpha, Beta: s.Beta,
					HoleFree: s.HoleFree,
				},
				moves: slices.Clone(d.Moves),
				grid:  d.Grid.Clone(),
			})
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	var total int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var enc frame.Encoder
		for _, iv := range ivs {
			total += len(enc.EncodeSnapshot(iv.snap, iv.moves, true, iv.grid))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ivs)), "ns/frame")
	b.ReportMetric(float64(total)/float64(b.N*len(ivs)), "frame_bytes")
}

// BenchmarkStreamFanout measures publish with live followers: one
// publisher appending metrics frames, 8 binary followers draining them.
// The per-op cost is what every snapshot boundary pays while clients
// watch — the encode happens once and the same record bytes fan out.
func BenchmarkStreamFanout(b *testing.B) {
	const followers = 8
	st := newStream()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var consumed atomic.Int64
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = st.followRecords(ctx, func(rec []byte) error {
				consumed.Add(1)
				return nil
			})
		}()
	}
	snap := runner.Snapshot{Iteration: 123456, Perimeter: 42, Edges: 120, Energy: 120, Alpha: 1.4, Beta: 0.2, HoleFree: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.publish(Frame{Type: FrameSnapshot, Snapshot: &snap})
	}
	st.close()
	wg.Wait()
	b.StopTimer()
	if got, want := consumed.Load(), int64(followers)*int64(b.N); got != want {
		b.Fatalf("followers consumed %d records, want %d", got, want)
	}
}
