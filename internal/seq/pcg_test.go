package seq

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"testing"
)

// TestDrawHelpersMatchMathRand pins the engines' generator to math/rand/v2.
// For many seeds it requires the PCG value's raw output words to equal
// rand.NewPCG's, then draws the interleaving a chain step uses — a
// particle index, a slot, a Metropolis coin — once through IntN (uint64n
// for n beyond int) and Float64 on a PCG and once through
// rand.New(rand.NewPCG(seed, Stream)), and requires equal outputs and
// equally advanced streams. The chain's reference oracle draws through
// math/rand/v2 itself, so the trajectory tests catch a generator bug too;
// this test names it. If a Go release changes these algorithms, it fails
// by name instead of every golden shifting.
func TestDrawHelpersMatchMathRand(t *testing.T) {
	if bits.UintSize != 64 {
		// math/rand/v2 draws n < 2^32 through a 32-bit path there; the
		// helpers always take the 64-bit one, so trajectories match 64-bit
		// hosts' goldens instead.
		t.Skip("math/rand/v2 uses its 32-bit IntN on this platform")
	}
	cases := []struct {
		name string
		n    uint64
	}{
		{"1 (mask path)", 1},
		{"6", 6},
		{"7", 7},
		{"8 (mask path)", 8},
		{"100", 100},
		{"1000", 1000},
		{"2^63+1 (about half the draws rejected)", 1<<63 + 1},
	}
	// Slot counts of compression (6), two-state alignment (7) and a rule
	// whose slot count is a power of two (8).
	slots := []int{6, 7, 8}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(0); seed < 200; seed++ {
				raw, ref := PCG{seed, Stream}, rand.NewPCG(seed, Stream)
				for k := 0; k < 300; k++ {
					if got, want := raw.Uint64(), ref.Uint64(); got != want {
						t.Fatalf("seed %d word %d: PCG %#x, rand.NewPCG %#x", seed, k, got, want)
					}
				}
				p := &PCG{seed, Stream}
				r := rand.New(rand.NewPCG(seed, Stream))
				for k := 0; k < 100; k++ {
					var got, want uint64
					if tc.n <= math.MaxInt {
						got, want = uint64(p.IntN(int(tc.n))), uint64(r.IntN(int(tc.n)))
					} else {
						got, want = p.uint64n(tc.n), r.Uint64N(tc.n)
					}
					if got != want {
						t.Fatalf("seed %d draw %d: IntN(%d) = %d, math/rand/v2 %d", seed, k, tc.n, got, want)
					}
					s := slots[k%len(slots)]
					if got, want := p.IntN(s), r.IntN(s); got != want {
						t.Fatalf("seed %d draw %d: IntN(%d) = %d, math/rand/v2 %d", seed, k, s, got, want)
					}
					if got, want := p.Float64(), r.Float64(); got != want {
						t.Fatalf("seed %d draw %d: Float64 = %v, math/rand/v2 %v", seed, k, got, want)
					}
				}
				if got, want := p.Uint64(), r.Uint64(); got != want {
					t.Fatalf("seed %d: streams advanced differently (next word %#x, math/rand/v2 %#x)", seed, got, want)
				}
			}
		})
	}
}

// TestPCGAsSource pins *PCG as a rand.Source, the way the amoebot Poisson
// scheduler uses it: one stream feeds direct IntN and Float64 draws and
// rand.New(&p)'s draws, ExpFloat64 among them, interleaved. It requires
// each draw to equal rand.New(rand.NewPCG(seed, s))'s and the streams to
// end equally advanced. Its 2·10⁵ ExpFloat64 draws reach the ziggurat's
// rejection and tail paths; the test requires a draw beyond the tail's
// start, which only the tail path returns.
func TestPCGAsSource(t *testing.T) {
	// The start of the exponential ziggurat's tail in math/rand/v2.
	const tailStart = 7.69711747013104972
	const stream = 0x5bd1e995
	tail := 0
	for seed := uint64(0); seed < 10; seed++ {
		p := PCG{seed, stream}
		r := rand.New(&p)
		ref := rand.New(rand.NewPCG(seed, stream))
		for k := 0; k < 20_000; k++ {
			if got, want := p.IntN(6), ref.IntN(6); got != want {
				t.Fatalf("seed %d draw %d: IntN(6) = %d, math/rand/v2 %d", seed, k, got, want)
			}
			got, want := r.ExpFloat64(), ref.ExpFloat64()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d draw %d: ExpFloat64 = %v, math/rand/v2 %v", seed, k, got, want)
			}
			if got > tailStart {
				tail++
			}
			if got, want := p.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d draw %d: Float64 = %v, math/rand/v2 %v", seed, k, got, want)
			}
			if got, want := r.IntN(7), ref.IntN(7); got != want {
				t.Fatalf("seed %d draw %d: rand.New(&p).IntN(7) = %d, math/rand/v2 %d", seed, k, got, want)
			}
		}
		if got, want := p.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("seed %d: streams advanced differently (next word %#x, math/rand/v2 %#x)", seed, got, want)
		}
	}
	if tail == 0 {
		t.Fatal("no ExpFloat64 draw came from the ziggurat's tail")
	}
}
