package amoebot

import (
	"math"
	"math/rand/v2"
	"testing"
)

// clockSizes are the clock counts FuzzClocks runs over: the degenerate
// trees, both sides of a power of two, the amoebot-line shape and ten
// levels.
var clockSizes = []int{1, 2, 3, 40, 63, 64, 65, 1000}

// clockTime maps an op byte to a time: a small palette that makes exact
// ties common (0 and +Inf included), otherwise a continuous draw.
func clockTime(b byte, rng *rand.Rand) uint64 {
	switch b % 8 {
	case 0:
		return 0
	case 1:
		return math.Float64bits(math.Inf(1))
	case 2, 3:
		return math.Float64bits(float64(b % 4))
	default:
		return math.Float64bits(rng.ExpFloat64() * 8)
	}
}

// FuzzClocks drives a clock tree with random reschedules and removals of
// its winner, as the Poisson scheduler does, and after the build and
// every operation checks the winner against a brute-force argmin over the
// live clocks: its key is the least live key, a lone +Inf clock still
// wins, and only a tree with every clock removed reports empty.
func FuzzClocks(f *testing.F) {
	for i := range clockSizes {
		rng := rand.New(rand.NewPCG(uint64(i), 1))
		ops := make([]byte, 10*clockSizes[i]+64)
		for j := range ops {
			ops[j] = byte(rng.Uint32())
		}
		f.Add(uint8(i), uint64(i), ops)
	}
	f.Fuzz(func(t *testing.T, sel uint8, seed uint64, ops []byte) {
		n := clockSizes[int(sel)%len(clockSizes)]
		rng := rand.New(rand.NewPCG(seed, 2))
		tr := newClockTree(n)
		want := make([]uint64, n)
		for i := range want {
			want[i] = clockTime(byte(rng.Uint32()), rng)
			tr.key[i] = want[i]
		}
		tr.build()
		check := func(op int) {
			t.Helper()
			least := uint64(removed)
			for _, k := range want {
				least = min(least, k)
			}
			w, k := tr.winner()
			if k != least {
				t.Fatalf("n=%d op %d: winner %d has key %#x, least live key is %#x", n, op, w, k, least)
			}
			if k != removed && (int(w) >= n || want[w] != k) {
				t.Fatalf("n=%d op %d: winner %d is not a live clock at %#x", n, op, w, k)
			}
		}
		check(-1)
		for i, b := range ops {
			w, k := tr.winner()
			if k == removed {
				return
			}
			k = removed
			if b>>5 != 0 { // seven reschedules to one removal
				k = clockTime(b, rng)
			}
			tr.replace(k)
			want[w] = k
			check(i)
		}
	})
}
