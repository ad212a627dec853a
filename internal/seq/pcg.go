package seq

import "math/bits"

// Stream is the fixed second PCG seed word of both sequential engines.
// Every Reset seeds (seed, Stream), so a Reset engine replays a fresh
// engine's randomness exactly.
const Stream = 0x9e3779b97f4a7c15

// PCG is math/rand/v2's PCG generator as a two-word value: a 128-bit LCG
// state (Hi, Lo) with the DXSM output permutation. From equal seeds it
// yields rand.NewPCG's stream word for word, and its draws consume it as
// rand.New(rand.NewPCG(…))'s do (TestDrawHelpersMatchMathRand). Because it
// is a plain value a loop can hold its state in locals; its step and
// output are the separate functions PCGNext and DXSM so that both inline
// into the loop.
type PCG struct{ Hi, Lo uint64 }

// PCGNext returns the LCG state after (hi, lo): state·mul + inc mod 2¹²⁸.
func PCGNext(hi, lo uint64) (uint64, uint64) {
	const (
		mulHi = 2549297995355413924
		mulLo = 4865540595714422341
		incHi = 6364136223846793005
		incLo = 1442695040888963407
	)
	h, l := bits.Mul64(lo, mulLo)
	h += hi*mulLo + lo*mulHi
	l, carry := bits.Add64(l, incLo, 0)
	h, _ = bits.Add64(h, incHi, carry)
	return h, l
}

// DXSM is the output word of the state (hi, lo) the generator just stepped
// to: the "double xorshift multiply" permutation.
func DXSM(hi, lo uint64) uint64 {
	const cheapMul = 0xda942042e4dd58b5
	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	return hi * (lo | 1)
}

// Uint64 advances the generator and returns its next output word.
func (p *PCG) Uint64() uint64 {
	p.Hi, p.Lo = PCGNext(p.Hi, p.Lo)
	return DXSM(p.Hi, p.Lo)
}

// IntN returns a uniform draw from [0, n), n > 0, consuming p exactly as
// rand.New(rand.NewPCG(…)).IntN(n) does on 64-bit platforms.
func (p *PCG) IntN(n int) int { return int(p.uint64n(uint64(n))) }

// uint64n is math/rand/v2's 64-bit Uint64N: a mask for powers of two, else
// Lemire's multiply-shift with the −n % n rejection, whose division runs
// only when the first product's low word falls below n.
func (p *PCG) uint64n(n uint64) uint64 {
	if n&(n-1) == 0 {
		return p.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(p.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(p.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform draw from [0, 1), consuming p exactly as
// rand.New(rand.NewPCG(…)).Float64() does.
func (p *PCG) Float64() float64 { return ToUnit(p.Uint64()) }

// ToUnit maps an output word to [0, 1) as math/rand/v2's Float64 does: its
// low 53 bits over 2⁵³.
func ToUnit(x uint64) float64 { return float64(x<<11>>11) / (1 << 53) }
