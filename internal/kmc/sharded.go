package kmc

// Domain-decomposed (stripe-sharded) rejection-free kMC for compression at
// a fixed λ. No run path reaches this engine: the repository benchmark's
// traced mode runs it beside the sequential Chain to report what stripe
// sharding would gain on the host (kmc.sharded2_speedup).
//
// The grid is cut into horizontal stripes of rows. Every (particle, slot)
// pair is classified by geometry alone: a translation slot is *interior* to
// the stripe owning the particle's row when both endpoints lie at least
// `halo` rows away from the stripe's cuts, and a *boundary* slot otherwise.
// Time advances in super-rounds of τ Metropolis-equivalent steps:
//
//  1. Parallel phase — each stripe runs the rejection-free chain restricted
//     to its interior slots for τ steps, concurrently. A stripe only writes
//     rows of its own interior and only reads rows within 5 of them; with
//     halo = 6 the read/write sets of adjacent stripes are disjoint (the
//     closest two interiors can come to each other is 13 rows), the grid
//     stores rows in distinct words, so the phase is both race-free and
//     deterministic without any locking. Each stripe owns a Fenwick tree
//     over its members' interior weights, a private RNG, and private event
//     counters; shared counters (e(σ), events) are accumulated as local
//     deltas and folded in at the barrier.
//  2. Boundary phase — one sequential rejection-free chain runs the
//     complementary move set (every boundary slot, all stripes) for the
//     same τ steps, migrating particles across cuts and refreshing both the
//     affected stripes' interior weights and the boundary weights.
//
// Each slot is therefore offered exactly τ firing opportunities per round —
// the same expectation as τ steps of the sequential chain — and the round
// counts as τ steps. Every phase is a Metropolis kernel restricted by a
// state-independent geometric predicate, so each preserves π, and their
// composition does too: trajectories are statistically (not byte-)
// equivalent to the sequential engine. Holds are resampled at every phase
// entry, which geometric memorylessness makes exact.
//
// A stripe that would need a grid reallocation mid-phase (a move into the
// window border, or outside the particle index) *pauses*: it records the
// already-sampled event and its remaining steps, and finishes sequentially
// after the barrier, when growing is safe. Interior kernels of distinct
// stripes commute (disjoint dependence zones), so the late completion is
// distributionally identical to having run concurrently.

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"sort"
	"sync"

	"sops/internal/config"
	"sops/internal/grid"
	"sops/internal/lattice"
	"sops/internal/rule"
)

// halo is the number of rows a stripe's interior keeps clear of each cut.
// It must be ≥ 6: a stripe writes occupancy only in interior rows, reads at
// most 5 rows beyond them (an 11×11 dirty super-window), and two adjacent
// interiors are separated by 2·halo+1 ≥ 13 rows, so no stripe ever reads a
// row another stripe writes.
const halo = 6

// minStripeRows is the minimum row span of an interior stripe; thinner
// stripes would have empty interiors and only add barrier overhead, so cut
// selection merges them.
const minStripeRows = 2*halo + 2

// rebalanceEvery is the number of super-rounds between exact global
// rebuilds: cuts are re-chosen from the current particle distribution and
// every weight and Fenwick tree is recomputed from scratch, squashing
// floating-point drift and re-equalizing stripe load. Resharding sorts all
// particle rows (O(n log n)), so it is paced well below the per-stripe
// Fenwick rebuild cadence.
const rebalanceEvery = 256

// stripe is one row-range shard of the decomposition.
type stripe struct {
	id           int
	intLo, intHi int // interior rows; moves stay within [intLo, intHi]

	members []int32 // particle ids homed in this stripe, unordered
	fen     *fenwick
	rng     *rand.Rand

	hold     uint64
	remSteps uint64 // steps left when the stripe paused mid-phase
	pendID   int32  // pending sampled event: particle …
	pendDir  lattice.Dir
	paused   bool

	// Phase-local accumulators, folded into the shared state at the
	// barrier.
	events, moves  uint64
	eDelta         int
	evSinceRebuild int

	// bndTouch collects particles whose boundary weight must be refreshed
	// at the barrier (the mover plus every dirty boundary-active cell).
	bndTouch []int32
	dirtyBuf []grid.CellWindow
}

// Sharded is a stripe-decomposed rejection-free compression chain at a
// fixed λ. Trajectories are statistically equivalent to the sequential
// engine but not byte-identical (the decomposition reorders events). It is
// deterministic given (σ0, λ, seed, shards). Not safe for concurrent use.
type Sharded struct {
	g      *grid.Grid
	wTab   [256]float64
	points []lattice.Point
	idx    *pindex
	n      int

	cuts    []int // cuts[j] is the first row of stripe j+1
	stripes []*stripe
	want    int          // requested shard count; the effective count adapts
	rngs    []*rand.Rand // per-stripe streams, persistent across reshards
	home    []int32      // home[i] is the stripe owning particle i's row
	pos     []int32      // pos[i] is particle i's index in its home's members

	// wInt[i] is particle i's interior weight within its home stripe
	// (mirrored by that stripe's Fenwick tree); wBnd[i] its boundary
	// (complement) weight, mirrored by bndFen. wInt[i]+wBnd[i] is the
	// particle's full acceptance weight.
	wInt, wBnd []float64
	bndFen     *fenwick
	bndRng     *rand.Rand
	bndHold    uint64
	bndEvSince int

	roundSteps uint64 // super-round length τ, max(1024, n)
	rounds     int

	steps, events, moves uint64
	dirtyBuf             []grid.CellWindow
	yScratch             []int
}

// dirDY[d] is the row delta of a move in direction d (always in {−1, 0, 1}).
var dirDY = func() (dy [lattice.NumDirs]int) {
	for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
		dy[d] = d.Vec().Y
	}
	return dy
}()

// NewSharded creates a stripe-sharded rejection-free compression chain with
// the requested number of shards (≥ 1; the effective count may be lower
// when the configuration spans too few rows).
func NewSharded(sigma0 *config.Config, lambda float64, seed uint64, shards int) (*Sharded, error) {
	if err := rule.ValidateLambda(lambda); err != nil {
		return nil, fmt.Errorf("kmc: %w", err)
	}
	if shards < 1 {
		return nil, fmt.Errorf("kmc: shard count must be ≥ 1, got %d", shards)
	}
	if sigma0.N() == 0 {
		return nil, fmt.Errorf("kmc: empty starting configuration")
	}
	if !sigma0.Connected() {
		return nil, fmt.Errorf("kmc: starting configuration must be connected")
	}
	s := &Sharded{
		wTab:   rule.Compression(lambda).WeightTable(),
		points: sigma0.Points(),
	}
	s.n = len(s.points)
	s.g = grid.New(s.points, 0)
	s.idx = newPindex(s.points)
	s.wInt = make([]float64, s.n)
	s.wBnd = make([]float64, s.n)
	s.home = make([]int32, s.n)
	s.pos = make([]int32, s.n)
	s.bndFen = newFenwick(s.n)
	s.bndRng = rand.New(rand.NewPCG(seed, rngStream))
	s.want = shards
	// One deterministic PCG stream per potential stripe, persistent across
	// reshards: rebalancing changes geometry, never how randomness is
	// consumed relative to stripe identity. The boundary sampler uses the
	// base stream.
	s.rngs = make([]*rand.Rand, shards)
	for j := range s.rngs {
		s.rngs[j] = rand.New(rand.NewPCG(seed, rngStream+uint64(j)+1))
	}
	s.roundSteps = uint64(max(1024, s.n))
	s.reshard()
	return s, nil
}

// reshard cuts the current particle distribution into at most s.want
// stripes of roughly equal particle count (merging stripes thinner than
// minStripeRows) and rebuilds every derived structure — members, home,
// interior and boundary weights, and all Fenwick trees — exactly from the
// grid. It doubles as the periodic exact rebuild that squashes
// floating-point drift.
func (s *Sharded) reshard() {
	ys := s.yScratch[:0]
	for _, p := range s.points {
		ys = append(ys, p.Y)
	}
	sort.Ints(ys)
	s.yScratch = ys

	s.cuts = s.cuts[:0]
	for j := 1; j < s.want; j++ {
		c := ys[j*s.n/s.want]
		lo := ys[0]
		if len(s.cuts) > 0 {
			lo = s.cuts[len(s.cuts)-1]
		}
		// Keep stripes at least minStripeRows tall (measured between cuts
		// over the occupied span) so interiors are nonempty.
		if c-lo >= minStripeRows && ys[s.n-1]-c >= minStripeRows {
			s.cuts = append(s.cuts, c)
		}
	}

	ns := len(s.cuts) + 1
	for len(s.stripes) < ns {
		s.stripes = append(s.stripes, &stripe{})
	}
	s.stripes = s.stripes[:ns]
	for j, st := range s.stripes {
		st.id = j
		st.intLo, st.intHi = math.MinInt32, math.MaxInt32
		if j > 0 {
			st.intLo = s.cuts[j-1] + halo
		}
		if j < ns-1 {
			st.intHi = s.cuts[j] - 1 - halo
		}
		st.rng = s.rngs[j]
	}
	s.rebuildWeights()
}

// rebuildWeights recomputes home, members, wInt, wBnd, and every Fenwick
// tree exactly from the grid.
func (s *Sharded) rebuildWeights() {
	for _, st := range s.stripes {
		st.members = st.members[:0]
		if st.fen == nil {
			st.fen = newFenwick(s.n)
		} else {
			st.fen.reset(s.n)
		}
	}
	s.bndFen.reset(s.n)
	for i, p := range s.points {
		j := s.shardOf(p.Y)
		st := s.stripes[j]
		s.home[i] = int32(j)
		s.pos[i] = int32(len(st.members))
		st.members = append(st.members, int32(i))
		win := s.g.Window(p)
		s.wInt[i] = s.weightInterior(win, p.Y, st)
		s.wBnd[i] = s.weightBoundary(win, p.Y, st)
		if s.wInt[i] != 0 {
			st.fen.add(i, s.wInt[i])
		}
		if s.wBnd[i] != 0 {
			s.bndFen.add(i, s.wBnd[i])
		}
	}
}

// shardOf returns the stripe index owning row y.
func (s *Sharded) shardOf(y int) int {
	for j, c := range s.cuts {
		if y < c {
			return j
		}
	}
	return len(s.cuts)
}

// interiorDir reports whether the slot (row y, direction d) is interior to
// stripe st: both endpoints within [intLo, intHi].
func (st *stripe) interiorDir(y int, d int) bool {
	ny := y + dirDY[d]
	return y >= st.intLo && y <= st.intHi && ny >= st.intLo && ny <= st.intHi
}

// active reports whether a particle on row y has any boundary slot.
func (st *stripe) active(y int) bool { return y <= st.intLo || y >= st.intHi }

// weightInterior sums the slot weights of the interior directions of a
// particle on row y of stripe st, from its extracted window, in direction
// order (fixed fold, bit-reproducible).
func (s *Sharded) weightInterior(win grid.Window, y int, st *stripe) float64 {
	if y < st.intLo || y > st.intHi {
		return 0
	}
	pm := win.Packed()
	empty := ^pm.NeighborMask() & (1<<lattice.NumDirs - 1)
	var sum float64
	for ; empty != 0; empty &= empty - 1 {
		d := bits.TrailingZeros8(empty)
		if ny := y + dirDY[d]; ny >= st.intLo && ny <= st.intHi {
			sum += s.wTab[uint8(pm>>(8*d))]
		}
	}
	return sum
}

// weightBoundary sums the slot weights of the non-interior directions.
func (s *Sharded) weightBoundary(win grid.Window, y int, st *stripe) float64 {
	if !st.active(y) {
		return 0
	}
	pm := win.Packed()
	empty := ^pm.NeighborMask() & (1<<lattice.NumDirs - 1)
	var sum float64
	for ; empty != 0; empty &= empty - 1 {
		d := bits.TrailingZeros8(empty)
		if !st.interiorDir(y, d) {
			sum += s.wTab[uint8(pm>>(8*d))]
		}
	}
	return sum
}

// Run advances the chain by exactly n Metropolis-equivalent iterations,
// in super-rounds of at most roundSteps, and returns the events fired.
func (s *Sharded) Run(n uint64) uint64 {
	var fired uint64
	for n > 0 {
		tau := min(s.roundSteps, n)
		fired += s.runRound(tau)
		n -= tau
	}
	return fired
}

// runRound executes one super-round of tau steps: concurrent interior
// phases, sequential completion of paused stripes, counter merge, boundary
// refresh, then the sequential boundary phase.
func (s *Sharded) runRound(tau uint64) uint64 {
	var wg sync.WaitGroup
	for _, st := range s.stripes {
		wg.Add(1)
		go func(st *stripe) {
			defer wg.Done()
			s.runInterior(st, tau, false)
		}(st)
	}
	wg.Wait()

	var fired uint64
	for _, st := range s.stripes {
		// Finish paused stripes now that growing the window is safe.
		// Interior kernels commute, so the deferred tail is exact.
		if st.paused {
			st.paused = false
			s.applyInterior(st, st.pendID, st.pendDir, true)
			s.runInterior(st, st.remSteps, true)
		}
		s.events += st.events
		s.moves += st.moves
		fired += st.events
		s.g.AddEdgeCount(st.eDelta)
		st.events, st.moves, st.eDelta = 0, 0, 0
		for _, i := range st.bndTouch {
			s.refreshBoundary(i)
		}
		st.bndTouch = st.bndTouch[:0]
	}

	fired += s.runBoundary(tau)
	s.steps += tau

	if s.rounds++; s.rounds%rebalanceEvery == 0 {
		s.reshard()
	}
	return fired
}

// runInterior advances one stripe's restricted chain by tau steps. With
// allowGrow false (the concurrent phase) a move that would reallocate the
// grid window or the particle index pauses the stripe instead; with
// allowGrow true (sequential completion) it grows in place.
func (s *Sharded) runInterior(st *stripe, tau uint64, allowGrow bool) {
	st.hold = 0 // weights may have changed since the last phase; resample
	for tau > 0 {
		if st.hold == 0 {
			s.sampleStripeHold(st)
		}
		if st.hold > tau {
			st.hold -= tau
			return
		}
		tau -= st.hold
		st.hold = 0
		if !s.fireInterior(st, allowGrow) && st.paused {
			st.remSteps = tau
			return
		}
	}
}

// sampleStripeHold draws the stripe's geometric hold against the full
// chain's step clock: p = W_interior / (slots · n).
func (s *Sharded) sampleStripeHold(st *stripe) {
	p := st.fen.total() / float64(lattice.NumDirs*s.n)
	st.hold = holdFrom(p, st.rng)
}

func holdFrom(p float64, rng *rand.Rand) uint64 {
	if p <= 0 {
		return math.MaxUint64
	}
	if p >= 1 {
		return 1
	}
	k := math.Floor(math.Log1p(-rng.Float64()) / math.Log1p(-p))
	if math.IsNaN(k) || k >= math.MaxUint64/2 {
		return math.MaxUint64
	}
	return 1 + uint64(k)
}

// fireInterior samples and applies one interior event of the stripe. It
// returns false without applying when drift leaves no sampleable weight
// (caller resamples the hold) or when the stripe pauses (st.paused set).
func (s *Sharded) fireInterior(st *stripe, allowGrow bool) bool {
	W := st.fen.total()
	i := int32(st.fen.find(st.rng.Float64() * W))
	if s.home[i] != int32(st.id) || s.wInt[i] == 0 {
		// Drift routed the prefix search onto a leaf this stripe does not
		// own (or owns with zero weight): rebuild exactly and retry once.
		s.rebuildStripeFen(st)
		if st.fen.total() <= 0 {
			return false
		}
		i = int32(st.fen.find(st.rng.Float64() * st.fen.total()))
		if s.home[i] != int32(st.id) || s.wInt[i] == 0 {
			return false
		}
	}

	l := s.points[i]
	// Direction ∝ interior slot weight, freshly recomputed (the sum is
	// the authoritative wInt[i] by construction).
	var ws [lattice.NumDirs]float64
	var sum float64
	pm := s.g.Window(l).Packed()
	for d := 0; d < lattice.NumDirs; d++ {
		if pm.NeighborMask()>>d&1 == 0 && st.interiorDir(l.Y, d) {
			ws[d] = s.wTab[uint8(pm>>(8*d))]
			sum += ws[d]
		}
	}
	if sum == 0 {
		// The maintained weight disagreed with the fresh recomputation;
		// repair the leaf to its true (zero) value and skip the event.
		st.fen.add(int(i), -s.wInt[i])
		s.wInt[i] = 0
		return false
	}
	v := st.rng.Float64() * sum
	d := lattice.Dir(lattice.NumDirs - 1)
	for dd := lattice.Dir(0); dd < lattice.NumDirs; dd++ {
		if v -= ws[dd]; v < 0 {
			d = dd
			break
		}
	}
	if ws[d] == 0 {
		for dd := lattice.Dir(lattice.NumDirs - 1); dd >= 0; dd-- {
			if ws[dd] > 0 {
				d = dd
				break
			}
		}
	}

	dst := l.Neighbor(d)
	if s.g.NearBorder(dst) || !s.idx.contains(dst) {
		if !allowGrow {
			// Growing reallocates shared arrays; defer past the barrier.
			st.paused = true
			st.pendID, st.pendDir = i, d
			return false
		}
		s.g.EnsureRoom(dst)
		if !s.idx.contains(dst) {
			s.idx.reshape(s.points)
		}
	}
	s.applyInterior(st, i, d, allowGrow)
	return true
}

// applyInterior applies a sampled interior event (move of particle i in
// direction d) and re-classifies the dirty neighborhood's interior and
// boundary weights. Boundary refreshes are deferred to the barrier via
// bndTouch: the boundary Fenwick tree is shared across stripes.
func (s *Sharded) applyInterior(st *stripe, i int32, d lattice.Dir, allowGrow bool) {
	l := s.points[i]
	dst := l.Neighbor(d)
	if allowGrow {
		s.g.EnsureRoom(dst)
		if !s.idx.contains(dst) {
			s.idx.reshape(s.points)
		}
	}
	st.eDelta += s.g.MoveUncounted(l, dst)
	s.points[i] = dst
	s.idx.clear(l)
	s.idx.set(dst, i, s.points)
	st.events++
	st.moves++

	st.dirtyBuf = s.g.DirtyWindows(l, d, st.dirtyBuf[:0])
	for _, cw := range st.dirtyBuf {
		j := s.idx.at(cw.P)
		w := s.weightInterior(cw.Win, cw.P.Y, st)
		if w != s.wInt[j] {
			st.fen.add(int(j), w-s.wInt[j])
			s.wInt[j] = w
		}
		// A refresh is owed when the cell sits on an active row now, or
		// held boundary weight before (a mover can leave the active zone,
		// and its old wBnd must be zeroed at the barrier). Reading wBnd is
		// phase-safe: it is written only in sequential sections, and j is
		// homed in this stripe.
		if st.active(cw.P.Y) || s.wBnd[j] != 0 {
			st.bndTouch = append(st.bndTouch, j)
		}
	}

	if st.evSinceRebuild++; st.evSinceRebuild >= rebuildEvery {
		s.rebuildStripeFen(st)
	}
}

// rebuildStripeFen resets the stripe's tree exactly from its members'
// weights. It reads only stripe-owned state, so it is safe concurrently.
func (s *Sharded) rebuildStripeFen(st *stripe) {
	st.fen.reset(s.n)
	for _, m := range st.members {
		if s.wInt[m] != 0 {
			st.fen.add(int(m), s.wInt[m])
		}
	}
	st.evSinceRebuild = 0
}

// refreshBoundary recomputes particle i's boundary weight from the current
// grid and home stripe, updating the shared boundary tree. Called only from
// sequential sections.
func (s *Sharded) refreshBoundary(i int32) {
	p := s.points[i]
	st := s.stripes[s.home[i]]
	var w float64
	if st.active(p.Y) {
		w = s.weightBoundary(s.g.Window(p), p.Y, st)
	}
	if w != s.wBnd[i] {
		s.bndFen.add(int(i), w-s.wBnd[i])
		s.wBnd[i] = w
	}
}

// runBoundary runs the sequential boundary-slot chain for tau steps and
// returns the number of events fired.
func (s *Sharded) runBoundary(tau uint64) uint64 {
	var fired uint64
	s.bndHold = 0
	for tau > 0 {
		if s.bndHold == 0 {
			s.bndHold = holdFrom(s.bndFen.total()/float64(lattice.NumDirs*s.n), s.bndRng)
		}
		if s.bndHold > tau {
			return fired
		}
		tau -= s.bndHold
		s.bndHold = 0
		if s.fireBoundary() {
			fired++
		}
	}
	return fired
}

// fireBoundary samples and applies one boundary event, handling stripe
// migration and refreshing every affected tree.
func (s *Sharded) fireBoundary() bool {
	W := s.bndFen.total()
	i := int32(s.bndFen.find(s.bndRng.Float64() * W))
	if s.wBnd[i] == 0 {
		s.rebuildBoundaryFen()
		if s.bndFen.total() <= 0 {
			return false
		}
		i = int32(s.bndFen.find(s.bndRng.Float64() * s.bndFen.total()))
		if s.wBnd[i] == 0 {
			return false
		}
	}

	l := s.points[i]
	st := s.stripes[s.home[i]]
	var ws [lattice.NumDirs]float64
	var sum float64
	pm := s.g.Window(l).Packed()
	for d := 0; d < lattice.NumDirs; d++ {
		if pm.NeighborMask()>>d&1 == 0 && !st.interiorDir(l.Y, d) {
			ws[d] = s.wTab[uint8(pm>>(8*d))]
			sum += ws[d]
		}
	}
	if sum == 0 {
		s.bndFen.add(int(i), -s.wBnd[i])
		s.wBnd[i] = 0
		return false
	}
	v := s.bndRng.Float64() * sum
	d := lattice.Dir(lattice.NumDirs - 1)
	for dd := lattice.Dir(0); dd < lattice.NumDirs; dd++ {
		if v -= ws[dd]; v < 0 {
			d = dd
			break
		}
	}
	if ws[d] == 0 {
		for dd := lattice.Dir(lattice.NumDirs - 1); dd >= 0; dd-- {
			if ws[dd] > 0 {
				d = dd
				break
			}
		}
	}

	dst := l.Neighbor(d)
	s.g.Move(l, dst) // sequential: growing and edge counting are safe
	s.points[i] = dst
	s.idx.clear(l)
	s.idx.set(dst, i, s.points)
	s.events++
	s.moves++

	// Migration across a cut: move the interior weight custody to the new
	// home before the generic dirty sweep below re-prices it.
	if nj := int32(s.shardOf(dst.Y)); nj != s.home[i] {
		old := s.stripes[s.home[i]]
		if s.wInt[i] != 0 {
			old.fen.add(int(i), -s.wInt[i])
			s.wInt[i] = 0
		}
		s.removeMember(old, i)
		s.home[i] = nj
		nw := s.stripes[nj]
		s.pos[i] = int32(len(nw.members))
		nw.members = append(nw.members, i)
	}

	s.dirtyBuf = s.g.DirtyWindows(l, d, s.dirtyBuf[:0])
	for _, cw := range s.dirtyBuf {
		j := s.idx.at(cw.P)
		stj := s.stripes[s.home[j]]
		w := s.weightInterior(cw.Win, cw.P.Y, stj)
		if w != s.wInt[j] {
			stj.fen.add(int(j), w-s.wInt[j])
			s.wInt[j] = w
		}
		var wb float64
		if stj.active(cw.P.Y) {
			wb = s.weightBoundary(cw.Win, cw.P.Y, stj)
		}
		if wb != s.wBnd[j] {
			s.bndFen.add(int(j), wb-s.wBnd[j])
			s.wBnd[j] = wb
		}
	}

	if s.bndEvSince++; s.bndEvSince >= rebuildEvery {
		s.rebuildBoundaryFen()
	}
	return true
}

func (s *Sharded) rebuildBoundaryFen() {
	s.bndFen.rebuild(s.wBnd)
	s.bndEvSince = 0
}

// removeMember swap-removes particle i from a stripe's member list in O(1)
// via the maintained position index.
func (s *Sharded) removeMember(st *stripe, i int32) {
	k := s.pos[i]
	last := int32(len(st.members) - 1)
	moved := st.members[last]
	st.members[k] = moved
	s.pos[moved] = k
	st.members = st.members[:last]
}

// CheckWeightSums verifies the sharded bookkeeping against an exact
// recomputation from the grid: per-particle interior/boundary weights,
// their Fenwick mirrors, membership, and the invariant that interior plus
// boundary weight equals the sequential engine's full particle weight. It
// is the test hook behind the periodic exact rebuild guarantee.
func (s *Sharded) CheckWeightSums() error {
	const tol = 1e-9
	var intSums = make([]float64, len(s.stripes))
	for i, p := range s.points {
		j := s.shardOf(p.Y)
		if int32(j) != s.home[i] {
			return fmt.Errorf("particle %d on row %d: home says stripe %d, rows say %d", i, p.Y, s.home[i], j)
		}
		st := s.stripes[j]
		win := s.g.Window(p)
		wi := s.weightInterior(win, p.Y, st)
		wb := s.weightBoundary(win, p.Y, st)
		if math.Abs(wi-s.wInt[i]) > tol || math.Abs(wb-s.wBnd[i]) > tol {
			return fmt.Errorf("particle %d: maintained weights (%g, %g), recomputed (%g, %g)",
				i, s.wInt[i], s.wBnd[i], wi, wb)
		}
		// Full weight must match the unrestricted chain's classification.
		pm := win.Packed()
		empty := ^pm.NeighborMask() & (1<<lattice.NumDirs - 1)
		var full float64
		for ; empty != 0; empty &= empty - 1 {
			full += s.wTab[uint8(pm>>(8*bits.TrailingZeros8(empty)))]
		}
		if math.Abs((wi+wb)-full) > tol*(1+full) {
			return fmt.Errorf("particle %d: interior %g + boundary %g ≠ full weight %g", i, wi, wb, full)
		}
		intSums[j] += s.wInt[i]
	}
	for j, st := range s.stripes {
		if got := st.fen.total(); math.Abs(got-intSums[j]) > tol*(1+intSums[j]) {
			return fmt.Errorf("stripe %d: Fenwick total %g, member sum %g", j, got, intSums[j])
		}
		for k, m := range st.members {
			if s.home[m] != int32(j) {
				return fmt.Errorf("stripe %d lists particle %d homed in stripe %d", j, m, s.home[m])
			}
			if s.pos[m] != int32(k) {
				return fmt.Errorf("particle %d: pos says %d, members say %d", m, s.pos[m], k)
			}
		}
	}
	var bndSum float64
	for _, w := range s.wBnd {
		bndSum += w
	}
	if got := s.bndFen.total(); math.Abs(got-bndSum) > tol*(1+bndSum) {
		return fmt.Errorf("boundary: Fenwick total %g, weight sum %g", got, bndSum)
	}
	total := 0
	for _, st := range s.stripes {
		total += len(st.members)
	}
	if total != s.n {
		return fmt.Errorf("stripe membership covers %d of %d particles", total, s.n)
	}
	return nil
}

// Shards returns the current number of stripes (the effective shard count).
func (s *Sharded) Shards() int { return len(s.stripes) }

// Events returns the number of applied events.
func (s *Sharded) Events() uint64 { return s.events }
