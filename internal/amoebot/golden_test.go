package amoebot

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"sops/internal/config"
	"sops/internal/rule"
)

// trajectory is the observable end state of a scripted Algorithm A run.
type trajectory struct {
	digest      string // sha256 prefix of Config().Key() plus every particle's tail and payload, in id order
	activations uint64
	moves       uint64
	rotations   uint64
	rounds      uint64
	timeBits    uint64 // math.Float64bits of the Poisson clock (0 for other schedulers)
}

func (tr trajectory) String() string {
	return fmt.Sprintf("{%q, %d, %d, %d, %d, %#x}",
		tr.digest, tr.activations, tr.moves, tr.rotations, tr.rounds, tr.timeBits)
}

func observe(w *World, clock float64) trajectory {
	var b strings.Builder
	b.WriteString(w.Config().Key())
	for id := 0; id < w.N(); id++ {
		p := w.Particle(ParticleID(id))
		fmt.Fprintf(&b, "|%d:%v/%v/%d", id, p.Tail(), p.Head(), w.Payload(ParticleID(id)))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return trajectory{
		digest:      hex.EncodeToString(sum[:8]),
		activations: w.Activations(),
		moves:       w.Moves(),
		rotations:   w.Rotations(),
		rounds:      w.Rounds(),
		timeBits:    math.Float64bits(clock),
	}
}

func goldenWorld(t *testing.T, c *config.Config) *World {
	t.Helper()
	w, err := NewWorld(c)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestTrajectoryGolden pins exact end states of Algorithm A runs: every
// scheduler, the payload (align) and biased-ladder (forage) paths, crash
// faults applied mid-run, heterogeneous clocks and round-driven runs. Any
// change to the event order, the RNG draw order or the world's bookkeeping
// moves at least one of these numbers; a pure performance change must not.
func TestTrajectoryGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) trajectory
		want trajectory
	}{
		{
			name: "poisson-compression",
			run: func(t *testing.T) trajectory {
				w := goldenWorld(t, config.Line(40))
				s := NewPoissonScheduler(w, MustNewCompression(4), 1)
				s.RunActivations(200_000)
				return observe(w, s.Time())
			},
			want: trajectory{"8c9a6137d24f05a0", 200_000, 4829, 0, 1164, 0x40b38546819079d4},
		},
		{
			name: "align",
			run: func(t *testing.T) trajectory {
				w := goldenWorld(t, config.Spiral(30))
				w.SeedPayload(3, 7)
				s := NewPoissonScheduler(w, MustNewMetropolis(rule.MustAlignment(6, 3)), 7)
				s.RunActivations(200_000)
				return observe(w, s.Time())
			},
			want: trajectory{"8d8eb3a9134cfd59", 200_000, 2490, 1117, 1675, 0x40ba0d6b182837df},
		},
		{
			name: "forage",
			run: func(t *testing.T) trajectory {
				// Food runs out mid-run, so the ladder cache prices both the
				// compressed (near food) and expanded phases.
				ru := rule.MustForage(4, rule.ForageOptions{FoodSteps: 120_000, Epoch: 1000})
				w := goldenWorld(t, config.Line(40))
				s := NewPoissonScheduler(w, MustNewMetropolis(ru), 5)
				s.RunActivations(200_000)
				return observe(w, s.Time())
			},
			want: trajectory{"5a25192030b7db0e", 200_000, 8384, 0, 1159, 0x40b3769b1a5e9273},
		},
		{
			name: "crash-mid-run",
			run: func(t *testing.T) trajectory {
				w := goldenWorld(t, config.Line(40))
				s := NewPoissonScheduler(w, MustNewCompression(6), 11)
				s.RunActivations(100_000)
				if got := len(w.CrashFraction(rand.New(rand.NewPCG(2, 4)), 0.1)); got != 4 {
					t.Fatalf("crashed %d particles, want 4", got)
				}
				s.RunActivations(100_000)
				return observe(w, s.Time())
			},
			want: trajectory{"87ec7db33880f961", 200_000, 3655, 0, 1258, 0x40b49eb40fa7ddb2},
		},
		{
			name: "heterogeneous-rates",
			run: func(t *testing.T) trajectory {
				const n = 20
				rates := map[ParticleID]float64{}
				for i := 0; i < n; i++ {
					rates[ParticleID(i)] = 0.5 + 1.5*float64(i)/float64(n-1)
				}
				w := goldenWorld(t, config.Line(n))
				s := NewPoissonScheduler(w, MustNewCompression(4), 99, WithRates(rates))
				s.RunActivations(100_000)
				return observe(w, s.Time())
			},
			want: trajectory{"dd4405b89c955ac7", 100_000, 2612, 0, 1003, 0x40af36fc96e8717e},
		},
		{
			name: "uniform",
			run: func(t *testing.T) trajectory {
				w := goldenWorld(t, config.Line(30))
				s := NewUniformScheduler(w, MustNewCompression(4), 42)
				s.RunActivations(100_000)
				return observe(w, 0)
			},
			want: trajectory{"678fd8ef019ed888", 100_000, 2506, 0, 823, 0},
		},
		{
			name: "run-rounds",
			run: func(t *testing.T) trajectory {
				w := goldenWorld(t, config.Line(12))
				s := NewPoissonScheduler(w, MustNewCompression(4), 6)
				s.RunRounds(500)
				return observe(w, s.Time())
			},
			want: trajectory{"dcd7cef05fbd5f7a", 18766, 555, 0, 500, 0x4098595001974a38},
		},
		{
			name: "stubborn",
			run: func(t *testing.T) trajectory {
				w := goldenWorld(t, config.Line(30))
				mux := &Mux{Default: MustNewCompression(6), Overrides: map[ParticleID]Protocol{}}
				s := NewPoissonScheduler(w, mux, 21)
				s.RunActivations(50_000)
				mux.Overrides[10] = Stubborn{}
				mux.Overrides[20] = Stubborn{}
				s.RunActivations(50_000)
				return observe(w, s.Time())
			},
			want: trajectory{"326e351725f34334", 100_000, 1724, 0, 839, 0x40aa0d878135335e},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t)
			if got != tc.want {
				t.Errorf("trajectory changed:\n got  %v\n want %v", got, tc.want)
			}
		})
	}
}
