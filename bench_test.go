// Benchmark harness: one benchmark per figure/claim of the paper's
// evaluation, plus microbenchmarks for the hot paths. Each experiment bench
// reports the quantities the paper's figures show (perimeter ratios,
// iteration counts, estimates) via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the full paper-versus-measured record. EXPERIMENTS.md indexes
// the output and gives the equivalent `sops sweep` command for every row;
// sweeps additionally emit a machine-readable BENCH_*.json summary (the CI
// smoke job uploads one as an artifact on every push).
package sops_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"sops"
	"sops/internal/amoebot"
	"sops/internal/baseline"
	"sops/internal/chain"
	"sops/internal/config"
	"sops/internal/enumerate"
	"sops/internal/linesweep"
	"sops/internal/metrics"
	"sops/internal/rule"
	"sops/internal/saw"
	"sops/internal/stats"
)

// BenchmarkFig2Compression reproduces Fig 2 at reduced scale: a line of 50
// particles under λ=4. The paper's n=100/5M-iteration run shows perimeter
// decaying toward a compact blob; the reported alpha metric is the final
// p/pmin.
func BenchmarkFig2Compression(b *testing.B) {
	var alpha float64
	for i := 0; i < b.N; i++ {
		res, err := sops.Compress(sops.Options{
			N: 50, Lambda: 4, Iterations: 1_200_000, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		alpha = res.Alpha
	}
	b.ReportMetric(alpha, "final_alpha")
}

// BenchmarkFig10Expansion reproduces Fig 10 at reduced scale: λ=2 keeps the
// system expanded; the reported beta metric is the final p/pmax (the paper's
// point: it stays Θ(1), i.e. no compression).
func BenchmarkFig10Expansion(b *testing.B) {
	var beta float64
	for i := 0; i < b.N; i++ {
		res, err := sops.Compress(sops.Options{
			N: 50, Lambda: 2, Iterations: 2_400_000, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		beta = res.Beta
	}
	b.ReportMetric(beta, "final_beta")
}

// BenchmarkPhaseDiagram sweeps λ across both proven regimes and the open
// transition window (Theorems 4.5 and 5.7): sub-benchmarks report final α
// and β per λ. Compression should win above 3.41, expansion below 2.17.
func BenchmarkPhaseDiagram(b *testing.B) {
	for _, lam := range []float64{1, 2, 2.17, 3, 3.41, 4, 6} {
		b.Run(fmt.Sprintf("lambda=%.2f", lam), func(b *testing.B) {
			var alpha, beta float64
			for i := 0; i < b.N; i++ {
				res, err := sops.Compress(sops.Options{
					N: 50, Lambda: lam, Iterations: 900_000, Seed: uint64(i + 3),
				})
				if err != nil {
					b.Fatal(err)
				}
				alpha, beta = res.Alpha, res.Beta
			}
			b.ReportMetric(alpha, "alpha")
			b.ReportMetric(beta, "beta")
		})
	}
}

// BenchmarkScalingConjecture measures iterations until 2·pmin-compression
// from a line (§3.7: conjectured Ω(n³), O(n⁴); doubling n ≈ 10× work). Each
// size reports mean iterations; the exponent fit is printed once.
func BenchmarkScalingConjecture(b *testing.B) {
	sizes := []int{16, 32, 64}
	means := make([]float64, len(sizes))
	for si, n := range sizes {
		si, n := si, n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var samples []float64
			for i := 0; i < b.N; i++ {
				c := chain.MustNew(config.Line(n), 4, uint64(i)*31+uint64(n))
				target := 2 * metrics.PMin(n)
				cap := 800 * uint64(n) * uint64(n) * uint64(n)
				every := uint64(n*n/4 + 1)
				var done uint64
				for done < cap {
					k := min(every, cap-done)
					c.Run(k)
					done += k
					if c.Perimeter() <= target {
						break
					}
				}
				samples = append(samples, float64(done))
			}
			s := stats.Summarize(samples)
			means[si] = s.Mean
			b.ReportMetric(s.Mean, "iters_to_2pmin")
		})
	}
	if means[0] > 0 && means[len(means)-1] > 0 {
		xs := make([]float64, len(sizes))
		for i, n := range sizes {
			xs[i] = float64(n)
		}
		fit := stats.FitPower(xs, means)
		b.ReportMetric(fit.Exponent, "scaling_exponent")
	}
}

// BenchmarkExactStationary regenerates the Lemma 3.13 check: exact E[p]
// under π versus the long-run average measured from chain M, for n=7, λ=4.
func BenchmarkExactStationary(b *testing.B) {
	var exact, sampled float64
	for i := 0; i < b.N; i++ {
		s := enumerate.ExactStationary(7, 4)
		exact = s.ExpectedPerimeter()
		c := chain.MustNew(config.Line(7), 4, uint64(i+9))
		c.Run(200_000) // burn-in
		var sum float64
		const samples = 100_000
		for k := 0; k < samples; k++ {
			c.Run(3)
			sum += float64(c.Perimeter())
		}
		sampled = sum / samples
	}
	b.ReportMetric(exact, "exact_Ep")
	b.ReportMetric(sampled, "sampled_Ep")
	b.ReportMetric(math.Abs(exact-sampled), "abs_error")
}

// BenchmarkEnumerationCensus regenerates the exact counting artifacts of §5
// (Fig 11, Lemma 5.4): all configurations of 9 particles, counted by the
// Redelmeier algorithm.
func BenchmarkEnumerationCensus(b *testing.B) {
	var total int64
	for i := 0; i < b.N; i++ {
		counts := enumerate.Count(9)
		total = counts[9]
	}
	b.ReportMetric(float64(total), "configs_n9")
}

// BenchmarkSAWConnectiveConstant regenerates the Theorem 4.2 estimate: the
// honeycomb SAW count N_18 and the ratio estimator of µ_hex = √(2+√2).
func BenchmarkSAWConnectiveConstant(b *testing.B) {
	var est float64
	for i := 0; i < b.N; i++ {
		counts := saw.Count(18)
		est = saw.RatioEstimates(counts)[18]
	}
	b.ReportMetric(est, "mu_estimate")
	b.ReportMetric(saw.MuHex(), "mu_exact")
}

// BenchmarkLineSweepCertificate regenerates the Lemma 3.7 certification: a
// verified valid-move sequence from a random 10-particle configuration to a
// straight line.
func BenchmarkLineSweepCertificate(b *testing.B) {
	var moves int
	for i := 0; i < b.N; i++ {
		c := config.Spiral(10)
		seq, err := linesweep.Certify(c, linesweep.Options{})
		if err != nil {
			b.Fatal(err)
		}
		moves = len(seq)
	}
	b.ReportMetric(float64(moves), "certificate_moves")
}

// BenchmarkBaselineHexagon compares the §1.3 leader-based hexagon builder
// against the stochastic algorithm on the same 50-particle line: the
// baseline reaches α=1 with few moves but needs a leader; the reported
// metrics let the two rows sit side by side.
func BenchmarkBaselineHexagon(b *testing.B) {
	var moves int
	var alpha float64
	for i := 0; i < b.N; i++ {
		res, err := baseline.Run(config.Line(50))
		if err != nil {
			b.Fatal(err)
		}
		moves = res.Moves
		alpha = metrics.Alpha(res.Final.Perimeter(), 50)
	}
	b.ReportMetric(float64(moves), "surface_moves")
	b.ReportMetric(alpha, "final_alpha")
}

// BenchmarkAlgorithmA runs the full distributed stack (world, Poisson
// scheduler, flags) for Fig 2's workload at reduced scale.
func BenchmarkAlgorithmA(b *testing.B) {
	var alpha float64
	for i := 0; i < b.N; i++ {
		// An M move costs two activations (expand, contract) plus losses to
		// flag contention, so the activation budget is ~4× Fig 2's
		// iteration budget for a comparable trajectory length.
		res, err := sops.Compress(sops.Options{
			N: 50, Lambda: 4, Iterations: 5_000_000, Seed: uint64(i + 1), Engine: sops.EngineAmoebot,
		})
		if err != nil {
			b.Fatal(err)
		}
		alpha = res.Alpha
	}
	b.ReportMetric(alpha, "final_alpha")
}

// BenchmarkAblationDegreeGuard quantifies the hole-formation ablation: with
// condition (1) of M removed, holes appear; the metric reports how many of
// 20 short runs formed one at any checkpoint (holes can also heal, so the
// run is sampled every 200 steps, not only at the end). The unablated chain
// reports zero by Lemma 3.2 — see the chain invariant tests.
func BenchmarkAblationDegreeGuard(b *testing.B) {
	ablated := rule.CompressionVariant(1, false, true, true)
	var holeRuns int
	for i := 0; i < b.N; i++ {
		holeRuns = 0
		for trial := 0; trial < 20; trial++ {
			c := chain.MustNewWithRule(config.Spiral(20), ablated, uint64(trial))
			for batch := 0; batch < 40; batch++ {
				c.Run(200)
				if c.Config().HasHoles() {
					holeRuns++
					break
				}
			}
		}
	}
	b.ReportMetric(float64(holeRuns), "runs_with_holes_of_20")
}

// BenchmarkMixingDiagnostic reports the integrated autocorrelation time of
// the perimeter series at stationarity-ish, the empirical proxy for the
// open mixing-time question of §3.7. The λ=4 chain decorrelates orders of
// magnitude faster per sample than the near-critical λ=3 chain.
func BenchmarkMixingDiagnostic(b *testing.B) {
	for _, lam := range []float64{3, 4, 6} {
		b.Run(fmt.Sprintf("lambda=%.0f", lam), func(b *testing.B) {
			var tau float64
			for i := 0; i < b.N; i++ {
				c := chain.MustNew(config.Line(40), lam, uint64(i+5))
				c.Run(400_000) // burn-in
				series := make([]float64, 20_000)
				for k := range series {
					c.Run(40) // thin
					series[k] = float64(c.Perimeter())
				}
				tau = stats.IntegratedAutocorrTime(series)
			}
			b.ReportMetric(tau, "tau_perimeter")
		})
	}
}

// BenchmarkExperimentSweep exercises the full experiment engine — registry
// lookup, grid expansion, worker pool, journal, deterministic aggregation —
// on a small λ sweep, reporting end-to-end task throughput.
func BenchmarkExperimentSweep(b *testing.B) {
	spec := sops.ExperimentSpec{
		Scenario:   "compress",
		Lambdas:    []float64{2, 4, 6},
		Sizes:      []int{20},
		Iterations: 40_000,
		Reps:       2,
		Seed:       1,
	}
	var alpha float64
	for i := 0; i < b.N; i++ {
		res, err := sops.RunExperiment(context.Background(), spec,
			sops.ExperimentOptions{Dir: b.TempDir(), Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		alpha, err = res.Summaries[len(res.Summaries)-1].Mean("alpha")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(alpha, "final_alpha_lambda6")
}

// BenchmarkSweepParallel measures sweep throughput against the worker-pool
// size. Each op executes the same 12-task compress sweep (λ × engine ×
// rep grid, no journal); workers carry per-worker arenas, so the parallel
// efficiency reported here is the scheduling + arena overhead, not
// allocator contention. steps/s is Metropolis-equivalent iterations
// executed per wall-clock second across the pool.
func BenchmarkSweepParallel(b *testing.B) {
	const iters = 50_000
	spec := sops.ExperimentSpec{
		Scenario:   "compress",
		Lambdas:    []float64{2, 4, 6},
		Sizes:      []int{30},
		Engines:    []string{"chain", "kmc"},
		Iterations: iters,
		Reps:       2,
		Seed:       1,
	}
	tasks := len(spec.Lambdas) * len(spec.Engines) * spec.Reps
	counts := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g > counts[len(counts)-1] {
		counts = append(counts, g)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sops.RunExperiment(context.Background(), spec,
					sops.ExperimentOptions{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if res.TasksRun != tasks {
					b.Fatalf("ran %d tasks, want %d", res.TasksRun, tasks)
				}
			}
			sec := b.Elapsed().Seconds()
			if sec > 0 {
				b.ReportMetric(float64(tasks*iters)*float64(b.N)/sec, "steps/s")
				b.ReportMetric(float64(tasks)*float64(b.N)/sec, "tasks/s")
			}
		})
	}
}

// BenchmarkCompressEngines races the Metropolis grid engine against the
// rejection-free kMC engine on complete compress-scenario runs (200·n²
// equivalent steps each; identical distribution, different wall-clock).
// The regimes span the crossover documented in EXPERIMENTS.md: transient-
// heavy runs from a line at moderate n favor the 25 ns Metropolis step,
// while equilibrium-dominated and large-n runs hand the kMC engine a
// multiple-× win because it pays only per applied move.
func BenchmarkCompressEngines(b *testing.B) {
	cases := []struct {
		name   string
		start  sops.StartShape
		n      int
		lambda float64
	}{
		{"line/lambda=4/n=100", sops.StartLine, 100, 4},     // ISSUE 3 reference point
		{"spiral/lambda=4/n=100", sops.StartSpiral, 100, 4}, // equilibrium sampling
		{"spiral/lambda=6/n=100", sops.StartSpiral, 100, 6},
		{"line/lambda=6/n=400", sops.StartLine, 400, 6},     // large n, transient included
		{"spiral/lambda=6/n=400", sops.StartSpiral, 400, 6}, // large n at equilibrium
	}
	for _, tc := range cases {
		for _, engine := range []string{sops.EngineChain, sops.EngineKMC} {
			b.Run(engine+"/"+tc.name, func(b *testing.B) {
				var moves uint64
				for i := 0; i < b.N; i++ {
					res, err := sops.Compress(sops.Options{
						N: tc.n, Lambda: tc.lambda, Seed: uint64(i + 1),
						Start: tc.start, Engine: engine,
					})
					if err != nil {
						b.Fatal(err)
					}
					moves = res.Moves
				}
				b.ReportMetric(float64(moves), "moves")
			})
		}
	}
}

// --- microbenchmarks -------------------------------------------------------

func BenchmarkChainStep(b *testing.B) {
	c := chain.MustNew(config.Line(100), 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

// BenchmarkChainRun is BenchmarkChainStep's chain driven through one Run
// call, the way runners drive it: chain M's call-free loop.
func BenchmarkChainRun(b *testing.B) {
	c := chain.MustNew(config.Line(100), 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	c.Run(uint64(b.N))
}

func BenchmarkAmoebotActivation(b *testing.B) { benchmarkActivation(b, 100) }

// BenchmarkAmoebotActivationLine40 is one activation at the amoebot-line
// workload's shape: an n=40 line at λ=4.
func BenchmarkAmoebotActivationLine40(b *testing.B) { benchmarkActivation(b, 40) }

// benchmarkActivation steps one Poisson-scheduled world, started from an
// n-particle line at λ=4, b.N times.
func benchmarkActivation(b *testing.B, n int) {
	w, err := amoebot.NewWorld(config.Line(n))
	if err != nil {
		b.Fatal(err)
	}
	s := amoebot.NewPoissonScheduler(w, amoebot.MustNewCompression(4), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.StepActivation()
	}
}

func BenchmarkPerimeterWalk(b *testing.B) {
	c := config.Spiral(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Perimeter() != metrics.PMin(500) {
			b.Fatal("wrong perimeter")
		}
	}
}

func BenchmarkHoleDetection(b *testing.B) {
	c := config.Spiral(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.HasHoles() {
			b.Fatal("unexpected hole")
		}
	}
}
