// Faulttolerance demonstrates §3.3: the compression algorithm has no single
// point of failure. We crash 10% of the particles mid-run; they freeze in
// place and the healthy particles compress around them. Crashed particles
// are drawn as "○".
//
//	go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"

	"sops"
)

func main() {
	const n = 80
	res, err := sops.Compress(sops.Options{
		N:             n,
		Lambda:        5,
		Iterations:    3_000_000,
		Seed:          7,
		Engine:        sops.EngineAmoebot, // the real amoebot algorithm with Poisson clocks
		CrashFraction: 0.10,
		SnapshotEvery: 750_000,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("distributed run, n=%d, λ=5, %d particles crash-failed at start\n\n", n, len(res.Crashed))
	fmt.Printf("%14s %10s %7s\n", "activations", "perimeter", "alpha")
	for _, s := range res.Snapshots {
		fmt.Printf("%14d %10d %7.3f\n", s.Iteration, s.Perimeter, s.Alpha)
	}
	fmt.Printf("\nfinal α = %.3f after %d rounds; crashed particles acted as fixed points:\n\n%s",
		res.Alpha, res.Rounds, res.Rendering)
}
