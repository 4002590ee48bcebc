// Package chiller is a testdata stand-in for a deterministic MPROS package
// (the final import-path segment is what noclock keys on).
package chiller

import (
	"math/rand"
	randv2 "math/rand/v2"
	"time"
)

// clock mirrors the real-world finding class fixed in internal/experiments:
// a package-level wall-clock hook. Unlike there, this one carries no allow,
// so it must be reported.
var clock = time.Now // want "time.Now in deterministic package chiller"

func bad() time.Duration {
	start := time.Now()          // want "time.Now in deterministic package chiller"
	time.Sleep(time.Millisecond) // want "time.Sleep in deterministic package chiller"
	if rand.Float64() > 0.5 {    // want "global rand.Float64 in deterministic package chiller"
		rand.Shuffle(2, func(i, j int) {}) // want "global rand.Shuffle in deterministic package chiller"
	}
	return time.Since(start) // want "time.Since in deterministic package chiller"
}

// good shows the required idiom: seeded generators and injected instants.
func good(seed int64, now func() time.Time) float64 {
	rng := rand.New(rand.NewSource(seed))
	_ = now().Add(time.Second) // Duration arithmetic stays legal
	return rng.Float64()       // methods on a seeded *rand.Rand stay legal
}

// pcg is the same rule for math/rand/v2: an explicitly seeded PCG is legal,
// the package-level draws are the global source.
func pcg(seed int64) float64 {
	rng := randv2.New(randv2.NewPCG(uint64(seed), 0))
	return rng.Float64() + randv2.Float64() // want "global rand.Float64 in deterministic package chiller"
}

// allowed exercises the suppression path: a standalone directive covers the
// next line, and must carry a reason.
func allowed() time.Time {
	//lint:allow noclock testdata exemplar of an intentional wall-clock read
	return time.Now()
}
