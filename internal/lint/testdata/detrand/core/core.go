// Package core (fixture) carries the package name of a deterministic
// package, so detrand applies: positive findings, the //dosn:wallclock
// waiver, and the seed-derivation conventions.
package core

import (
	"math/rand"
	"time"

	"dosn/internal/mathrand"
)

// Config mirrors the repository convention: seeds are plumbed explicitly.
type Config struct{ Seed int64 }

func globalDraws() (time.Time, int) {
	t := time.Now()      // want `time\.Now in deterministic package`
	n := rand.Intn(10)   // want `rand\.Intn draws from the global math/rand source`
	rand.Shuffle(n, nil) // want `rand\.Shuffle draws from the global math/rand source`
	return t, n
}

func instrumented() time.Duration {
	//dosn:wallclock progress logging only; results never read it
	start := time.Now()
	return time.Since(start)
}

func unjustifiedWaiver() time.Time {
	//dosn:wallclock
	return time.Now() // want `time\.Now in deterministic package`
}

func seeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func fromConfig(cfg Config, rep int) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed + int64(rep)))
}

func unseeded(x int64) *rand.Rand {
	return rand.New(rand.NewSource(x)) // want `rand\.NewSource argument does not derive from a seed`
}

// localRand: drawing from an explicit *rand.Rand is always fine.
func localRand(rng *rand.Rand) int {
	return rng.Intn(10)
}

// reseeded: restarting an explicit *rand.Rand answers to the NewSource rule.
func reseeded(rng *rand.Rand, cfg Config, u int, x int64) {
	rng.Seed(cfg.Seed + int64(u))
	rng.Seed(x) // want `\(\*rand\.Rand\)\.Seed argument does not derive from a seed`
}

// concrete: math/rand's generator as a concrete type answers to the same
// rule, at its constructor and at either type's reseed.
func concrete(cfg Config, u int, x int64) int {
	r := mathrand.New(cfg.Seed)
	r.Seed(cfg.Seed + int64(u))
	r.Seed(x) // want `\(\*mathrand\.Rand\)\.Seed argument does not derive from a seed`
	var src mathrand.Source
	src.Seed(x)                     // want `\(\*mathrand\.Source\)\.Seed argument does not derive from a seed`
	return mathrand.New(x).Intn(10) // want `mathrand\.New argument does not derive from a seed`
}
