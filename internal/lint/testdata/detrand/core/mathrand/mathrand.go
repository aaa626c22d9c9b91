// Package mathrand (fixture) stands in for dosn/internal/mathrand: the
// constructor and the reseeds detrand holds to the seed rule.
package mathrand

type Rand struct{}

func New(seed int64) *Rand { return &Rand{} }

func (r *Rand) Seed(seed int64) {}

func (r *Rand) Intn(n int) int { return n - 1 }

type Source struct{}

func (s *Source) Seed(seed int64) {}
