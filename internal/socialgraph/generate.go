package socialgraph

// Shuffler is the one draw GenerateConfigurationModel makes: a
// *mathrand.Rand, or math/rand's *rand.Rand, which shuffles identically.
type Shuffler interface {
	Shuffle(n int, swap func(i, j int))
}

// GenerateConfigurationModel builds an undirected graph whose degree
// sequence approximates the given one (self-loops and duplicate edges are
// dropped, so high-degree nodes may end slightly below target).
func GenerateConfigurationModel(degrees []int, rng Shuffler) *Graph {
	total := 0
	for _, d := range degrees {
		total += d
	}
	stubs := make([]UserID, 0, total)
	for u, d := range degrees {
		for i := 0; i < d; i++ {
			stubs = append(stubs, UserID(u))
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	// Consecutive stubs pair off (an odd last one is dropped): the shuffled
	// array is the builder's edge list as it stands, and Build skips the
	// self-loops AddEdge would have refused.
	b := NewBuilder(Undirected, len(degrees))
	b.pairs = stubs[:len(stubs)&^1]
	return b.Build()
}
