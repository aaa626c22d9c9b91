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
	n := len(degrees)
	b := NewBuilder(Undirected, n)
	total := 0
	for _, d := range degrees {
		total += d
	}
	b.Grow(total / 2)
	stubs := make([]UserID, 0, total)
	for u, d := range degrees {
		for i := 0; i < d; i++ {
			stubs = append(stubs, UserID(u))
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	for i := 0; i+1 < len(stubs); i += 2 {
		b.AddEdge(stubs[i], stubs[i+1])
	}
	return b.Build()
}
