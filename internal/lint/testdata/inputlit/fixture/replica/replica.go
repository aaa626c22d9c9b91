// Package replica (stand-in) mirrors the two names inputlit cares about: the
// Input struct and the Placer that builds it.
package replica

type Input struct {
	Owner           int
	CandidateCounts []int
}

type Placer struct{}

func (*Placer) Input(u int) Input { return Input{Owner: u} }
