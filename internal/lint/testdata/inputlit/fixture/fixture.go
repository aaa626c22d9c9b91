// Package fixture exercises inputlit: a replica.Input literal outside
// package replica is a finding in every syntactic position; going through
// the Placer and overriding a field of its result is the supported pattern,
// and a local type that merely shares the name is not the subject.
package fixture

// Imported under another name: the analyzer goes by the type, not the
// spelling.
import rp "dosn/internal/replica"

func handAssembled(u int) rp.Input {
	return rp.Input{Owner: u} // want `replica\.Input assembled by hand`
}

func pointerAndElided(u int) (*rp.Input, []rp.Input) {
	p := &rp.Input{Owner: u}         // want `replica\.Input assembled by hand`
	return p, []rp.Input{{Owner: u}} // want `replica\.Input assembled by hand`
}

func throughPlacer(pl *rp.Placer, u int, windowed []int) rp.Input {
	in := pl.Input(u)
	in.CandidateCounts = windowed
	return in
}

// Input is a different type that happens to share the name.
type Input struct{ Owner int }

func localNamesake(u int) Input { return Input{Owner: u} }
