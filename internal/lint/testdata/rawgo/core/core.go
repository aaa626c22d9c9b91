// Package core (fixture) carries the name of a compute package, so rawgo
// applies; package harness in the real tree, which it must leave alone, is
// covered by TestRepoIsClean.
package core

import "sync"

func handRolledPool(work func()) {
	var wg sync.WaitGroup // want `sync\.WaitGroup in a compute package`
	wg.Add(1)
	go func() { // want `go statement in a compute package`
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

// justified shows that no comment waives a finding: //dosn:go is not a
// directive.
func justified(build func(), done chan<- struct{}) {
	//dosn:go one-ahead background build; the caller receives from done before it returns
	go func() { build(); close(done) }() // want `go statement in a compute package`
	//dosn:go
	go build() // want `go statement in a compute package`
}
