// Package harness (fixture) carries the name of the matrix harness, which
// rawgo covers beside the compute packages: its cells are claimed through
// fault.Chunks, and its one goroutine is the waived per-attempt watchdog.
package harness

import (
	"sync"
	"time"
)

func cellPool(cells []func()) {
	var wg sync.WaitGroup // want `sync\.WaitGroup in a compute package`
	for _, cell := range cells {
		wg.Add(1)
		go func() { // want `go statement in a compute package`
			defer wg.Done()
			cell()
		}()
	}
	wg.Wait()
}

func watchdog(attempt func() error, timeout time.Duration) error {
	ch := make(chan error, 1)
	//dosn:go per-attempt watchdog: joined through ch unless the timer wins, and then abandoned to finish into the buffered ch
	go func() { ch <- attempt() }()
	select {
	case err := <-ch:
		return err
	case <-time.After(timeout):
		return nil
	}
}
