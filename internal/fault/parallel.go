package fault

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Parallel runs fns concurrently — the first on the calling goroutine, each
// of the others on a goroutine of its own — and returns once every one has
// finished. It is the fixed fan-out for passes that share no output, so the
// bytes they produce cannot depend on how (or whether) they overlap.
//
// A panic in any pass is held until all passes have returned and is then
// re-raised on the calling goroutine (the lowest-indexed one, if several),
// so the recovery boundaries up the caller's stack — the harness's cell
// isolation above all — still convert it into an error instead of the
// process dying in a goroutine nobody recovers. The re-raised value is a
// *passPanic: it keeps the stack of the pass that panicked and unwraps to
// the original error, so PanicError still recognises an injected fault.
func Parallel(fns ...func()) {
	var wg sync.WaitGroup
	panics := make([]*passPanic, len(fns))
	run := func(i int) {
		defer wg.Done()
		defer func() {
			//dosn:recover fan-out join: a pass's panic is held until every sibling has finished, then re-raised on the calling goroutine for the caller's boundary
			if r := recover(); r != nil {
				panics[i] = &passPanic{value: r, stack: debug.Stack()}
			}
		}()
		fns[i]()
	}
	wg.Add(len(fns))
	for i := 1; i < len(fns); i++ {
		go run(i)
	}
	if len(fns) > 0 {
		run(0)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// passPanic is the value Parallel re-panics with: what a pass panicked with
// and the stack it panicked on.
type passPanic struct {
	value any
	stack []byte
}

func (p *passPanic) Error() string {
	return fmt.Sprintf("%v\n%s", p.value, p.stack)
}

// Unwrap exposes an error panic value to errors.Is/As and AsInjected.
func (p *passPanic) Unwrap() error {
	err, _ := p.value.(error)
	return err
}
