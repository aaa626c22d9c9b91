package fault

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
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

// Chunks is the chunked fan-out: it splits [0, n) into index-ordered chunks
// of the given size (the last one shorter) and runs body on up to
// min(workers, number of chunks) workers through Parallel — so one worker
// means the calling goroutine and no other. Each body loops on next, which
// hands it the next unclaimed [lo, hi) off one atomic counter (ok is false
// once there is none): the only coordination between workers. Chunk
// boundaries depend on n and size alone, so a caller that writes per-chunk
// output from the claiming worker and combines it in chunk order (or
// commutatively) gets the same bytes however the chunks were dealt.
// Per-worker state is the body's locals.
//
// A body that returns an error or panics voids the pass: next stops
// yielding to every worker, each finishes the chunk it holds, and after the
// join Chunks returns the failure — a panic as a PanicError that keeps the
// panicking worker's stack and still unwraps to an injected fault, else the
// error of the lowest-indexed failing worker.
func Chunks(n, size, workers int, body func(next func() (lo, hi int, ok bool)) error) (err error) {
	var claimed atomic.Int64
	var stop atomic.Bool
	next := func() (lo, hi int, ok bool) {
		if stop.Load() {
			return 0, 0, false
		}
		lo = int(claimed.Add(1)-1) * size
		return lo, min(lo+size, n), lo < n
	}
	errs := make([]error, min(max(workers, 1), (n+size-1)/size))
	fns := make([]func(), len(errs))
	for w := range fns {
		fns[w] = func() {
			ok := false
			defer func() {
				if !ok { // body returned an error, or is panicking
					stop.Store(true)
				}
			}()
			errs[w] = body(next)
			ok = errs[w] == nil
		}
	}
	defer func() {
		//dosn:recover chunked fan-out join: Parallel re-raises a worker's panic here, on the caller's side of the join, and it becomes the pass's error
		if r := recover(); r != nil {
			err = PanicError("fault: chunk worker", r, nil) // r carries the worker's own stack
		}
	}()
	Parallel(fns...)
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
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
