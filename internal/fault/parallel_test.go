package fault

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// recovered runs fn and returns what it panicked with, nil if it returned.
func recovered(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

func TestParallelRunsEveryPassAndJoins(t *testing.T) {
	Parallel() // no passes: returns
	var ran [5]atomic.Bool
	passes := make([]func(), len(ran))
	for i := range passes {
		passes[i] = func() { ran[i].Store(true) }
	}
	Parallel(passes...)
	for i := range ran {
		if !ran[i].Load() {
			t.Errorf("pass %d had not run when Parallel returned", i)
		}
	}
}

// TestParallelResurfacesHelperPanic: a panic on a helper goroutine (any pass
// but the first) reaches the caller only after every sibling has finished,
// as a *passPanic carrying the helper's stack and unwrapping to the original
// value, so a recovery boundary up the caller's stack — PanicError at the
// harness's cell isolation — still sees an injected fault as injected.
func TestParallelResurfacesHelperPanic(t *testing.T) {
	inj := &Injected{Site: "test.pass", Hit: 1}
	var siblingDone atomic.Bool
	r := recovered(func() {
		Parallel(
			func() { siblingDone.Store(true) },
			func() { panic(inj) },
			func() { panic("later pass") },
		)
	})
	pp, ok := r.(*passPanic)
	if !ok {
		t.Fatalf("recovered %T %v, want *passPanic", r, r)
	}
	if !siblingDone.Load() {
		t.Error("panic resurfaced before the sibling pass finished")
	}
	if pp.value != inj {
		t.Errorf("resurfaced value %v, want the lowest-indexed panic %v", pp.value, inj)
	}
	if !strings.Contains(string(pp.stack), "TestParallelResurfacesHelperPanic") {
		t.Errorf("stack does not show the panicking pass:\n%s", pp.stack)
	}
	err := PanicError("cell", r, nil)
	if got, ok := AsInjected(err); !ok || got != inj {
		t.Errorf("PanicError lost the injected fault through the fan-out: %v", err)
	}
}

func TestParallelResurfacesCallerpassPanic(t *testing.T) {
	boom := errors.New("boom")
	var helperDone atomic.Bool
	r := recovered(func() {
		Parallel(func() { panic(boom) }, func() { helperDone.Store(true) })
	})
	pp, ok := r.(*passPanic)
	if !ok || !errors.Is(pp, boom) {
		t.Fatalf("recovered %v, want a *passPanic wrapping %v", r, boom)
	}
	if !helperDone.Load() {
		t.Error("panic on the calling goroutine did not wait for the helper")
	}
	if plain := recovered(func() { Parallel(func() {}, func() { panic("text") }) }); plain.(*passPanic).Unwrap() != nil {
		t.Error("a non-error panic value must unwrap to nil")
	}
}

// chunkRun is what one Chunks call dealt: how often each index was visited,
// the chunk boundaries in index order, and how many bodies ran.
type chunkRun struct {
	visits []int32
	chunks [][2]int
	bodies int
}

func runChunks(t *testing.T, n, size, workers int) chunkRun {
	t.Helper()
	var mu sync.Mutex
	run := chunkRun{visits: make([]int32, n)}
	err := Chunks(n, size, workers, func(next func() (lo, hi int, ok bool)) error {
		var mine [][2]int
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&run.visits[i], 1)
			}
			mine = append(mine, [2]int{lo, hi})
		}
		mu.Lock()
		defer mu.Unlock()
		run.bodies++
		run.chunks = append(run.chunks, mine...)
		return nil
	})
	if err != nil {
		t.Fatalf("Chunks(%d, %d, %d): %v", n, size, workers, err)
	}
	slices.SortFunc(run.chunks, func(a, b [2]int) int { return a[0] - b[0] })
	return run
}

// TestChunksDealsEveryIndexOnce: every index is visited exactly once, the
// chunk boundaries are a function of (n, size) alone — identical across
// worker counts — and no more bodies run than there are chunks to claim.
func TestChunksDealsEveryIndexOnce(t *testing.T) {
	const size = 16
	for _, n := range []int{0, 1, size - 1, size, size + 1, 10*size + 3} {
		nChunks := (n + size - 1) / size
		serial := runChunks(t, n, size, 1)
		if len(serial.chunks) != nChunks {
			t.Fatalf("n=%d: %d chunks, want %d", n, len(serial.chunks), nChunks)
		}
		for ci, c := range serial.chunks {
			if want := [2]int{ci * size, min((ci+1)*size, n)}; c != want {
				t.Fatalf("n=%d: chunk %d is %v, want %v", n, ci, c, want)
			}
		}
		for _, workers := range []int{1, 2, 7} {
			run := runChunks(t, n, size, workers)
			for i, v := range run.visits {
				if v != 1 {
					t.Errorf("n=%d workers=%d: index %d visited %d times", n, workers, i, v)
				}
			}
			if !slices.Equal(run.chunks, serial.chunks) {
				t.Errorf("n=%d workers=%d: chunk boundaries %v differ from one worker's %v", n, workers, run.chunks, serial.chunks)
			}
			if want := min(workers, nChunks); run.bodies != want {
				t.Errorf("n=%d workers=%d: %d bodies ran, want min(workers, chunks) = %d", n, workers, run.bodies, want)
			}
		}
	}
	// A worker bound below one still does the work, on one worker.
	if run := runChunks(t, size+1, size, 0); run.bodies != 1 || len(run.chunks) != 2 {
		t.Errorf("workers=0: %d bodies over %d chunks, want 1 over 2", run.bodies, len(run.chunks))
	}
}

// TestChunksStopsDealingAfterAnError: the error Chunks returns is the failing
// body's, and the claim iterator stops yielding — on one worker exactly at
// the failing chunk; across workers before the siblings have drained a range
// that an empty loop needs seconds to get through.
func TestChunksStopsDealingAfterAnError(t *testing.T) {
	boom := errors.New("boom")
	var dealt atomic.Int64
	failAt := func(at int) func(func() (int, int, bool)) error {
		return func(next func() (lo, hi int, ok bool)) error {
			for lo, _, ok := next(); ok; lo, _, ok = next() {
				dealt.Add(1)
				if lo == at {
					return boom
				}
			}
			return nil
		}
	}
	if err := Chunks(100, 1, 1, failAt(2)); err != boom {
		t.Fatalf("one worker: got %v, want the body's error", err)
	}
	if got := dealt.Load(); got != 3 {
		t.Errorf("one worker: %d chunks dealt, want 3 (none after the failing one)", got)
	}

	const n = 1 << 30
	dealt.Store(0)
	if err := Chunks(n, 1, 4, failAt(5)); err != boom {
		t.Fatalf("four workers: got %v, want the body's error", err)
	}
	if got := dealt.Load(); got >= n {
		t.Errorf("four workers: all %d chunks were dealt after chunk 5 failed", got)
	}
}

// TestChunksDeliversPanicAsError: a worker's panic comes back as Chunks'
// error — the same way from the inline path (one worker, the caller's own
// goroutine) and from a helper goroutine — with the worker's stack for a
// genuine bug and the injected fault still recognisable for a chaos one.
func TestChunksDeliversPanicAsError(t *testing.T) {
	inj := &Injected{Site: "test.chunk", Hit: 1}
	onCaller := func() bool { return bytes.Contains(debug.Stack(), []byte("testing.tRunner")) }

	// Two workers, two chunks, and a rendezvous inside the first chunk each
	// claims: both hold one before the helper panics.
	helperPanics := func(value any) error {
		var both sync.WaitGroup
		both.Add(2)
		return Chunks(2, 1, 2, func(next func() (lo, hi int, ok bool)) error {
			for _, _, ok := next(); ok; _, _, ok = next() {
				both.Done()
				both.Wait()
				if !onCaller() {
					panic(value)
				}
			}
			return nil
		})
	}
	inlinePanics := func(value any) error {
		return Chunks(3, 1, 1, func(next func() (lo, hi int, ok bool)) error {
			for lo, _, ok := next(); ok; lo, _, ok = next() {
				if !onCaller() {
					t.Error("one worker must run on the calling goroutine")
				}
				if lo == 1 {
					panic(value)
				}
			}
			return nil
		})
	}
	for name, panics := range map[string]func(any) error{"inline": inlinePanics, "helper": helperPanics} {
		err := panics(inj)
		if got, ok := AsInjected(err); !ok || got != inj {
			t.Errorf("%s: injected panic came back as %v", name, err)
		}
		err = panics("chunk bug")
		if err == nil || !strings.HasPrefix(err.Error(), "fault: chunk worker panicked: chunk bug") {
			t.Errorf("%s: genuine panic came back as %v", name, err)
		} else if !strings.Contains(err.Error(), "TestChunksDeliversPanicAsError") {
			t.Errorf("%s: error does not carry the panicking worker's stack:\n%v", name, err)
		}
	}
}

// BenchmarkChunks is the claim overhead per chunk: one-index chunks dealt to
// a body that does nothing with them.
func BenchmarkChunks(b *testing.B) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			err := Chunks(b.N, 1, workers, func(next func() (lo, hi int, ok bool)) error {
				for _, _, ok := next(); ok; _, _, ok = next() {
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
