package fault

import (
	"errors"
	"strings"
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
