package trace

import (
	"runtime"
	"testing"
	"time"

	"dosn/internal/fault"
)

// synthesizeOutcome runs Synthesize on a goroutine of its own and returns
// what it ended with: its error, or the value it panicked with. It fails the
// test if Synthesize has not returned within the limit.
func synthesizeOutcome(t *testing.T, cfg SynthConfig, limit time.Duration) any {
	t.Helper()
	out := make(chan any, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				out <- r
			}
		}()
		_, err := Synthesize(cfg)
		out <- err
	}()
	select {
	case v := <-out:
		return v
	case <-time.After(limit):
		t.Fatalf("Synthesize still running after %v: a stage is waiting on its stopped peer", limit)
		return nil
	}
}

// TestResolveStageFailureEndsSynthesis: when the resolve stage fails — on
// the first chunk, or later, while the draw stage waits on a full ring —
// Synthesize returns the injected error (or re-raises the injected panic on
// its caller) instead of hanging, and every goroutine it started is gone.
func TestResolveStageFailureEndsSynthesis(t *testing.T) {
	cfg := DefaultFacebookConfig(1000) // ≈ 55,000 rows: more chunks than the ring holds
	if rows := 1000 * int(cfg.MeanActivities); rows < 3*ringChunks*chunkRows {
		t.Fatalf("%d rows fill the ring fewer than 3 times; the case is vacuous", rows)
	}
	for _, spec := range []string{
		"trace.resolve-chunk=error(1)",
		"trace.resolve-chunk=error(6)",
		"trace.resolve-chunk=panic(6)",
	} {
		base := runtime.NumGoroutine()
		if err := fault.Enable(spec); err != nil {
			t.Fatal(err)
		}
		got := synthesizeOutcome(t, cfg, 30*time.Second)
		fault.Disable()
		if inj, ok := fault.AsInjected(got); !ok || inj.Site != "trace.resolve-chunk" {
			t.Errorf("%s: Synthesize ended with %v, want the injected trace.resolve-chunk fault", spec, got)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%s: %d goroutines after the failure, %d before", spec, n, base)
		}
	}
	if _, err := Synthesize(cfg); err != nil {
		t.Fatalf("clean run after the failures: %v", err)
	}
}
