package obs

import (
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent pins counter atomicity: concurrent writers must
// never lose an increment. Run under -race this also proves the counter is
// data-race free.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.hits")
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if i%2 == 0 {
					c.Inc()
				} else {
					c.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), int64(workers*perWorker); got != want {
		t.Fatalf("counter lost updates: got %d, want %d", got, want)
	}
}

func TestRegistryIdentityAndSnapshot(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name must return the same counter")
	}
	if r.Timer("t") != r.Timer("t") {
		t.Fatal("same name must return the same timer")
	}
	r.Counter("b").Add(3)
	snap := r.Counters()
	if snap["a"] != 0 || snap["b"] != 3 {
		t.Fatalf("counter snapshot wrong: %v", snap)
	}
	names := r.CounterNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("counter names not sorted: %v", names)
	}
	// Timers with no ended span stay out of the snapshot.
	if ts := r.Timers(); len(ts) != 0 {
		t.Fatalf("idle timer leaked into snapshot: %v", ts)
	}
}

// TestSpanNesting pins that spans nest: an inner span on a different timer
// is fully contained in — and never exceeds — the outer span's duration,
// and each timer counts its own spans.
func TestSpanNesting(t *testing.T) {
	r := NewRegistry()
	outer := r.Timer("outer")
	inner := r.Timer("inner")

	so := outer.Begin()
	si := inner.Begin()
	time.Sleep(2 * time.Millisecond)
	di := si.End()
	do := so.End()

	if di <= 0 || do <= 0 {
		t.Fatalf("spans must record positive durations: inner %v outer %v", di, do)
	}
	if do < di {
		t.Fatalf("outer span (%v) must contain inner span (%v)", do, di)
	}
	stats := r.Timers()
	if stats["outer"].Count != 1 || stats["inner"].Count != 1 {
		t.Fatalf("span counts wrong: %+v", stats)
	}
	if stats["outer"].TotalMS < stats["inner"].TotalMS {
		t.Fatalf("outer total (%v ms) below inner total (%v ms)", stats["outer"].TotalMS, stats["inner"].TotalMS)
	}
}

// TestSpanConcurrent pins atomic accumulation on one timer across
// goroutines.
func TestSpanConcurrent(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("shared")
	var wg sync.WaitGroup
	const spans = 50
	for i := 0; i < spans; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tm.Begin().End()
		}()
	}
	wg.Wait()
	if got := tm.Stat().Count; got != spans {
		t.Fatalf("timer lost spans: got %d, want %d", got, spans)
	}
}

func TestZeroValues(t *testing.T) {
	var s Span
	if d := s.End(); d != 0 {
		t.Fatalf("zero span End = %v, want 0", d)
	}
	var w Watch
	if w.Started() {
		t.Fatal("zero watch reports started")
	}
	if w.Elapsed() != 0 || w.ElapsedNS() != 0 {
		t.Fatal("zero watch reports nonzero elapsed")
	}
	if got := StartWatch(); !got.Started() {
		t.Fatal("started watch reports not started")
	}
}
