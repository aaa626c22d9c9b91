package fault

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dosn/internal/obs"
)

// withFaults arms a spec for the duration of one test body.
func withFaults(t *testing.T, spec string) {
	t.Helper()
	if err := Enable(spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(Disable)
}

func TestDisabledSiteIsInert(t *testing.T) {
	s := NewSite("test.inert")
	Disable()
	for i := 0; i < 100; i++ {
		if err := s.Inject(); err != nil {
			t.Fatalf("disabled site fired: %v", err)
		}
	}
}

func TestNewSiteIsGetOrCreate(t *testing.T) {
	a := NewSite("test.dup")
	b := NewSite("test.dup")
	if a != b {
		t.Fatal("NewSite returned distinct sites for one name")
	}
}

func TestFireOnNthHitOnce(t *testing.T) {
	s := NewSite("test.nth")
	withFaults(t, "test.nth=error(3)")
	var fired []int
	for i := 1; i <= 6; i++ {
		if err := s.Inject(); err != nil {
			fired = append(fired, i)
			var inj *Injected
			if !errors.As(err, &inj) || inj.Site != "test.nth" || inj.Hit != 3 {
				t.Fatalf("unexpected injected error: %#v", err)
			}
		}
	}
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("error(3) fired at hits %v, want exactly [3]", fired)
	}
}

func TestPanicActionCarriesInjected(t *testing.T) {
	s := NewSite("test.panic")
	withFaults(t, "test.panic=panic(1)")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic(1) did not panic on first hit")
		}
		inj, ok := AsInjected(r)
		if !ok || inj.Site != "test.panic" {
			t.Fatalf("panic value %#v is not the site's *Injected", r)
		}
	}()
	_ = s.Inject()
}

func TestDelayActionSleepsAndReturnsNil(t *testing.T) {
	s := NewSite("test.delay")
	withFaults(t, "test.delay=delay(30ms,1)")
	start := time.Now()
	if err := s.Inject(); err != nil {
		t.Fatalf("delay action returned error: %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("delay(30ms) slept only %v", d)
	}
	// One-shot: the second hit does not sleep.
	start = time.Now()
	_ = s.Inject()
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("one-shot delay slept again on hit 2 (%v)", d)
	}
}

// TestSeededProbabilityIsDeterministic pins the core reproducibility claim:
// for a fixed (arm seed, site, key), firing is a pure function — the same
// keys fail on every run and worker schedule — and the empirical
// rate tracks p.
func TestSeededProbabilityIsDeterministic(t *testing.T) {
	s := NewSite("test.prob")
	withFaults(t, "test.prob=error(p=0.25,seed=7)")
	first := make(map[int64]bool)
	fired := 0
	for key := int64(0); key < 1000; key++ {
		err := s.InjectSeeded(key)
		first[key] = err != nil
		if err != nil {
			fired++
		}
	}
	if fired < 180 || fired > 320 {
		t.Fatalf("p=0.25 fired %d/1000 times", fired)
	}
	// Which keys fire is pinned: the coin is mathrand's keyed mixer over
	// (seed, site name hash, key), shared with every other derived value.
	for key := int64(0); key < 32; key++ {
		want := slices.Contains([]int64{0, 3, 9, 11, 15, 18, 19, 29}, key)
		if first[key] != want {
			t.Errorf("key %d fired=%v, want %v", key, first[key], want)
		}
	}
	// Re-arm (fresh hit counters) and replay in reverse order: the same
	// keys must fire.
	withFaults(t, "test.prob=error(p=0.25,seed=7)")
	for key := int64(999); key >= 0; key-- {
		if got := s.InjectSeeded(key) != nil; got != first[key] {
			t.Fatalf("key %d fired=%v on replay, want %v", key, got, first[key])
		}
	}
	// A different seed selects a different subset.
	withFaults(t, "test.prob=error(p=0.25,seed=8)")
	same := true
	for key := int64(0); key < 1000; key++ {
		if (s.InjectSeeded(key) != nil) != first[key] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed=8 selected the identical firing set as seed=7")
	}
}

func TestEnableRejectsBadSpecs(t *testing.T) {
	NewSite("test.known")
	for _, spec := range []string{
		"nosuchsite=error(1)",
		"test.known",
		"test.known=explode(1)",
		"test.known=error()",
		"test.known=error(0)",
		"test.known=error(p=2)",
		"test.known=error(p=0)",
		"test.known=error(p=0.5,zeed=1)",
		"test.known=delay(banana)",
		"test.known=error(1);test.known=error(2)",
	} {
		if err := Enable(spec); err == nil {
			Disable()
			t.Errorf("Enable(%q) accepted a bad spec", spec)
		}
	}
	if err := Enable("nosuchsite=error(1)"); err == nil || !strings.Contains(err.Error(), "known:") {
		t.Fatalf("unknown-site error should list known sites, got %v", err)
	}
}

func TestEnableReplacesPriorArming(t *testing.T) {
	a := NewSite("test.replace-a")
	b := NewSite("test.replace-b")
	withFaults(t, "test.replace-a=error(1)")
	withFaults(t, "test.replace-b=error(1)")
	if err := a.Inject(); err != nil {
		t.Fatal("site a stayed armed after Enable replaced the spec")
	}
	if err := b.Inject(); err == nil {
		t.Fatal("site b not armed by the second Enable")
	}
}

func TestEnableFromEnv(t *testing.T) {
	NewSite("test.env")
	on, err := EnableFromEnv("")
	if on || err != nil {
		t.Fatalf("empty env: on=%v err=%v", on, err)
	}
	on, err = EnableFromEnv("test.env=error(1)")
	if !on || err != nil {
		t.Fatalf("valid env: on=%v err=%v", on, err)
	}
	Disable()
	if _, err = EnableFromEnv("test.env=banana"); err == nil {
		t.Fatal("bad env spec accepted")
	}
}

func TestConcurrentHitsFireExactlyOnce(t *testing.T) {
	s := NewSite("test.concurrent")
	withFaults(t, "test.concurrent=error(50)")
	var wg sync.WaitGroup
	var mu sync.Mutex
	fired := 0
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := s.Inject(); err != nil {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if fired != 1 {
		t.Fatalf("error(50) fired %d times under 8 workers, want 1", fired)
	}
}

func TestPanicErrorPreservesInjected(t *testing.T) {
	inj := &Injected{Site: "x", Hit: 2}
	err := PanicError("here", inj, nil)
	if got, ok := AsInjected(err); !ok || got != inj {
		t.Fatalf("PanicError lost the injected fault: %v", err)
	}
	plain := PanicError("here", "boom", []byte("STACKTRACE"))
	if _, ok := AsInjected(plain); ok {
		t.Fatal("plain panic misclassified as injected")
	}
	if !strings.Contains(plain.Error(), "STACKTRACE") || !strings.Contains(plain.Error(), "boom") {
		t.Fatalf("plain panic error lost value or stack: %v", plain)
	}
	wrapped := fmt.Errorf("cell x: %w", err)
	if _, ok := AsInjected(wrapped); !ok {
		t.Fatal("AsInjected does not follow error wrapping")
	}
	joined := errors.Join(fmt.Errorf("cell w: %w", plain), wrapped)
	if got, ok := AsInjected(joined); !ok || got != inj {
		t.Fatalf("AsInjected does not search a joined error: %v", joined)
	}
}

func TestSiteNamesSortedAndComplete(t *testing.T) {
	NewSite("test.zz")
	NewSite("test.aa")
	names := SiteNames()
	var sawAA, sawZZ bool
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("SiteNames not strictly sorted: %v", names)
		}
	}
	for _, n := range names {
		sawAA = sawAA || n == "test.aa"
		sawZZ = sawZZ || n == "test.zz"
	}
	if !sawAA || !sawZZ {
		t.Fatalf("SiteNames missing registered sites: %v", names)
	}
}

// TestPerSiteFiredCounters: with two sites armed, each site's
// fault.fired.<site> counter advances by that site's firings alone, and the
// two advances sum to fault.injections_fired's.
func TestPerSiteFiredCounters(t *testing.T) {
	a, b := NewSite("test.count-a"), NewSite("test.count-b")
	firedA, firedB := obs.C("fault.fired.test.count-a"), obs.C("fault.fired.test.count-b")
	a0, b0, total0 := firedA.Value(), firedB.Value(), obsInjected.Value()
	withFaults(t, "test.count-a=error(p=1,seed=1); test.count-b=error(2)")
	wantA, wantB := 0, 0
	for i := 0; i < 5; i++ {
		if a.Inject() != nil {
			wantA++
		}
		if b.Inject() != nil {
			wantB++
		}
	}
	if wantA != 5 || wantB != 1 {
		t.Fatalf("sites fired %d and %d times, want 5 and 1", wantA, wantB)
	}
	gotA, gotB, total := firedA.Value()-a0, firedB.Value()-b0, obsInjected.Value()-total0
	if gotA != int64(wantA) || gotB != int64(wantB) {
		t.Errorf("per-site counters advanced by %d and %d, want %d and %d", gotA, gotB, wantA, wantB)
	}
	if gotA+gotB != total {
		t.Errorf("per-site counters sum to %d, fault.injections_fired advanced by %d", gotA+gotB, total)
	}
}
