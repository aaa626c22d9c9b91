package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dosn/internal/fault"
	"dosn/internal/replica"
	"dosn/internal/socialgraph"
)

// withFaults arms a failpoint spec for one test body and disarms afterwards.
func withFaults(t *testing.T, spec string) {
	t.Helper()
	if err := fault.Enable(spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disable)
}

// panickingPolicy models a real bug in policy code (not an injected
// failpoint): Select panics mid-sweep, inside a sweep worker goroutine.
type panickingPolicy struct{}

func (panickingPolicy) Name() string           { return "panickingPolicy" }
func (panickingPolicy) Traits() replica.Traits { return replica.Traits{UsesRNG: true} }
func (panickingPolicy) Select(replica.Input, *rand.Rand) []socialgraph.UserID {
	panic("policy bug: out-of-range candidate")
}

// TestSweepWorkerPanicBecomesError is the regression test for the
// process-killing worker panic: a panic raised inside a sweep worker
// (fault.Chunks: the caller's goroutine or a helper) must surface as
// core.Run's error — carrying the injected fault through the chunk-merge
// path — never crash the process.
func TestSweepWorkerPanicBecomesError(t *testing.T) {
	ds := testDataset(t)
	withFaults(t, "core.sweep-chunk=panic(1)")
	_, err := Run(Config{Dataset: ds, MaxDegree: 2, UserDegree: 10, Repeats: 2, Seed: 7, Workers: 4})
	if err == nil {
		t.Fatal("Run swallowed an injected sweep-worker panic")
	}
	if _, ok := fault.AsInjected(err); !ok {
		t.Fatalf("recovered error lost the injected fault: %v", err)
	}

	// The failure is transient state-free: with faults off the same config
	// runs clean and matches an untouched reference run bit for bit.
	fault.Disable()
	got, err := Run(Config{Dataset: ds, MaxDegree: 2, UserDegree: 10, Repeats: 2, Seed: 7, Workers: 4})
	if err != nil {
		t.Fatalf("clean rerun after recovered panic: %v", err)
	}
	ref, err := Run(Config{Dataset: ds, MaxDegree: 2, UserDegree: 10, Repeats: 2, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if !reflect.DeepEqual(got.Cells, ref.Cells) {
		t.Error("post-recovery rerun diverged from reference cells")
	}
}

// TestSweepFaultSitesPropagateErrors walks every core failpoint seam with an
// error action: each must abort the run with the injected error attached.
func TestSweepFaultSitesPropagateErrors(t *testing.T) {
	ds := testDataset(t)
	for _, spec := range []string{
		"core.sweep-shard=error(1)",
		"core.sweep-chunk=error(1)",
		"core.reduce=error(1)",
	} {
		withFaults(t, spec)
		_, err := Run(Config{Dataset: ds, MaxDegree: 2, UserDegree: 10, Repeats: 2, Seed: 7, Workers: 2})
		if err == nil {
			t.Errorf("%s: Run succeeded past an armed failpoint", spec)
			continue
		}
		inj, ok := fault.AsInjected(err)
		if !ok {
			t.Errorf("%s: error lost the injected fault: %v", spec, err)
			continue
		}
		if want := strings.SplitN(spec, "=", 2)[0]; inj.Site != want {
			t.Errorf("fault attributed to site %s, want %s", inj.Site, want)
		}
		fault.Disable()
	}
}

// TestTableBuildFailureSameOnEveryRepetition pins the failure contract of a
// table Run builds itself: BuildTable has no error path, so a failed build
// panics on the caller's goroutine with the injected fault as the panic
// value, whichever repetition it hits and whatever the worker count. The
// 500-user test dataset fills in one 512-row build chunk, so hit k of the
// build-chunk site falls in repetition k-1's build.
func TestTableBuildFailureSameOnEveryRepetition(t *testing.T) {
	ds := testDataset(t)
	if ds.NumUsers() > 512 {
		t.Fatalf("%d users span several build chunks; hit k no longer lands in repetition k-1", ds.NumUsers())
	}
	cfg := Config{Dataset: ds, MaxDegree: 2, UserDegree: 10, Repeats: 2, Seed: 7}
	ref, err := Run(cfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	for _, workers := range []int{1, 4} {
		for rep := 0; rep < cfg.Repeats; rep++ {
			hit := rep + 1
			withFaults(t, fmt.Sprintf("onlinetime.build-chunk=error(%d)", hit))
			c := cfg
			c.Workers = workers
			v, err := runRecovering(c)
			if err != nil {
				t.Errorf("workers=%d, rep %d: build failure returned as an error, want a panic: %v", workers, rep, err)
			} else if inj, ok := fault.AsInjected(v); !ok || inj.Site != "onlinetime.build-chunk" || inj.Hit != int64(hit) {
				t.Errorf("workers=%d, rep %d: panic value %v, want the build-chunk fault at hit %d", workers, rep, v, hit)
			}
			fault.Disable()
		}
	}
	got, err := Run(cfg)
	if err != nil {
		t.Fatalf("clean rerun: %v", err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Error("clean rerun after failed builds differs from the reference")
	}
}

// runRecovering runs cfg and returns the value Run panicked with, or Run's
// error when it returned.
func runRecovering(cfg Config) (panicked any, err error) {
	defer func() { panicked = recover() }()
	_, err = Run(cfg)
	return nil, err
}

// TestPanickingPolicyBecomesError pins the same boundary against a genuine
// (non-failpoint) panic in user-supplied policy code.
func TestPanickingPolicyBecomesError(t *testing.T) {
	ds := testDataset(t)
	_, err := Run(Config{
		Dataset: ds, MaxDegree: 2, UserDegree: 10, Seed: 1, Workers: 4,
		Policies: []replica.Policy{panickingPolicy{}},
	})
	if err == nil {
		t.Fatal("Run swallowed a panicking policy")
	}
	if !strings.Contains(err.Error(), "policy bug") {
		t.Fatalf("recovered error lost the panic value: %v", err)
	}
	if !strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("recovered error carries no stack trace: %v", err)
	}
}
