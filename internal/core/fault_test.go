package core

import (
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

func (panickingPolicy) Name() string { return "panickingPolicy" }
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
