package core

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"dosn/internal/obs"
	"dosn/internal/onlinetime"
	"dosn/internal/replica"
	"dosn/internal/socialgraph"
)

// TestAnalysisRowSetIsUsersAndCandidates: AnalysisRows is the analysed
// users (as Run resolves them) and their neighbours, ascending and without
// repeats.
func TestAnalysisRowSetIsUsersAndCandidates(t *testing.T) {
	ds := testDataset(t)
	for _, degree := range []int{5, 10} {
		cfg := Config{Dataset: ds, UserDegree: degree}
		if err := cfg.fill(); err != nil {
			t.Fatal(err)
		}
		want := map[socialgraph.UserID]bool{}
		for _, u := range cfg.users {
			want[u] = true
			for _, f := range ds.Graph.Neighbors(u) {
				want[f] = true
			}
		}
		rows, err := AnalysisRows(ds.Graph, degree)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(want) || !slices.IsSorted(rows) {
			t.Fatalf("degree %d: %d rows (sorted: %v), want the %d users and candidates ascending", degree, len(rows), slices.IsSorted(rows), len(want))
		}
		for i, u := range rows {
			if !want[u] || i > 0 && rows[i-1] == u {
				t.Fatalf("degree %d: row %d (%d) is not an analysed user or candidate, or repeats", degree, i, u)
			}
		}
	}
	for _, degree := range []int{499, 0, -1} {
		if _, err := AnalysisRows(ds.Graph, degree); !errors.Is(err, ErrNoUsers) {
			t.Errorf("AnalysisRows at degree %d: err = %v, want ErrNoUsers", degree, err)
		}
	}
}

// countingPolicy wraps a policy and counts its Select calls; its traits are
// the wrapped policy's.
type countingPolicy struct {
	replica.Policy
	calls *atomic.Int64
}

func (c countingPolicy) Select(in replica.Input, rng *rand.Rand) []socialgraph.UserID {
	c.calls.Add(1)
	return c.Policy.Select(in, rng)
}

// TestRunReusesAliasedTableForRNGFreePolicies: handing Run one *Table for
// every repetition gives the same Result bits as distinct equal copies of
// it, while the policies that draw no randomness are swept once — their
// later repetitions reuse the first's columns — and the randomized ones are
// swept every repetition. core.sweeps_reused counts the reused columns.
func TestRunReusesAliasedTableForRNGFreePolicies(t *testing.T) {
	ds := testDataset(t)
	model := onlinetime.FixedLength{Hours: 4}
	const repeats = 3
	var maxAv, random atomic.Int64
	base := Config{
		Dataset: ds, Model: model, Mode: replica.ConRep, MaxDegree: 4, UserDegree: 10,
		Repeats: repeats, Seed: 11, Workers: 3,
		Policies: []replica.Policy{
			countingPolicy{replica.MaxAv{}, &maxAv},
			countingPolicy{replica.MostActive{}, new(atomic.Int64)},
			countingPolicy{replica.Random{}, &random},
		},
	}
	shared := onlinetime.ComputeTable(model, ds, 3, 1)
	copies, aliased := base, base
	for range repeats {
		copies.Schedules = append(copies.Schedules, onlinetime.ComputeTable(model, ds, 3, 1))
		aliased.Schedules = append(aliased.Schedules, shared)
	}
	want, err := Run(copies)
	if err != nil {
		t.Fatal(err)
	}
	users := int64(want.Users)
	if maxAv.Load() != repeats*users || random.Load() != repeats*users {
		t.Fatalf("distinct tables: MaxAv selected %d times, Random %d; want %d each", maxAv.Load(), random.Load(), repeats*users)
	}
	maxAv.Store(0)
	random.Store(0)
	reused := obs.C("core.sweeps_reused")
	before := reused.Value()
	got, err := Run(aliased)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("one shared table gives other bits than distinct equal copies")
	}
	if maxAv.Load() != users {
		t.Errorf("MaxAv (no RNG) selected %d times over one shared table, want %d (one repetition)", maxAv.Load(), users)
	}
	if random.Load() != repeats*users {
		t.Errorf("Random selected %d times, want %d (every repetition)", random.Load(), repeats*users)
	}
	if n := reused.Value() - before; n != repeats-1 {
		t.Errorf("core.sweeps_reused advanced by %d, want %d (MaxAv's later repetitions)", n, repeats-1)
	}

	// With no randomized policy a repeated table is not swept at all.
	maxAv.Store(0)
	only := aliased
	only.Policies = base.Policies[:1]
	if _, err := Run(only); err != nil {
		t.Fatal(err)
	}
	if maxAv.Load() != users {
		t.Errorf("MaxAv alone selected %d times over one shared table, want %d", maxAv.Load(), users)
	}
}
