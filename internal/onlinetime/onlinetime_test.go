package onlinetime

import (
	"testing"
	"time"

	"dosn/internal/interval"
	"dosn/internal/mathrand"
	"dosn/internal/socialgraph"
	"dosn/internal/trace"
)

// datasetWithMinutes builds a 2-user dataset where user 0 creates one
// activity at each given minute-of-day (receiver is user 1).
func datasetWithMinutes(t *testing.T, minutes ...int) *trace.Dataset {
	t.Helper()
	b := socialgraph.NewBuilder(socialgraph.Undirected, 2)
	b.AddEdge(0, 1)
	d := &trace.Dataset{Name: "test", Graph: b.Build()}
	for i, m := range minutes {
		at := trace.Epoch.Add(time.Duration(i)*24*time.Hour + time.Duration(m)*time.Minute)
		d.AppendActivity(trace.Activity{Creator: 0, Receiver: 1, At: at})
	}
	d.Reindex()
	return d
}

func TestSporadicSessionContainsActivity(t *testing.T) {
	d := datasetWithMinutes(t, 100, 700, 1300)
	for seed := int64(0); seed < 20; seed++ {
		scheds := ComputeTable(Sporadic{}, d, seed, 1).Bitmaps()
		ot := &scheds[0]
		for _, m := range []int{100, 700, 1300} {
			if !ot.Contains(m) {
				t.Fatalf("seed %d: activity minute %d not inside any session (%s)", seed, m, ot)
			}
		}
		// Total online time is bounded by sessions × length.
		if ot.Minutes() > 3*20 {
			t.Fatalf("seed %d: online time %d min exceeds 3 sessions of 20 min", seed, ot.Minutes())
		}
		if ot.Minutes() < 20 {
			t.Fatalf("seed %d: online time %d min below one session", seed, ot.Minutes())
		}
	}
}

func TestSporadicSessionLengths(t *testing.T) {
	tests := []struct {
		name    string
		length  time.Duration
		wantMin int
	}{
		{name: "default 20m", length: 0, wantMin: 20},
		{name: "sub-minute rounds up", length: 100 * time.Second, wantMin: 2},
		{name: "one hour", length: time.Hour, wantMin: 60},
		{name: "over a day clamps", length: 30 * time.Hour, wantMin: interval.DayMinutes},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Sporadic{SessionLength: tt.length}.sessionMinutes()
			if got != tt.wantMin {
				t.Errorf("sessionMinutes = %d, want %d", got, tt.wantMin)
			}
		})
	}
}

func TestSporadicNoActivitiesMeansOffline(t *testing.T) {
	d := datasetWithMinutes(t, 100) // user 1 creates nothing
	scheds := ComputeTable(Sporadic{}, d, 1, 1).Bitmaps()
	if !scheds[1].IsEmpty() {
		t.Errorf("user without activity should have empty schedule, got %s", &scheds[1])
	}
}

func TestFixedLengthCenteredOnActivity(t *testing.T) {
	d := datasetWithMinutes(t, 600, 610, 620) // activities around 10:10
	scheds := ComputeTable(FixedLength{Hours: 2}, d, 1, 1).Bitmaps()
	ot := &scheds[0]
	if ot.Minutes() != 120 {
		t.Fatalf("window length = %d, want 120", ot.Minutes())
	}
	if !ot.Contains(610) {
		t.Errorf("window %s should contain the activity center 610", ot)
	}
	// The window must cover all three activity minutes (they span 20 min).
	for _, m := range []int{600, 610, 620} {
		if !ot.Contains(m) {
			t.Errorf("window %s should contain %d", ot, m)
		}
	}
}

func TestFixedLengthCircularCenter(t *testing.T) {
	// Activities at 23:50 and 00:10 → circular mean midnight, not noon.
	d := datasetWithMinutes(t, 1430, 10)
	scheds := ComputeTable(FixedLength{Hours: 2}, d, 1, 1).Bitmaps()
	ot := &scheds[0]
	if !ot.Contains(0) {
		t.Errorf("window %s should straddle midnight", ot)
	}
	if ot.Contains(720) {
		t.Errorf("window %s must not be at noon", ot)
	}
}

func TestFixedLengthHoursVariants(t *testing.T) {
	d := datasetWithMinutes(t, 700)
	for _, h := range []int{2, 4, 6, 8} {
		scheds := ComputeTable(FixedLength{Hours: h}, d, 1, 1).Bitmaps()
		if got := scheds[0].Minutes(); got != h*60 {
			t.Errorf("FixedLength(%dh) length = %d, want %d", h, got, h*60)
		}
	}
}

func TestRandomLengthBounds(t *testing.T) {
	d := datasetWithMinutes(t, 700)
	for seed := int64(0); seed < 50; seed++ {
		scheds := ComputeTable(RandomLength{}, d, seed, 1).Bitmaps()
		l := scheds[0].Minutes()
		if l < 2*60 || l > 8*60 {
			t.Fatalf("seed %d: window length %d outside [120,480]", seed, l)
		}
	}
}

func TestNoActivityUsersGetRandomWindow(t *testing.T) {
	d := datasetWithMinutes(t, 100) // user 1 has no created activity
	scheds := ComputeTable(FixedLength{Hours: 4}, d, 3, 1).Bitmaps()
	if scheds[1].Minutes() != 240 {
		t.Errorf("no-activity user should still get a window, got %s", &scheds[1])
	}
}

func TestComputeDeterministic(t *testing.T) {
	cfg := trace.DefaultFacebookConfig(80)
	d := trace.MustSynthesize(cfg)
	for _, m := range DefaultModels() {
		a := ComputeTable(m, d, 42, 1).Bitmaps()
		b := ComputeTable(m, d, 42, 1).Bitmaps()
		for u := range a {
			if !a[u].Equal(&b[u]) {
				t.Fatalf("%s: schedule for user %d not deterministic", m.Name(), u)
			}
		}
	}
}

func TestModelNames(t *testing.T) {
	tests := []struct {
		m    Model
		want string
	}{
		{m: Sporadic{}, want: "Sporadic"},
		{m: FixedLength{Hours: 2}, want: "FixedLength(2h)"},
		{m: FixedLength{Hours: 8}, want: "FixedLength(8h)"},
		{m: RandomLength{}, want: "RandomLength"},
	}
	for _, tt := range tests {
		if got := tt.m.Name(); got != tt.want {
			t.Errorf("Name = %q, want %q", got, tt.want)
		}
	}
}

func TestActivityCenterBalanced(t *testing.T) {
	// Opposite activities cancel in vector space; fall back to the first.
	d := datasetWithMinutes(t, 0, 720)
	if c := d.ActivityCenters(1)[0]; c != 0 {
		t.Errorf("balanced center = %d, want the first activity's minute 0", c)
	}
}

func TestSporadicSessionsCapAtFullDay(t *testing.T) {
	d := datasetWithMinutes(t, 100, 200, 300)
	scheds := ComputeTable(Sporadic{SessionLength: 48 * time.Hour}, d, 1, 1).Bitmaps()
	if got := scheds[0].Minutes(); got != interval.DayMinutes {
		t.Errorf("giant sessions should cover the day, got %d", got)
	}
}

func TestScheduleAllUsesSharedRNGDeterministically(t *testing.T) {
	d := datasetWithMinutes(t, 100, 900)
	rng1 := mathrand.New(5)
	rng2 := mathrand.New(5)
	a := Sporadic{}.BuildTable(d, rng1, 1, nil).Bitmaps()
	b := Sporadic{}.BuildTable(d, rng2, 1, nil).Bitmaps()
	for u := range a {
		if !a[u].Equal(&b[u]) {
			t.Fatalf("user %d schedules differ", u)
		}
	}
}

// TestWholeDaySporadicDrawsNothing: a Sporadic build whose session lasts the
// whole day leaves its generator where it found it and fills every active
// user's row with the full day; a shorter session draws one offset per
// activity.
func TestWholeDaySporadicDrawsNothing(t *testing.T) {
	d := datasetWithMinutes(t, 100, 900, 1439)
	for _, tc := range []struct {
		s     Sporadic
		draws int
	}{
		{Sporadic{SessionLength: 24 * time.Hour}, 0},
		{Sporadic{SessionLength: 100000 * time.Second}, 0},
		{Sporadic{SessionLength: 24*time.Hour - time.Minute}, 3},
	} {
		rng, want := mathrand.New(9), mathrand.New(9)
		table := tc.s.BuildTable(d, rng, 1, nil)
		for range tc.draws {
			want.Intn(tc.s.sessionMinutes())
		}
		if got, next := rng.Int63(), want.Int63(); got != next {
			t.Errorf("%v: the build left the generator elsewhere than %d draws on", tc.s.SessionLength, tc.draws)
		}
		if tc.draws == 0 {
			if got := table.Bitmap(0).Minutes(); got != interval.DayMinutes {
				t.Errorf("%v: the active user is online %d minutes, want the whole day", tc.s.SessionLength, got)
			}
		}
	}
}
