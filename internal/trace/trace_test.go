package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"dosn/internal/socialgraph"
)

func tinyDataset(t *testing.T) *Dataset {
	t.Helper()
	b := socialgraph.NewBuilder(socialgraph.Undirected, 4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	d := &Dataset{Name: "tiny", Graph: b.Build()}
	d.SetActivities([]Activity{
		{Creator: 1, Receiver: 0, At: Epoch.Add(3 * time.Hour)},
		{Creator: 2, Receiver: 0, At: Epoch.Add(1 * time.Hour)},
		{Creator: 1, Receiver: 0, At: Epoch.Add(2 * time.Hour)},
		{Creator: 0, Receiver: 1, At: Epoch.Add(4 * time.Hour)},
		{Creator: 3, Receiver: 2, At: Epoch.Add(5 * time.Hour)},
	})
	d.Reindex()
	return d
}

func TestReindexSortsByTime(t *testing.T) {
	d := tinyDataset(t)
	for i := 1; i < d.NumActivities(); i++ {
		if d.UnixAt(i) < d.UnixAt(i-1) {
			t.Fatal("activities not sorted by timestamp")
		}
	}
}

func TestCreatedByReceivedBy(t *testing.T) {
	d := tinyDataset(t)
	if got := d.CreatedIdx(1); len(got) != 2 {
		t.Errorf("CreatedIdx(1) = %d activities, want 2", len(got))
	}
	recv := d.ReceivedIdx(0)
	if len(recv) != 3 {
		t.Errorf("ReceivedIdx(0) = %d activities, want 3", len(recv))
	}
	for i := 1; i < len(recv); i++ {
		if d.UnixAt(int(recv[i])) < d.UnixAt(int(recv[i-1])) {
			t.Error("ReceivedIdx must preserve timestamp order")
		}
	}
	if d.CreatedIdx(99) != nil || d.ReceivedIdx(-1) != nil {
		t.Error("out-of-range users should yield nil")
	}
	if d.CreatedCount(1) != 2 || d.CreatedCount(3) != 1 || d.CreatedCount(42) != 0 {
		t.Error("CreatedCount mismatch")
	}
}

func TestInteractionCounts(t *testing.T) {
	d := tinyDataset(t)
	var s CountScratch
	neighbors := d.Graph.Neighbors(0)
	counts := countsByID(neighbors, d.CandidateInteractionCounts(0, neighbors, &s))
	if counts[1] != 2 || counts[2] != 1 {
		t.Errorf("interaction counts of 0 = %v, want {1:2, 2:1}", counts)
	}
	if _, ok := counts[3]; ok {
		t.Error("non-neighbor must not appear in interaction counts")
	}
}

func TestMinuteOfDay(t *testing.T) {
	a := Activity{At: time.Date(2009, 9, 10, 13, 45, 30, 0, time.UTC)}
	if got := a.MinuteOfDay(); got != 13*60+45 {
		t.Errorf("MinuteOfDay = %d, want %d", got, 13*60+45)
	}
	// Non-UTC timestamps are normalized to UTC.
	loc := time.FixedZone("plus2", 2*3600)
	b := Activity{At: time.Date(2009, 9, 10, 13, 45, 0, 0, loc)}
	if got := b.MinuteOfDay(); got != 11*60+45 {
		t.Errorf("MinuteOfDay in zone = %d, want %d", got, 11*60+45)
	}
}

func TestFilterMinActivity(t *testing.T) {
	d := tinyDataset(t)
	// created counts: u0:1, u1:2, u2:1, u3:1 → min 2 keeps only u1.
	f := d.FilterMinActivity(2)
	if f.NumUsers() != 1 {
		t.Fatalf("filtered users = %d, want 1", f.NumUsers())
	}
	if f.NumActivities() != 0 {
		t.Errorf("activities between dropped users must vanish, got %d", f.NumActivities())
	}
	// min 1 keeps everyone.
	all := d.FilterMinActivity(1)
	if all.NumUsers() != 4 || all.NumActivities() != 5 {
		t.Errorf("min=1 should keep everything: %d users, %d acts", all.NumUsers(), all.NumActivities())
	}
	// IDs must be remapped densely and edges preserved within kept set.
	if all.Graph.NumEdges() != d.Graph.NumEdges() {
		t.Errorf("edges = %d, want %d", all.Graph.NumEdges(), d.Graph.NumEdges())
	}
}

func TestStats(t *testing.T) {
	d := tinyDataset(t)
	s := d.Stats()
	if s.Users != 4 || s.Edges != 4 || s.Activities != 5 {
		t.Errorf("Stats = %+v", s)
	}
	if s.ActivitiesPerUser != 1.25 {
		t.Errorf("ActivitiesPerUser = %v, want 1.25", s.ActivitiesPerUser)
	}
	if s.Span != 4*time.Hour {
		t.Errorf("Span = %v, want 4h", s.Span)
	}
	if !strings.Contains(s.String(), "users=4") {
		t.Errorf("Stats.String() = %q", s.String())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := tinyDataset(t)
	var gbuf, abuf bytes.Buffer
	if err := d.Write(&gbuf, &abuf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	d2, err := Read("tiny", &gbuf, &abuf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if d2.NumUsers() != d.NumUsers() || d2.NumActivities() != d.NumActivities() {
		t.Fatalf("round trip: %d users %d acts", d2.NumUsers(), d2.NumActivities())
	}
	for i := 0; i < d.NumActivities(); i++ {
		a, b := d.ActivityAt(i), d2.ActivityAt(i)
		if a.Creator != b.Creator || a.Receiver != b.Receiver || !a.At.Equal(b.At) {
			t.Fatalf("activity %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestReadActivitiesErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{name: "empty", in: ""},
		{name: "bad header", in: "nope\n"},
		{name: "bad line", in: "# dosn-activities 1\njunk\n"},
		{name: "partial fields", in: "# dosn-activities 1\n1,2\n"},
		{name: "non numeric", in: "# dosn-activities 1\na,b,c\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadActivities(strings.NewReader(tt.in)); !errors.Is(err, ErrBadTraceFormat) {
				t.Errorf("err = %v, want ErrBadTraceFormat", err)
			}
		})
	}
}

// TestReadActivitiesRejectsWideIDs: a user ID that does not fit int32 is a
// format error naming its line, not a wrapped reference to a real user
// (4294967297 used to load as user 1). IDs that fit but lie outside the
// graph still load; Reindex skips them.
func TestReadActivitiesRejectsWideIDs(t *testing.T) {
	for _, in := range []string{
		"# dosn-activities 1\n4294967297,2,3\n",
		"# dosn-activities 2\n1,2,3\n1,2147483648,3\n",
		"# dosn-activities 1\n-2147483649,2,3\n",
	} {
		_, err := ReadActivities(strings.NewReader(in))
		if !errors.Is(err, ErrBadTraceFormat) {
			t.Errorf("ReadActivities(%q) err = %v, want ErrBadTraceFormat", in, err)
			continue
		}
		if want := fmt.Sprintf("line %d:", strings.Count(in, "\n")); !strings.Contains(err.Error(), want) {
			t.Errorf("ReadActivities(%q) err = %v, want it to name %q", in, err, want)
		}
	}
	acts, err := ReadActivities(strings.NewReader("# dosn-activities 1\n2147483647,-2147483648,3\n"))
	if err != nil || len(acts) != 1 || acts[0].Creator != math.MaxInt32 || acts[0].Receiver != math.MinInt32 {
		t.Errorf("int32-range IDs = %v, %v; want them loaded as written", acts, err)
	}
}

func TestSynthesizeFacebookSmall(t *testing.T) {
	cfg := DefaultFacebookConfig(300)
	cfg.Seed = 7
	d, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	s := d.Stats()
	if s.Users != 300 {
		t.Fatalf("users = %d", s.Users)
	}
	if s.AverageDegree < 20 || s.AverageDegree > 70 {
		t.Errorf("average degree = %.1f, want ≈41", s.AverageDegree)
	}
	if s.ActivitiesPerUser < 25 || s.ActivitiesPerUser > 110 {
		t.Errorf("activities per user = %.1f, want ≈55", s.ActivitiesPerUser)
	}
	// There must be users at the paper's modal analysis degree (10-ish).
	found := 0
	for deg := 8; deg <= 12; deg++ {
		found += len(d.Graph.UsersWithDegree(deg))
	}
	if found == 0 {
		t.Error("no users with degree ≈10; degree-10 experiments would be empty")
	}
	// All activities stay within the configured day span.
	last := Epoch.Add(time.Duration(cfg.Days) * 24 * time.Hour)
	for _, a := range d.Rows() {
		if a.At.Before(Epoch) || !a.At.Before(last) {
			t.Fatalf("activity at %v outside [%v,%v)", a.At, Epoch, last)
		}
	}
}

func TestSynthesizeTwitterSmall(t *testing.T) {
	cfg := DefaultTwitterConfig(300)
	cfg.MeanDegree = 30 // keep follower counts feasible for 300 users
	d, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if d.Graph.Kind() != socialgraph.Directed {
		t.Fatal("twitter graph must be directed")
	}
	// Creators of activity on u's profile must be u's followers (replica
	// candidates) — this property is what makes MostActive meaningful.
	for u := 0; u < d.NumUsers(); u++ {
		for _, k := range d.ReceivedIdx(socialgraph.UserID(u)) {
			if c := d.CreatorAt(int(k)); !d.Graph.HasEdge(socialgraph.UserID(u), c) {
				t.Fatalf("activity on %d created by non-follower %d", u, c)
			}
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	cfg := DefaultFacebookConfig(120)
	d1 := MustSynthesize(cfg)
	d2 := MustSynthesize(cfg)
	if d1.NumActivities() != d2.NumActivities() {
		t.Fatalf("activity counts differ: %d vs %d", d1.NumActivities(), d2.NumActivities())
	}
	for i := 0; i < d1.NumActivities(); i++ {
		if d1.ActivityAt(i) != d2.ActivityAt(i) {
			t.Fatalf("activity %d differs", i)
		}
	}
	if d1.Graph.NumEdges() != d2.Graph.NumEdges() {
		t.Fatal("graphs differ")
	}
}

func TestSynthesizeValidation(t *testing.T) {
	bad := []SynthConfig{
		{Users: 0, MeanDegree: 5, Days: 1},
		{Users: 10, MeanDegree: 0, Days: 1},
		{Users: 10, MeanDegree: 5, Days: 0},
		{Users: 10, MeanDegree: 5, Days: 1, MeanActivities: -1},
		{Users: 10, MeanDegree: 5, Days: 1, UniformFraction: 1.5},
		// NaN/Inf knobs slip through plain comparisons (NaN <= 0 is false);
		// Validate must reject them explicitly.
		{Users: 10, MeanDegree: math.NaN(), Days: 1},
		{Users: 10, MeanDegree: 5, Days: 1, SigmaDegree: math.NaN()},
		{Users: 10, MeanDegree: math.Inf(1), Days: 1},
		{Users: 10, MeanDegree: 5, Days: 1, UniformFraction: math.NaN()},
		{Users: 10, MeanDegree: 5, Days: 1, DiurnalSigmaMinutes: math.Inf(-1)},
	}
	for i, cfg := range bad {
		if _, err := Synthesize(cfg); err == nil {
			t.Errorf("config %d should fail validation: %+v", i, cfg)
		}
	}
}

// TestSynthesizeDaysBoundary: the scatter sort keeps a row's day in a byte,
// so Validate accepts 256 days and rejects 257. At the limit the last day's
// rows still land in order: the dataset equals the unfused reference.
func TestSynthesizeDaysBoundary(t *testing.T) {
	cfg := DefaultFacebookConfig(60)
	cfg.MeanActivities = 400
	cfg.Days = 256
	got, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Days 256: %v", err)
	}
	if part := diffDatasets(got, referenceSynthesize(cfg)); part != "" {
		t.Errorf("Days 256: %s differs from the reference", part)
	}
	last := Epoch.Unix() + 255*daySeconds
	if n := got.NumActivities(); n == 0 || got.atUnix[n-1] < last {
		t.Errorf("Days 256: no row on the last day (%d rows)", n)
	}
	cfg.Days = 257
	if _, err := Synthesize(cfg); err == nil {
		t.Error("Days 257 must fail validation")
	}
}

func TestFilterAtPaperThreshold(t *testing.T) {
	cfg := DefaultFacebookConfig(400)
	cfg.Seed = 11
	d := MustSynthesize(cfg)
	f := d.FilterMinActivity(10)
	if f.NumUsers() == 0 || f.NumUsers() > d.NumUsers() {
		t.Fatalf("filtered users = %d (from %d)", f.NumUsers(), d.NumUsers())
	}
	for u := 0; u < f.NumUsers(); u++ {
		if f.CreatedCount(socialgraph.UserID(u)) < 10 {
			// Users can lose activities whose receiver was filtered out;
			// the filter guarantee applies to the pre-filter count, so only
			// assert the count is positive.
			if f.CreatedCount(socialgraph.UserID(u)) == 0 {
				t.Fatalf("user %d kept with zero activities", u)
			}
		}
	}
}

func TestDiurnalClustering(t *testing.T) {
	// With no uniform noise, a user's activity minutes should cluster near
	// one home minute: circular std-dev well below uniform (≈415 min).
	cfg := DefaultFacebookConfig(200)
	cfg.UniformFraction = 0
	cfg.DiurnalSigmaMinutes = 60
	cfg.Seed = 5
	d := MustSynthesize(cfg)
	checked := 0
	for u := 0; u < d.NumUsers() && checked < 20; u++ {
		acts := d.CreatedIdx(socialgraph.UserID(u))
		if len(acts) < 20 {
			continue
		}
		checked++
		// Circular mean via vector averaging.
		var sx, sy float64
		for _, k := range acts {
			th := 2 * 3.141592653589793 * float64(d.MinuteOfDayAt(int(k))) / 1440
			sx += math.Cos(th)
			sy += math.Sin(th)
		}
		r := math.Hypot(sx, sy) / float64(len(acts))
		if r < 0.5 { // resultant length near 0 ⇒ uniform; near 1 ⇒ clustered
			t.Errorf("user %d activities not diurnally clustered (r=%.2f)", u, r)
		}
	}
	if checked == 0 {
		t.Fatal("no users with enough activities to check clustering")
	}
}
