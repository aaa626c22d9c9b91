package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"dosn/internal/core"
	"dosn/internal/replica"
	"dosn/internal/trace"
)

// testSpec is a small matrix that still exercises both datasets, two models
// and both modes (8 cells) quickly.
func testSpec() MatrixSpec {
	return MatrixSpec{
		Datasets: []DatasetSpec{
			{Name: "facebook", Users: 300, Seed: 1},
			{Name: "twitter", Users: 300, Seed: 2},
		},
		Models:     []ModelSpec{Sporadic(), FixedLength(2)},
		Modes:      []string{"ConRep", "UnconRep"},
		MaxDegree:  4,
		UserDegree: 8, // Facebook's modal degree at this scale
		Repeats:    2,
		RootSeed:   7,
	}
}

func TestSpecValidate(t *testing.T) {
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []MatrixSpec{
		{},
		{Datasets: []DatasetSpec{{Name: "orkut", Users: 10}}, Models: []ModelSpec{Sporadic()}, Modes: []string{"ConRep"}},
		{Datasets: []DatasetSpec{{Name: "facebook", Users: 0}}, Models: []ModelSpec{Sporadic()}, Modes: []string{"ConRep"}},
		{Datasets: []DatasetSpec{{Name: "facebook", Users: 10}}, Models: nil, Modes: []string{"ConRep"}},
		{Datasets: []DatasetSpec{{Name: "facebook", Users: 10}}, Models: []ModelSpec{{Kind: "diurnal"}}, Modes: []string{"ConRep"}},
		{Datasets: []DatasetSpec{{Name: "facebook", Users: 10}}, Models: []ModelSpec{{Kind: "fixed"}}, Modes: []string{"ConRep"}},
		{Datasets: []DatasetSpec{{Name: "facebook", Users: 10}}, Models: []ModelSpec{{Kind: "fixed", Hours: 25}}, Modes: []string{"ConRep"}},
		{Datasets: []DatasetSpec{{Name: "facebook", Users: 10}}, Models: []ModelSpec{Sporadic()}, Modes: nil},
		{Datasets: []DatasetSpec{{Name: "facebook", Users: 10}}, Models: []ModelSpec{Sporadic()}, Modes: []string{"SemiRep"}},
		{Datasets: []DatasetSpec{{Name: "facebook", Users: 10}}, Models: []ModelSpec{Sporadic()}, Modes: []string{"ConRep"}, Policies: []string{"LeastAv"}},
		{Version: 99, Datasets: []DatasetSpec{{Name: "facebook", Users: 10}}, Models: []ModelSpec{Sporadic()}, Modes: []string{"ConRep"}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	// The analysis population is the users of one degree; there is no
	// degree-less default.
	for _, d := range []int{0, -1} {
		s := testSpec()
		s.UserDegree = d
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "user_degree") {
			t.Errorf("user_degree %d: Validate = %v, want a user_degree error", d, err)
		}
	}
}

func TestModelSpecs(t *testing.T) {
	tests := []struct {
		spec ModelSpec
		name string
	}{
		{Sporadic(), "Sporadic"},
		{ModelSpec{Kind: "sporadic", SessionSeconds: 600}, "Sporadic"},
		{FixedLength(2), "FixedLength(2h)"},
		{FixedLength(8), "FixedLength(8h)"},
		{RandomLength(), "RandomLength"},
	}
	for _, tt := range tests {
		if got := tt.spec.Name(); got != tt.name {
			t.Errorf("ModelSpec %+v name = %q, want %q", tt.spec, got, tt.name)
		}
	}
}

func TestCellsEnumerateInCanonicalOrder(t *testing.T) {
	spec := testSpec()
	cells := spec.Cells()
	if len(cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	wantFirst := "facebook/Sporadic/ConRep"
	wantLast := "twitter/FixedLength(2h)/UnconRep"
	if cells[0].Key() != wantFirst || cells[len(cells)-1].Key() != wantLast {
		t.Errorf("cell order = %q .. %q, want %q .. %q",
			cells[0].Key(), cells[len(cells)-1].Key(), wantFirst, wantLast)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d carries index %d", i, c.Index)
		}
	}
}

// TestClaimOrderSpreadsFirstBuilds pins the order workers claim cells in:
// a permutation of the cell indices, taken round-robin over the datasets in
// spec order, so every dataset's first cell is claimed before any dataset's
// second, its second before any dataset's third, and so on. Within a
// dataset, every first needer of a (dataset, model) schedule entry comes
// before every reuser, in index order inside each group. DHT cells share
// the entry of the friend cells over the same (dataset, model), so on the
// architecture axis only the first cell of each entry is a first needer.
func TestClaimOrderSpreadsFirstBuilds(t *testing.T) {
	wide := testSpec()
	wide.Architectures = []string{"FriendReplica", "RandomDHT", "SocialDHT"}
	three := testSpec()
	three.Datasets = []DatasetSpec{
		{Name: "facebook", Users: 300, Seed: 1},
		{Name: "facebook", Users: 300, Seed: 3},
		{Name: "twitter", Users: 300, Seed: 2},
	}
	seq := func(from, to, step int) []int {
		var out []int
		for i := from; i < to; i += step {
			out = append(out, i)
		}
		return out
	}
	cat := func(parts ...[]int) []int {
		var out []int
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	// roundRobin takes one element of each list in turn.
	roundRobin := func(lists ...[]int) []int {
		var out []int
		for k := 0; ; k++ {
			took := false
			for _, l := range lists {
				if k < len(l) {
					out, took = append(out, l[k]), true
				}
			}
			if !took {
				return out
			}
		}
	}
	for _, tc := range []struct {
		name string
		spec MatrixSpec
		want []int
	}{
		// 2 datasets × 2 models × 2 modes: entries start at 0, 2 and 4, 6.
		{"testSpec", testSpec(), roundRobin([]int{0, 2, 1, 3}, []int{4, 6, 5, 7})},
		// × 3 architectures: 12 cells a dataset, entries start at 0, 6 and 12, 18.
		{"architectures", wide, roundRobin(
			cat([]int{0, 6}, seq(1, 6, 1), seq(7, 12, 1)),
			cat([]int{12, 18}, seq(13, 18, 1), seq(19, 24, 1)))},
		// One dataset at two seeds is two datasets: three lists of four.
		{"three datasets", three, roundRobin([]int{0, 2, 1, 3}, []int{4, 6, 5, 7}, []int{8, 10, 9, 11})},
		// The paper's 24 cells: six models a dataset, ConRep first needs
		// each, so the claims run 0, 12, 2, 14, … 10, 22, 1, 13, … 11, 23.
		{"paper", PaperMatrix(100), roundRobin(cat(seq(0, 12, 2), seq(1, 12, 2)), cat(seq(12, 24, 2), seq(13, 24, 2)))},
	} {
		cells := tc.spec.Cells()
		order := claimOrder(tc.spec.jobs())
		if !slices.Equal(order, tc.want) {
			t.Errorf("%s: claim order %v, want %v", tc.name, order, tc.want)
		}
		datasetPos := make(map[string]int)
		for p, d := range tc.spec.Datasets {
			datasetPos[d.key()] = p
		}
		firstOf := make(map[tableID]int)
		table := func(c CellSpec) tableID { return job{spec: tc.spec, cell: c}.table() }
		for _, c := range cells {
			if _, ok := firstOf[table(c)]; !ok {
				firstOf[table(c)] = c.Index
			}
		}
		first := func(i int) bool { return firstOf[table(cells[i])] == i }
		seen := make([]bool, len(cells))
		claimed := make([]int, len(tc.spec.Datasets)) // claims so far, per dataset
		last := make(map[int]int)                     // dataset -> its latest claim
		prevRank, prevD := -1, -1
		for _, i := range order {
			if i < 0 || i >= len(cells) || seen[i] {
				t.Fatalf("%s: claim order %v is not a permutation of 0..%d", tc.name, order, len(cells)-1)
			}
			seen[i] = true
			d := datasetPos[cells[i].Dataset.key()]
			rank := claimed[d] // cell i is its dataset's claim number rank+1
			claimed[d]++
			if rank < prevRank || (rank == prevRank && d < prevD) {
				t.Errorf("%s: cell %d (dataset %d's claim %d) claimed after dataset %d's claim %d",
					tc.name, i, d, rank+1, prevD, prevRank+1)
			}
			prevRank, prevD = rank, d
			if p, ok := last[d]; ok {
				switch {
				case !first(p) && first(i):
					t.Errorf("%s: first needer %d claimed after reuser %d", tc.name, i, p)
				case first(p) == first(i) && i < p:
					t.Errorf("%s: cell %d claimed after cell %d of its group", tc.name, i, p)
				}
			}
			last[d] = i
		}
		if len(order) != len(cells) {
			t.Errorf("%s: %d claims for %d cells", tc.name, len(order), len(cells))
		}
	}
}

func TestCellSeedInvariantUnderSpecReordering(t *testing.T) {
	spec := testSpec()
	reordered := testSpec()
	reordered.Datasets = []DatasetSpec{spec.Datasets[1], spec.Datasets[0]}
	reordered.Models = []ModelSpec{spec.Models[1], spec.Models[0]}
	reordered.Modes = []string{"UnconRep", "ConRep"}
	seeds := map[string]int64{}
	for _, c := range spec.Cells() {
		seeds[c.Key()] = spec.CellSeed(c)
	}
	for _, c := range reordered.Cells() {
		if got, want := reordered.CellSeed(c), seeds[c.Key()]; got != want {
			t.Errorf("cell %s seed changed under reordering: %d vs %d", c.Key(), got, want)
		}
	}
	// Different root seeds must give different cell seeds.
	other := testSpec()
	other.RootSeed = 8
	c := spec.Cells()[0]
	if spec.CellSeed(c) == other.CellSeed(c) {
		t.Error("cell seed ignores the root seed")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := testSpec().fill()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back MatrixSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Datasets[1].Name != "twitter" || back.Models[1].Hours != 2 ||
		back.RootSeed != 7 || len(back.Policies) != 3 {
		t.Errorf("round trip lost fields: %+v", back)
	}
}

func TestPaperMatrixCoversTheFullEvaluation(t *testing.T) {
	spec := PaperMatrix(2000)
	if err := spec.Validate(); err != nil {
		t.Fatalf("paper matrix invalid: %v", err)
	}
	cells := spec.Cells()
	if len(cells) != 2*6*2 {
		t.Errorf("paper matrix has %d cells, want 24", len(cells))
	}
	if spec.MaxDegree != 10 || spec.Repeats != 5 || spec.UserDegree != 10 {
		t.Errorf("paper parameters wrong: %+v", spec)
	}
}

func TestRunProducesCompleteManifest(t *testing.T) {
	spec := testSpec()
	var progressCalls, lastTotal int
	m, err := Run(spec, RunOptions{
		Workers: 4,
		Progress: func(done, total int, cell CellSpec, elapsed time.Duration) {
			progressCalls++
			lastTotal = total
			if cell.Key() == "" || elapsed < 0 {
				t.Errorf("bad progress callback: %v %v", cell, elapsed)
			}
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if progressCalls != 8 || lastTotal != 8 {
		t.Errorf("progress called %d times (total %d), want 8", progressCalls, lastTotal)
	}
	if m.Version != ManifestVersion || len(m.Cells) != 8 {
		t.Fatalf("manifest version %d with %d cells", m.Version, len(m.Cells))
	}
	// 8 cells over 4 distinct (dataset, model) pairs → 4 schedule reuses.
	if m.ScheduleCacheHits != 4 {
		t.Errorf("schedule cache hits = %d, want 4", m.ScheduleCacheHits)
	}
	for _, c := range m.Cells {
		if c.Users == 0 {
			t.Errorf("cell %s/%s/%s averaged over zero users", c.Dataset, c.Model, c.Mode)
		}
		if len(c.Degrees) != spec.MaxDegree+1 || len(c.Policies) != 3 {
			t.Errorf("cell %s/%s/%s shape: %d degrees, %d policies", c.Dataset, c.Model, c.Mode, len(c.Degrees), len(c.Policies))
		}
		for _, id := range MetricIDs() {
			grid, ok := c.Metrics[id]
			if !ok || len(grid) != len(c.Policies) {
				t.Fatalf("cell %s/%s/%s missing metric %s", c.Dataset, c.Model, c.Mode, id)
			}
		}
		// Availability must be monotone in the replication degree.
		for pi := range c.Policies {
			prev := -1.0
			for di := range c.Degrees {
				v, _ := c.Value("availability", pi, di)
				if v < prev-1e-9 {
					t.Errorf("cell %s/%s/%s %s: availability not monotone", c.Dataset, c.Model, c.Mode, c.Policies[pi])
				}
				prev = v
			}
		}
	}
	// At this fixture, UnconRep availability dominates ConRep for MaxAv (Fig.
	// 4). It is not an invariant: the greedy is not monotone across modes,
	// and TestUnconRepNeedNotDominateConRep pins a counterexample.
	con, ok1 := m.Cell("facebook", "FixedLength(2h)", "ConRep")
	unc, ok2 := m.Cell("facebook", "FixedLength(2h)", "UnconRep")
	if !ok1 || !ok2 {
		t.Fatal("expected cells missing from manifest")
	}
	for di := range con.Degrees {
		cv, _ := con.Value("availability", 0, di)
		uv, _ := unc.Value("availability", 0, di)
		if uv+1e-9 < cv {
			t.Errorf("degree %d: UnconRep availability %.4f below ConRep %.4f", di, uv, cv)
		}
	}
}

// TestUnconRepNeedNotDominateConRep pins the counterexample to "UnconRep
// MaxAv availability ≥ ConRep MaxAv availability": at paper scale,
// FixedLength(8h), 3 repetitions and k = 3, ConRep's greedy places the
// better three replicas on both datasets (Facebook 0.8792 against 0.8755,
// Twitter 0.8730 against 0.8692). The greedy set cover is not optimal, so
// the connectivity constraint, which changes its picks, can leave ConRep's
// set ahead.
func TestUnconRepNeedNotDominateConRep(t *testing.T) {
	m, err := Run(MatrixSpec{
		Datasets: []DatasetSpec{
			{Name: "facebook", Users: trace.PaperFacebookUsers},
			{Name: "twitter", Users: trace.PaperTwitterUsers},
		},
		Models:     []ModelSpec{FixedLength(8)},
		Modes:      []string{"ConRep", "UnconRep"},
		MaxDegree:  10,
		UserDegree: 10,
		Repeats:    3,
		RootSeed:   42,
	}, RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	const k = 3
	for _, ds := range []string{"facebook", "twitter"} {
		con, ok1 := m.Cell(ds, "FixedLength(8h)", "ConRep")
		unc, ok2 := m.Cell(ds, "FixedLength(8h)", "UnconRep")
		if !ok1 || !ok2 {
			t.Fatalf("%s: cells missing from the manifest", ds)
		}
		cv, _ := con.Value("availability", 0, k)
		uv, _ := unc.Value("availability", 0, k)
		if con.Policies[0] != "MaxAv" || cv <= uv {
			t.Errorf("%s: %s at k = %d: ConRep %.4f, UnconRep %.4f; want ConRep above", ds, con.Policies[0], k, cv, uv)
		}
	}
}

func TestManifestJSONRoundTripAndCSV(t *testing.T) {
	spec := testSpec()
	spec.Datasets = spec.Datasets[:1]
	spec.Models = spec.Models[:1]
	m, err := Run(spec, RunOptions{Workers: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	again, err := back.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(buf.Bytes()), bytes.TrimSpace(again)) {
		t.Error("manifest JSON does not round-trip canonically")
	}
	if _, err := ReadManifest(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("unknown manifest version accepted")
	}

	var csv bytes.Buffer
	if err := m.WriteCSV(&csv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	wantRows := 1 // header
	for _, c := range m.Cells {
		wantRows += len(c.Policies) * len(c.Degrees)
	}
	if len(lines) != wantRows {
		t.Errorf("CSV has %d lines, want %d", len(lines), wantRows)
	}
	wantHeader := "dataset,model,model_key,mode,policy,degree,seed,users,repeats,availability,aod_time,aod_activity,delay_hours,effective_replicas,arch"
	if lines[0] != wantHeader {
		t.Errorf("CSV header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		if got := strings.Count(line, ","); got != strings.Count(wantHeader, ",") {
			t.Fatalf("ragged CSV row: %q", line)
		}
	}
}

// TestMetricTable pins, against literals, what core's metric table owns:
// the metrics' order, each one's manifest ID and label, the IDs the manifest
// lists, the CSV header built from them, and the fallbacks of metrics
// outside the table.
func TestMetricTable(t *testing.T) {
	want := []struct {
		m         core.Metric
		id, label string
	}{
		{core.MetricAvailability, "availability", "availability"},
		{core.MetricAoDTime, "aod_time", "availability-on-demand-time"},
		{core.MetricAoDActivity, "aod_activity", "availability-on-demand-activity"},
		{core.MetricDelayHours, "delay_hours", "delay (in hours)"},
		{core.MetricEffectiveReplicas, "effective_replicas", "effective replicas"},
	}
	got := core.Metrics()
	if len(got) != len(want) {
		t.Fatalf("core.Metrics() = %v, want %d metrics", got, len(want))
	}
	for i, w := range want {
		if got[i] != w.m || got[i].ID() != w.id || got[i].String() != w.label {
			t.Errorf("metric %d = %d %q %q, want %d %q %q", i, got[i], got[i].ID(), got[i], w.m, w.id, w.label)
		}
	}
	ids := []string{"availability", "aod_time", "aod_activity", "delay_hours", "effective_replicas"}
	if got := MetricIDs(); !slices.Equal(got, ids) {
		t.Errorf("MetricIDs() = %q, want %q", got, ids)
	}
	var csv bytes.Buffer
	if err := (&RunManifest{}).WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	header := "dataset,model,model_key,mode,policy,degree,seed,users,repeats," +
		"availability,aod_time,aod_activity,delay_hours,effective_replicas,arch\n"
	if csv.String() != header {
		t.Errorf("CSV header = %q, want %q", csv.String(), header)
	}
	for _, m := range []core.Metric{0, 6} {
		if want := fmt.Sprintf("Metric(%d)", int(m)); m.String() != want || m.ID() != "" {
			t.Errorf("metric %d: String %q, ID %q; want %q and no ID", int(m), m, m.ID(), want)
		}
		if metricID(m) != "value" {
			t.Errorf("metricID(%d) = %q, want \"value\"", int(m), metricID(m))
		}
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"MaxAv", "MaxAv(activity)", "MostActive", "Random"} {
		p, err := policyByName(name)
		if err != nil {
			t.Fatalf("policyByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("policyByName(%q).Name() = %q", name, p.Name())
		}
	}
	const wantErr = `harness: unknown policy "Clairvoyant" (MaxAv|MaxAv(activity)|MostActive|Random)`
	if _, err := policyByName("Clairvoyant"); err == nil || err.Error() != wantErr {
		t.Errorf("unknown policy: error %v, want %q", err, wantErr)
	}
	if _, err := parseMode("ConRep"); err != nil {
		t.Error("ConRep rejected")
	}
	if m, _ := parseMode("UnconRep"); m != replica.UnconRep {
		t.Error("UnconRep parsed wrong")
	}
}

// TestParameterizedModelVariantsDoNotCollide pins the fix for the lossy
// identity key: "sporadic" and "sporadic:3600" share the display name
// "Sporadic" but must get distinct seeds, distinct schedule computations and
// distinct results — and the cells must be distinguishable via ModelSpec.
func TestParameterizedModelVariantsDoNotCollide(t *testing.T) {
	spec := testSpec()
	spec.Datasets = spec.Datasets[:1]
	spec.Models = []ModelSpec{Sporadic(), {Kind: "sporadic", SessionSeconds: 3600}}
	spec.Modes = []string{"ConRep"}
	if err := spec.Validate(); err != nil {
		t.Fatalf("distinct variants rejected: %v", err)
	}
	cells := spec.Cells()
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	if spec.CellSeed(cells[0]) == spec.CellSeed(cells[1]) {
		t.Fatal("parameterized variants share a cell seed")
	}
	m, err := Run(spec, RunOptions{Workers: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.ScheduleCacheHits != 0 {
		t.Errorf("schedule cache hits = %d; distinct variants must not share schedules", m.ScheduleCacheHits)
	}
	a, b := m.Cells[0], m.Cells[1]
	if a.Model != "Sporadic" || b.Model != "Sporadic" {
		t.Fatalf("display names = %q, %q", a.Model, b.Model)
	}
	if a.ModelSpec.SessionSeconds == b.ModelSpec.SessionSeconds {
		t.Error("ModelSpec coordinates lost: cells are indistinguishable")
	}
	av0, _ := a.Value("availability", 0, 3)
	av1, _ := b.Value("availability", 0, 3)
	if av0 == av1 {
		t.Errorf("a 20-minute and a 1-hour session produced identical availability %v; the second model's parameters were ignored", av0)
	}
}

// TestValidateRejectsDuplicateCells: listing the identical coordinates twice
// would emit two byte-identical cells; Validate must refuse instead.
func TestValidateRejectsDuplicateCells(t *testing.T) {
	spec := testSpec()
	spec.Models = []ModelSpec{Sporadic(), Sporadic()}
	if err := spec.Validate(); err == nil {
		t.Error("duplicate model entries accepted")
	}
	spec = testSpec()
	spec.Modes = []string{"ConRep", "ConRep"}
	if err := spec.Validate(); err == nil {
		t.Error("duplicate mode entries accepted")
	}
	spec = testSpec()
	spec.Datasets = append(spec.Datasets, spec.Datasets[0])
	if err := spec.Validate(); err == nil {
		t.Error("duplicate dataset entries accepted")
	}
	// Same dataset name with different parameters is a legitimate matrix.
	spec = testSpec()
	spec.Datasets = []DatasetSpec{
		{Name: "facebook", Users: 300, Seed: 1},
		{Name: "facebook", Users: 400, Seed: 1},
	}
	if err := spec.Validate(); err != nil {
		t.Errorf("distinct same-name datasets rejected: %v", err)
	}
}

// TestValidateRejectsDuplicateArchitectures pins the duplicate-cell check
// over the architecture axis: the same architecture listed twice (explicitly
// or as the spelled-out form of the implicit FriendReplica default) must be
// refused with the duplicate-cell error, and unknown names must be named in
// the error.
func TestValidateRejectsDuplicateArchitectures(t *testing.T) {
	spec := testSpec()
	spec.Architectures = []string{"RandomDHT", "RandomDHT"}
	err := spec.Validate()
	if err == nil {
		t.Fatal("duplicate architecture entries accepted")
	}
	if !strings.Contains(err.Error(), "duplicate cell") || !strings.Contains(err.Error(), "architecture") {
		t.Errorf("duplicate-architecture error %q does not name the problem", err)
	}
	spec = testSpec()
	spec.Architectures = []string{"FriendReplica", "FriendReplica"}
	if err := spec.Validate(); err == nil {
		t.Error("duplicate FriendReplica entries accepted")
	}
	spec = testSpec()
	spec.Architectures = []string{"Gossip"}
	err = spec.Validate()
	if err == nil {
		t.Fatal("unknown architecture accepted")
	}
	if !strings.Contains(err.Error(), "Gossip") {
		t.Errorf("unknown-architecture error %q does not name the entry", err)
	}
	spec = testSpec()
	spec.Architectures = []string{"FriendReplica", "RandomDHT", "SocialDHT"}
	if err := spec.Validate(); err != nil {
		t.Errorf("valid multi-architecture spec rejected: %v", err)
	}
}

// TestArchitectureAxisPreservesFriendCells pins the compatibility guarantee:
// adding DHT architectures to a spec must not change a single byte of the
// FriendReplica cells — same seeds, same results — and the DHT cells must be
// real, distinct experiments.
func TestArchitectureAxisPreservesFriendCells(t *testing.T) {
	base := testSpec()
	base.Datasets = base.Datasets[:1]
	base.Models = base.Models[:1]
	ref, err := Run(base, RunOptions{Workers: 2})
	if err != nil {
		t.Fatalf("Run(base): %v", err)
	}
	wide := base
	wide.Architectures = []string{"FriendReplica", "RandomDHT", "SocialDHT"}
	m, err := Run(wide, RunOptions{Workers: 3})
	if err != nil {
		t.Fatalf("Run(wide): %v", err)
	}
	if len(m.Cells) != 3*len(ref.Cells) {
		t.Fatalf("wide run has %d cells, want %d", len(m.Cells), 3*len(ref.Cells))
	}
	for _, want := range ref.Cells {
		got, ok := m.CellWithArch(want.Dataset, want.Model, want.Mode, "FriendReplica")
		if !ok {
			t.Fatalf("friend cell %s/%s/%s missing from wide run", want.Dataset, want.Model, want.Mode)
		}
		wantJSON, _ := marshalCell(want)
		gotJSON, _ := marshalCell(got)
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("friend cell changed under the architecture axis:\nwas: %s\nnow: %s", wantJSON, gotJSON)
		}
	}
	friend, _ := m.CellWithArch("facebook", "Sporadic", "ConRep", "FriendReplica")
	random, ok1 := m.CellWithArch("facebook", "Sporadic", "ConRep", "RandomDHT")
	social, ok2 := m.CellWithArch("facebook", "Sporadic", "ConRep", "SocialDHT")
	if !ok1 || !ok2 {
		t.Fatal("DHT cells missing from wide run")
	}
	if random.Architecture != "RandomDHT" || social.Architecture != "SocialDHT" {
		t.Errorf("DHT cells carry architectures %q, %q", random.Architecture, social.Architecture)
	}
	if len(random.Policies) != 1 || random.Policies[0] != "RandomDHT" {
		t.Errorf("RandomDHT cell policies = %v", random.Policies)
	}
	if len(social.Policies) != 1 || social.Policies[0] != "SocialDHT" {
		t.Errorf("SocialDHT cell policies = %v", social.Policies)
	}
	// The three architectures must disagree somewhere: identical numbers
	// would mean the axis is wired to a no-op.
	fv, _ := friend.Value("availability", 0, 3)
	rv, _ := random.Value("availability", 0, 3)
	sv, _ := social.Value("availability", 0, 3)
	if fv == rv && rv == sv {
		t.Errorf("all architectures produced availability %v; the axis changes nothing", fv)
	}
	// And their seeds must differ: architecture is part of the cell identity.
	if friend.Seed == random.Seed || random.Seed == social.Seed {
		t.Error("architectures share cell seeds")
	}
}

// TestKeyNormalizesZeroValueDefaults: specs that instantiate the identical
// experiment must share one identity (seed, caches, duplicate detection),
// whether defaults are spelled out or left zero.
func TestKeyNormalizesZeroValueDefaults(t *testing.T) {
	equal := []struct{ a, b ModelSpec }{
		{Sporadic(), ModelSpec{Kind: "sporadic", SessionSeconds: 1200}},            // 20 min default
		{RandomLength(), ModelSpec{Kind: "random", Hours: 3, SessionSeconds: 999}}, // random ignores both
		{FixedLength(4), ModelSpec{Kind: "fixed", Hours: 4, SessionSeconds: 999}},  // fixed ignores session
	}
	for _, tt := range equal {
		if tt.a.key() != tt.b.key() {
			t.Errorf("equivalent models %+v and %+v have different keys %q vs %q", tt.a, tt.b, tt.a.key(), tt.b.key())
		}
	}
	if Sporadic().key() == (ModelSpec{Kind: "sporadic", SessionSeconds: 3600}).key() {
		t.Error("distinct session lengths share a key")
	}

	dsEqual := []struct{ a, b DatasetSpec }{
		{a: DatasetSpec{Name: "facebook", Users: 300}, b: DatasetSpec{Name: "facebook", Users: 300, Seed: 1, MinActivity: 10}},
		{a: DatasetSpec{Name: "twitter", Users: 300}, b: DatasetSpec{Name: "twitter", Users: 300, Seed: 2, MinActivity: 10}},
		{a: DatasetSpec{Name: "facebook", Users: 300, MinActivity: -1}, b: DatasetSpec{Name: "facebook", Users: 300, Seed: 1, MinActivity: -5}},
	}
	for _, tt := range dsEqual {
		if tt.a.key() != tt.b.key() {
			t.Errorf("equivalent datasets %+v and %+v have different keys %q vs %q", tt.a, tt.b, tt.a.key(), tt.b.key())
		}
	}

	// Validate must flag the spelled-out duplicate of a defaulted entry.
	spec := testSpec()
	spec.Datasets = spec.Datasets[:1]
	spec.Models = []ModelSpec{Sporadic(), {Kind: "sporadic", SessionSeconds: 1200}}
	if err := spec.Validate(); err == nil {
		t.Error("semantically duplicate models accepted")
	}
}

func TestNegativeSessionSecondsNormalizesToDefault(t *testing.T) {
	if Sporadic().key() != (ModelSpec{Kind: "sporadic", SessionSeconds: -1}).key() {
		t.Error("negative session length (runtime default) has a distinct identity")
	}
	spec := testSpec()
	spec.Datasets = spec.Datasets[:1]
	spec.Models = []ModelSpec{Sporadic(), {Kind: "sporadic", SessionSeconds: -1}}
	if err := spec.Validate(); err == nil {
		t.Error("semantically duplicate models (default vs negative session) accepted")
	}
}

// TestRunOptionsFillRebalancesCores pins the worker split: when the cell
// count caps the cell-level pool below the core count, the freed cores flow
// to the per-cell pools (ceil division, so no core is left idle by floored
// arithmetic). These budgets also feed the phase-2 schedule builds.
func TestRunOptionsFillRebalancesCores(t *testing.T) {
	ncpu := runtime.NumCPU()

	few := RunOptions{}.fill(2)
	wantWorkers := ncpu
	if wantWorkers > 2 {
		wantWorkers = 2
	}
	if few.Workers != wantWorkers {
		t.Errorf("Workers = %d, want %d (capped by 2 cells)", few.Workers, wantWorkers)
	}
	if want := (ncpu + few.Workers - 1) / few.Workers; few.CoreWorkers != want {
		t.Errorf("CoreWorkers = %d, want %d (freed cores must go to the per-cell pools)", few.CoreWorkers, want)
	}
	if few.Workers*few.CoreWorkers < ncpu {
		t.Errorf("worker split %d×%d leaves cores idle on a %d-core box", few.Workers, few.CoreWorkers, ncpu)
	}

	// Explicit values are never overridden.
	explicit := RunOptions{Workers: 3, CoreWorkers: 5}.fill(100)
	if explicit.Workers != 3 || explicit.CoreWorkers != 5 {
		t.Errorf("explicit options rewritten: %+v", explicit)
	}
}
