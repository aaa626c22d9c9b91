package harness

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"dosn/internal/onlinetime"
	"dosn/internal/socialgraph"
)

// builtTable is the table set a spec's schedule cache hands the Facebook
// Sporadic FriendReplica cell, with its identity and the rows it filled.
type builtTable struct {
	id     tableID
	tables []*onlinetime.Table
	wide   int                  // the leading tables fill every row
	rows   []socialgraph.UserID // the rows the others fill
}

// fbSporadic returns the Facebook Sporadic FriendReplica cell of spec.
func fbSporadic(t *testing.T, spec MatrixSpec) job {
	t.Helper()
	for _, j := range spec.jobs() {
		if j.cell.Dataset.Name == "facebook" && j.cell.Model.Kind == "sporadic" && j.cell.isFriend() {
			return j
		}
	}
	t.Fatalf("no Facebook Sporadic cell in %+v", spec)
	return job{}
}

// tableOf builds (or fetches) j's tables in c.
func tableOf(t *testing.T, c *caches, j job) builtTable {
	t.Helper()
	ds, _, err := c.dataset(j.cell.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	model, err := j.cell.Model.Model()
	if err != nil {
		t.Fatal(err)
	}
	tables, _, err := c.schedulesFor(j.table(), ds, model, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	entry := c.schedules[j.table()]
	rows, err := entry.rows(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	return builtTable{j.table(), tables, entry.wide, rows}
}

// filled reports whether b's table of repetition rep fills row u.
func (b builtTable) filled(rep int, u socialgraph.UserID) bool {
	_, ok := slices.BinarySearch(b.rows, u)
	return rep < b.wide || ok
}

// agree reports whether a and b hold the same bits on every row both fill,
// in every repetition both hold.
func agree(a, b builtTable) bool {
	for rep := range min(len(a.tables), len(b.tables)) {
		ra, rb := a.tables[rep].Bitmaps(), b.tables[rep].Bitmaps()
		for u := range min(len(ra), len(rb)) {
			if a.filled(rep, socialgraph.UserID(u)) && b.filled(rep, socialgraph.UserID(u)) && !ra[u].Equal(&rb[u]) {
				return false
			}
		}
	}
	return true
}

// TestProductIdentitiesReadDeclaredFields: each cached product's identity
// lists exactly the spec fields the product reads. A schedule table built
// under a change of any field its tableID does not declare — the sweep's
// user degree, bounds, repeats, policies, modes, architectures or the order
// of the spec's lists — keeps its identity and holds the same bits on every
// row both builds fill; a change of a declared seed field (the root seed,
// the dataset's seed, Sporadic's session length) moves both. Every variant
// also reads, from one cache shared by all of them, the bits its own cache
// builds, so no identity shares a table its seed would not reproduce. A
// dataset does not move with the root seed, and a cell's result does not
// move when the spec is reordered or subset, but does with the root seed.
func TestProductIdentitiesReadDeclaredFields(t *testing.T) {
	base := testSpec() // two datasets, models and modes: reordering moves every list
	for i := range base.Datasets {
		base.Datasets[i].Users = 600
	}
	base = base.fill()
	t.Run("table", func(t *testing.T) {
		perturbations := []struct {
			name  string
			moves bool // whether the table reads the field
			edit  func(*MatrixSpec)
		}{
			{"UserDegree", false, func(s *MatrixSpec) { s.UserDegree = 9 }},
			{"MaxDegree", false, func(s *MatrixSpec) { s.MaxDegree = 2 }},
			{"Repeats", false, func(s *MatrixSpec) { s.Repeats = 3 }},
			{"Policies", false, func(s *MatrixSpec) { s.Policies = []string{"Random"} }},
			{"Modes", false, func(s *MatrixSpec) { s.Modes = []string{"UnconRep"} }},
			{"Architectures", false, func(s *MatrixSpec) { s.Architectures = []string{"FriendReplica", "RandomDHT"} }},
			{"order", false, func(s *MatrixSpec) {
				slices.Reverse(s.Datasets)
				slices.Reverse(s.Models)
				slices.Reverse(s.Modes)
			}},
			{"RootSeed", true, func(s *MatrixSpec) { s.RootSeed++ }},
			{"Dataset.Seed", true, func(s *MatrixSpec) { s.Datasets[0].Seed = 3 }},
			{"SessionSeconds", true, func(s *MatrixSpec) { s.Models[0].SessionSeconds = 3600 }},
		}
		variants := []MatrixSpec{base}
		for _, p := range perturbations {
			v := base
			v.Datasets, v.Models, v.Modes = slices.Clone(base.Datasets), slices.Clone(base.Models), slices.Clone(base.Modes)
			p.edit(&v)
			variants = append(variants, v)
		}
		var all []job
		for _, v := range variants {
			all = append(all, v.jobs()...)
		}
		shared := newCaches(all)
		want := tableOf(t, newCaches(base.jobs()), fbSporadic(t, base))
		for i, p := range perturbations {
			v := variants[i+1]
			own := tableOf(t, newCaches(v.jobs()), fbSporadic(t, v))
			if moved := own.id != want.id; moved != p.moves {
				t.Errorf("%s: table identity moved = %v, want %v", p.name, moved, p.moves)
			}
			if moved := !agree(own, want); moved != p.moves {
				t.Errorf("%s: table bits moved = %v, want %v", p.name, moved, p.moves)
			}
			got := tableOf(t, shared, fbSporadic(t, v))
			if len(got.tables) < len(own.tables) || !agree(got, own) {
				t.Errorf("%s: the cache shared by every variant hands its cell other tables than its own cache", p.name)
			}
			for rep := range own.tables {
				for u := range own.tables[rep].NumUsers() {
					if own.filled(rep, socialgraph.UserID(u)) && !got.filled(rep, socialgraph.UserID(u)) {
						t.Fatalf("%s: the shared entry leaves row %d of repetition %d unfilled", p.name, u, rep)
					}
				}
			}
		}
	})

	t.Run("dataset", func(t *testing.T) {
		reseeded := base
		reseeded.RootSeed++
		a, _, err := newCaches(base.jobs()).dataset(fbSporadic(t, base).cell.Dataset)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := newCaches(reseeded.jobs()).dataset(fbSporadic(t, reseeded).cell.Dataset)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Error("the dataset moved with the root seed")
		}
	})

	t.Run("cell", func(t *testing.T) {
		type cellRun struct {
			key            string // job.key, the door's identity of the cell
			bytes, metrics []byte
		}
		// results runs spec and returns each cell's run by canonicalKey.
		results := func(spec MatrixSpec) map[string]cellRun {
			t.Helper()
			m, err := Run(spec, RunOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			out := map[string]cellRun{}
			for i, c := range m.Spec.Cells() {
				b, err := json.Marshal(m.Cells[i])
				if err != nil {
					t.Fatal(err)
				}
				metrics, err := json.Marshal(m.Cells[i].Metrics)
				if err != nil {
					t.Fatal(err)
				}
				out[c.canonicalKey()] = cellRun{job{spec: m.Spec, cell: c}.key(), b, metrics}
			}
			return out
		}
		want := results(base)
		reordered := base
		reordered.Datasets, reordered.Models, reordered.Modes = slices.Clone(base.Datasets), slices.Clone(base.Models), slices.Clone(base.Modes)
		slices.Reverse(reordered.Datasets)
		slices.Reverse(reordered.Models)
		slices.Reverse(reordered.Modes)
		subset := base
		subset.Datasets, subset.Models, subset.Modes = base.Datasets[1:], base.Models[1:], base.Modes[:1]
		reseeded := base
		reseeded.RootSeed++
		for _, v := range []struct {
			name  string
			spec  MatrixSpec
			moves bool
		}{{"reordered", reordered, false}, {"subset", subset, false}, {"RootSeed", reseeded, true}} {
			for ck, got := range results(v.spec) {
				w := want[ck]
				if moved := got.key != w.key; moved != v.moves {
					t.Errorf("%s: cell %s identity moved = %v, want %v", v.name, ck, moved, v.moves)
				}
				if moved := string(got.metrics) != string(w.metrics); moved != v.moves {
					t.Errorf("%s: cell %s metrics moved = %v, want %v", v.name, ck, moved, v.moves)
				}
				if !v.moves && string(got.bytes) != string(w.bytes) {
					t.Errorf("%s: cell %s result bytes moved", v.name, ck)
				}
			}
		}
	})
}
