package harness

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"dosn/internal/core"
	"dosn/internal/fault"
	"dosn/internal/interval"
	"dosn/internal/onlinetime"
	"dosn/internal/replica"
	"dosn/internal/socialgraph"
	"dosn/internal/trace"
)

// rowSetSpec is a friend-replication matrix over both datasets and every
// model kind, small enough to sweep each cell three ways.
func rowSetSpec() MatrixSpec {
	s := testSpec()
	for i := range s.Datasets {
		s.Datasets[i].Users = 600
	}
	s.Models = []ModelSpec{Sporadic(), RandomLength(), FixedLength(2), FixedLength(8)}
	return s.fill()
}

// entryTables is what the run's schedule cache hands every cell of one
// entry, with the row set the tables filled.
type entryTables struct {
	ds     *trace.Dataset
	model  onlinetime.Model
	tables []*onlinetime.Table
	rows   []socialgraph.UserID
}

func cachedEntry(t *testing.T, spec MatrixSpec, c *caches, cell CellSpec, datasets map[string]*trace.Dataset) entryTables {
	t.Helper()
	ds := datasets[cell.Dataset.key()]
	if ds == nil {
		var err error
		if ds, err = buildDataset(cell.Dataset); err != nil {
			t.Fatal(err)
		}
		datasets[cell.Dataset.key()] = ds
	}
	model, err := cell.Model.Model()
	if err != nil {
		t.Fatal(err)
	}
	tables, _, err := c.schedulesFor(spec, cell, ds, model, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := c.scheduleRows(spec, cell, ds)
	if err != nil {
		t.Fatal(err)
	}
	return entryTables{ds: ds, model: model, tables: tables, rows: rows}
}

// poisoned copies the tables, turning every row outside the set into an
// always-online day. Tables that were one *Table stay one.
func poisoned(tables []*onlinetime.Table, rows []socialgraph.UserID) []*onlinetime.Table {
	in := map[socialgraph.UserID]bool{}
	for _, u := range rows {
		in[u] = true
	}
	copies := map[*onlinetime.Table]*onlinetime.Table{}
	out := make([]*onlinetime.Table, len(tables))
	for i, tb := range tables {
		if copies[tb] == nil {
			p := onlinetime.NewTable(tb.NumUsers())
			copy(p.Bitmaps(), tb.Bitmaps())
			for u := range p.Bitmaps() {
				if !in[socialgraph.UserID(u)] {
					p.Bitmaps()[u].AddInterval(interval.Interval{Start: 0, End: interval.DayMinutes})
				}
			}
			copies[tb] = p
		}
		out[i] = copies[tb]
	}
	return out
}

// sweepCell runs the cell's core.Run as runCell does, over the given
// tables, and returns the cell's manifest bytes.
func sweepCell(t *testing.T, spec MatrixSpec, cell CellSpec, e entryTables, tables []*onlinetime.Table) []byte {
	t.Helper()
	var policies []replica.Policy
	for _, name := range spec.Policies {
		p, err := policyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		policies = append(policies, p)
	}
	seed := spec.CellSeed(cell)
	res, err := core.Run(core.Config{
		Dataset: e.ds, Model: e.model, Mode: cell.Mode, Policies: policies,
		MaxDegree: spec.MaxDegree, UserDegree: spec.UserDegree, Repeats: spec.Repeats,
		Seed: seed, Workers: 2, Schedules: tables,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(newCellResult(cell, seed, res))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRowSetPoisonedRowsNeverRead: every friend cell of the matrix swept
// over its entry's tables with each row outside the entry's row set turned
// always-online gives the bytes of a sweep over full tables — so no sweep
// reads an unfilled row, and every filled row is the full build's. The
// check is sensitive: dropping one analysed user's candidate from the set
// before poisoning changes the cell.
func TestRowSetPoisonedRowsNeverRead(t *testing.T) {
	spec := rowSetSpec()
	cells := spec.Cells()
	c := newCaches(spec.jobs())
	datasets := map[string]*trace.Dataset{}
	sensed := map[string]bool{}
	for _, cell := range cells {
		e := cachedEntry(t, spec, c, cell, datasets)
		if e.rows == nil || len(e.rows) >= e.ds.NumUsers() {
			t.Fatalf("%s: friend-only entry fills %d of %d rows", cell.Key(), len(e.rows), e.ds.NumUsers())
		}
		full := make([]*onlinetime.Table, spec.Repeats)
		for rep := range full {
			full[rep] = onlinetime.ComputeTable(e.model, e.ds, spec.scheduleSeed(cell.Dataset, cell.Model, rep), 2)
		}
		want := sweepCell(t, spec, cell, e, full)
		if got := sweepCell(t, spec, cell, e, poisoned(e.tables, e.rows)); !bytes.Equal(got, want) {
			t.Errorf("%s: the sweep read a row outside its entry's row set, or a filled row differs from the full build", cell.Key())
		}

		if sensed[cell.Dataset.key()] {
			continue
		}
		sensed[cell.Dataset.key()] = true
		owner := e.ds.Graph.UsersWithDegree(spec.UserDegree)[0]
		drop := e.ds.Graph.Neighbors(owner)[0]
		var fewer []socialgraph.UserID
		for _, u := range e.rows {
			if u != drop {
				fewer = append(fewer, u)
			}
		}
		if got := sweepCell(t, spec, cell, e, poisoned(e.tables, fewer)); bytes.Equal(got, want) {
			t.Errorf("%s: poisoning candidate %d of user %d left the cell unchanged; the check cannot see a missing row", cell.Key(), drop, owner)
		}
	}
}

// TestRowSetEveryRowWhenDHTSharesEntry: a DHT cell may place a replica on
// any user, so an entry it shares with a friend cell fills every row — each
// repetition's table is the full build of its seed — while the same spec
// without the DHT axis fills only the analysis closure.
func TestRowSetEveryRowWhenDHTSharesEntry(t *testing.T) {
	spec := testSpec()
	spec.Datasets = spec.Datasets[:1]
	spec.Models = []ModelSpec{Sporadic(), FixedLength(2)}
	spec.Architectures = []string{"FriendReplica", "RandomDHT"}
	spec = spec.fill()
	friendOnly := spec
	friendOnly.Architectures = nil
	datasets := map[string]*trace.Dataset{}
	cells := spec.Cells()
	c := newCaches(spec.jobs())
	for _, cell := range cells {
		if !cell.isFriend() {
			continue
		}
		e := cachedEntry(t, spec, c, cell, datasets)
		if e.rows != nil {
			t.Fatalf("%s: entry shared with a DHT cell fills %d rows, want every row", cell.Key(), len(e.rows))
		}
		for rep, tb := range e.tables {
			want := onlinetime.ComputeTable(e.model, e.ds, spec.scheduleSeed(cell.Dataset, cell.Model, rep), 1)
			if !reflect.DeepEqual(tb.Bitmaps(), want.Bitmaps()) {
				t.Errorf("%s rep %d: table differs from the full build", cell.Key(), rep)
			}
		}
		fo := cachedEntry(t, friendOnly, newCaches(friendOnly.jobs()), cell, datasets)
		if fo.rows == nil || len(fo.rows) >= e.ds.NumUsers() {
			t.Errorf("%s: without the DHT axis the entry fills %d of %d rows, want the analysis closure", cell.Key(), len(fo.rows), e.ds.NumUsers())
		}
	}
}

// TestSeedIndependentEntryAliasesRepetitions: a FixedLength entry whose row
// set has no centreless user builds one table for every repetition, a
// Sporadic entry one per repetition, and the harness.schedule-build
// failpoint fires for every repetition, the aliased ones included: its third
// hit fails a three-repetition FixedLength build.
func TestSeedIndependentEntryAliasesRepetitions(t *testing.T) {
	spec := crashSpec()
	spec.Repeats = 3
	spec = spec.fill()
	cells := spec.Cells()
	datasets := map[string]*trace.Dataset{}
	for _, cell := range []CellSpec{cells[0], cells[2]} { // Sporadic, FixedLength(2h)
		e := cachedEntry(t, spec, newCaches(spec.jobs()), cell, datasets)
		fixed := cell.Model.Kind == "fixed"
		if fixed != onlinetime.SeedIndependent(e.model, e.ds, e.rows, 1) {
			t.Fatalf("%s: SeedIndependent over the entry's rows = %v", cell.Key(), !fixed)
		}
		if aliased := e.tables[0] == e.tables[1] && e.tables[1] == e.tables[2]; aliased != fixed {
			t.Errorf("%s: repetitions share one table = %v, want %v", cell.Key(), aliased, fixed)
		}
		if fixed {
			withHarnessFaults(t, "harness.schedule-build=error(3)")
			_, _, err := newCaches(spec.jobs()).schedulesFor(spec, cell, e.ds, e.model, 1, nil)
			if inj, ok := fault.AsInjected(err); !ok || inj.Hit != 3 {
				t.Errorf("%s: build error %v, want the schedule-build fault at hit 3 (the third, aliased repetition)", cell.Key(), err)
			}
			fault.Disable()
		}
	}
}
