package harness

import (
	"math/rand"
	"path/filepath"
	"testing"

	"dosn/internal/trace"
)

// paperManifest returns a manifest of the paper matrix's shape: 24 cells,
// each 3 policies × 11 degrees of every metric, the values drawn at full
// float64 precision as a real run's are.
func paperManifest() *RunManifest {
	spec := PaperMatrix(trace.PaperFacebookUsers).fill()
	rng := rand.New(rand.NewSource(1))
	m := &RunManifest{Version: ManifestVersion, Spec: spec}
	degrees := make([]int, spec.MaxDegree+1)
	for d := range degrees {
		degrees[d] = d
	}
	for _, c := range spec.Cells() {
		res := CellResult{
			Dataset:     c.Dataset.Name,
			Model:       c.Model.Name(),
			Mode:        c.Mode.String(),
			DatasetSpec: c.Dataset,
			ModelSpec:   c.Model,
			Seed:        spec.CellSeed(c),
			Users:       500,
			Repeats:     spec.Repeats,
			Degrees:     degrees,
			Policies:    spec.Policies,
			Metrics:     make(map[string][][]float64),
		}
		for _, id := range MetricIDs() {
			grid := make([][]float64, len(spec.Policies))
			for p := range grid {
				grid[p] = make([]float64, len(degrees))
				for d := range grid[p] {
					grid[p][d] = rng.Float64()
				}
			}
			res.Metrics[id] = grid
		}
		m.Cells = append(m.Cells, res)
	}
	return m
}

// BenchmarkCheckpointAppend times one journal line of a paper-scale cell,
// its encoding and the fsync that makes it durable included.
func BenchmarkCheckpointAppend(b *testing.B) {
	m := paperManifest()
	cells := m.Spec.Cells()
	cp, _, err := openCheckpoint(filepath.Join(b.TempDir(), "run.ckpt"), m.Spec, cells, false)
	if err != nil {
		b.Fatal(err)
	}
	defer cp.Close()
	i := 0
	for b.Loop() {
		c := i % len(cells)
		if err := cp.append(c, cells[c].canonicalKey(), m.Cells[c]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkManifestMarshal times the canonical encoding of a paper-scale
// manifest, the bytes every matrix run writes.
func BenchmarkManifestMarshal(b *testing.B) {
	m := paperManifest()
	out, err := m.MarshalCanonical()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(out)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := m.MarshalCanonical(); err != nil {
			b.Fatal(err)
		}
	}
}
