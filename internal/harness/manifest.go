package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"dosn/internal/core"
	"dosn/internal/dht"
	"dosn/internal/fault"
)

// ManifestVersion is the schema version stamped into emitted manifests.
const ManifestVersion = 1

// MetricIDs lists the metric identifiers a CellResult records, in CSV column
// order.
func MetricIDs() []string {
	ms := core.Metrics()
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.ID()
	}
	return out
}

// CellResult is the machine-readable outcome of one matrix cell: every
// metric's mean for every (policy, degree) pair.
type CellResult struct {
	Dataset string `json:"dataset"`
	Model   string `json:"model"`
	Mode    string `json:"mode"`
	// Architecture is the storage architecture ("RandomDHT", "SocialDHT");
	// empty means FriendReplica, kept implicit so manifests of
	// pre-architecture-axis specs stay byte-identical. Read it through
	// ArchName.
	Architecture string `json:"architecture,omitempty"`
	// DatasetSpec and ModelSpec carry the full cell coordinates: display
	// names drop parameters (every Sporadic session length reads
	// "Sporadic"), so these disambiguate parameterized variants.
	DatasetSpec DatasetSpec `json:"dataset_spec"`
	ModelSpec   ModelSpec   `json:"model_spec"`
	// Seed is the cell seed derived from (root seed, coordinates).
	Seed int64 `json:"seed"`
	// Users is the analysis population the sweep averaged over.
	Users   int `json:"users"`
	Repeats int `json:"repeats"`
	// Degrees lists the swept replication degrees (0..MaxDegree).
	Degrees []int `json:"degrees"`
	// Policies lists policy names in the order Metrics' outer slices use.
	Policies []string `json:"policies"`
	// Metrics maps a metric identifier to [policy][degreeIndex] mean values.
	Metrics map[string][][]float64 `json:"metrics"`
}

func newCellResult(cell CellSpec, seed int64, res *core.Result) CellResult {
	arch := ""
	if !cell.isFriend() {
		arch = cell.Arch
	}
	out := CellResult{
		Dataset:      cell.Dataset.Name,
		Model:        cell.Model.Name(),
		Mode:         cell.Mode.String(),
		Architecture: arch,
		DatasetSpec:  cell.Dataset,
		ModelSpec:    cell.Model,
		Seed:         seed,
		Users:        res.Users,
		Repeats:      res.Repeats,
		Degrees:      res.Degrees,
		Policies:     res.Policies,
	}
	ms := core.Metrics()
	out.Metrics = make(map[string][][]float64, len(ms))
	for _, m := range ms {
		grid := make([][]float64, len(res.Policies))
		for pi := range res.Policies {
			row := make([]float64, len(res.Degrees))
			for di := range res.Degrees {
				row[di] = res.Value(pi, di, m)
			}
			grid[pi] = row
		}
		out.Metrics[m.ID()] = grid
	}
	return out
}

// ArchName returns the cell's canonical architecture name, resolving the
// implicit empty default to FriendReplica.
func (c CellResult) ArchName() string {
	if c.Architecture == "" {
		return dht.ArchFriendReplica
	}
	return c.Architecture
}

// Value returns the mean of the identified metric for a policy/degree index.
func (c CellResult) Value(metricID string, policy, degreeIdx int) (float64, bool) {
	grid, ok := c.Metrics[metricID]
	if !ok || policy >= len(grid) || degreeIdx >= len(grid[policy]) {
		return 0, false
	}
	return grid[policy][degreeIdx], true
}

// RunManifest is the versioned result artifact of one matrix run. Its JSON
// encoding is canonical: the same spec and root seed always produce the same
// bytes, independent of worker count and execution order.
type RunManifest struct {
	Version int        `json:"version"`
	Spec    MatrixSpec `json:"spec"`
	// ScheduleCacheHits counts cells that reused another cell's schedule
	// computation: cells minus distinct tableIDs. It is derived from the
	// spec, not measured, because a resumed run asks for fewer entries and a
	// rebuild after a failed build still counts as a reuse, while manifest
	// bytes depend on (spec, seed) alone; a clean run measures the same.
	ScheduleCacheHits int          `json:"schedule_cache_hits"`
	Cells             []CellResult `json:"cells"`
}

// Cell returns the first result matching the given display-name coordinates.
// Parameterized model variants can share a display name; disambiguate via
// CellResult.ModelSpec when iterating Cells directly, and use CellWithArch
// when the spec sweeps several architectures over one coordinate triple.
func (m *RunManifest) Cell(dataset, model, mode string) (CellResult, bool) {
	for _, c := range m.Cells {
		if c.Dataset == dataset && c.Model == model && c.Mode == mode {
			return c, true
		}
	}
	return CellResult{}, false
}

// CellWithArch returns the first result matching the display-name
// coordinates and the canonical architecture name ("FriendReplica" matches
// the implicit default).
func (m *RunManifest) CellWithArch(dataset, model, mode, arch string) (CellResult, bool) {
	for _, c := range m.Cells {
		if c.Dataset == dataset && c.Model == model && c.Mode == mode && c.ArchName() == arch {
			return c, true
		}
	}
	return CellResult{}, false
}

// faultManifestWrite models a failure at the very last step of a run — after
// every cell has completed and been journaled — so recovery tests can prove a
// resume recomputes nothing and still emits identical bytes.
var faultManifestWrite = fault.NewSite("harness.manifest-write")

// WriteJSON writes the manifest as indented canonical JSON (MarshalCanonical
// plus a trailing newline — the two forms stay byte-compatible).
func (m *RunManifest) WriteJSON(w io.Writer) error {
	b, err := m.MarshalCanonical()
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// MarshalCanonical returns the indented canonical JSON bytes (the form
// WriteJSON emits and the determinism tests compare).
func (m *RunManifest) MarshalCanonical() ([]byte, error) {
	if err := faultManifestWrite.Inject(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(m, "", "  ")
}

// ReadManifest parses a manifest written by WriteJSON, rejecting unknown
// schema versions.
func ReadManifest(r io.Reader) (*RunManifest, error) {
	var m RunManifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("harness: parse manifest: %w", err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("harness: manifest version %d not supported (want %d)", m.Version, ManifestVersion)
	}
	return &m, nil
}

// WriteCSV writes the manifest as a flat table: one row per (cell, policy,
// degree) with one column per metric — the shape spreadsheet and dataframe
// tooling ingests directly.
func (m *RunManifest) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	// model_key disambiguates parameterized variants that share a display
	// name (every Sporadic session length prints "Sporadic" in model). The
	// arch coordinate sits in the final column so every pre-existing column
	// keeps its position for consumers that index positionally.
	fmt.Fprint(bw, "dataset,model,model_key,mode,policy,degree,seed,users,repeats")
	metrics := core.Metrics()
	for _, m := range metrics {
		fmt.Fprint(bw, ","+m.ID())
	}
	fmt.Fprintln(bw, ",arch")
	for _, c := range m.Cells {
		for pi, policy := range c.Policies {
			for di, degree := range c.Degrees {
				fmt.Fprintf(bw, "%s,%s,%s,%s,%s,%d,%d,%d,%d",
					c.Dataset, c.Model, c.ModelSpec.key(), c.Mode, policy, degree, c.Seed, c.Users, c.Repeats)
				for _, m := range metrics {
					v, _ := c.Value(m.ID(), pi, di)
					fmt.Fprint(bw, ","+strconv.FormatFloat(v, 'g', -1, 64))
				}
				fmt.Fprintln(bw, ","+c.ArchName())
			}
		}
	}
	return bw.Flush()
}
