// Package harness executes whole experiment matrices — the cross product of
// datasets × online-time models × placement modes the paper sweeps in its
// evaluation section — on a worker pool layered above core.Run's per-user
// parallelism, and emits the results as versioned JSON/CSV artifacts.
//
// Everything is deterministic: each cell's RNG seed is derived by hashing the
// root seed with the cell's coordinates (dataset name, model name, mode), so
// results are byte-identical for the same spec and root seed regardless of
// worker count, execution order, or which other cells share the run.
//
// A cached product's identity is one comparable struct, its cache key and
// its seed's only input: a dataset's is its normalized DatasetSpec, a
// schedule entry's its tableID (dataset, model, root seed). Every cell over
// one (dataset, model) shares an entry whatever its mode, architecture,
// user degree or repeat count: the paper matrix computes each schedule set
// once for its two modes, and Fig. 9's cells read Fig. 3a's tables.
//
// A schedule table fills only the rows its readers read: the union of its
// friend cells' analysis closures (core.AnalysisRows, the analysed users
// and their candidates, about a fifth of a paper-scale dataset); every row
// for a DHT cell; every row of the first table for a door experiment. When
// that build is the same for every seed (onlinetime.SeedIndependent:
// FixedLength when every filled row has an activity center), the entry
// builds one table for every repetition, and core.Run sweeps its RNG-free
// policies over it once. None of this changes a manifest byte.
//
// Figures renders the paper's figures as views of cells on the same loop, so
// a figure point is the number a manifest reports for that cell.
package harness

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"dosn/internal/dht"
	"dosn/internal/mathrand"
	"dosn/internal/onlinetime"
	"dosn/internal/replica"
	"dosn/internal/trace"
)

// SpecVersion is the schema version stamped into marshaled MatrixSpecs; bump
// it when a field changes meaning so stale specs are detected, not misread.
const SpecVersion = 1

// DatasetSpec names one synthetic dataset of the matrix declaratively, so
// specs can round-trip through JSON.
type DatasetSpec struct {
	// Name selects the generator calibration: "facebook" or "twitter".
	Name string `json:"name"`
	// Users is the synthesized user count before activity filtering.
	Users int `json:"users"`
	// Seed drives the dataset synthesis (independent of the root seed: the
	// same dataset is reused across root seeds, as with a real trace). Zero
	// means the calibration's default seed (1 for facebook, 2 for twitter);
	// note this differs from dosn.SynthesizeCalibrated, which uses its seed
	// argument literally.
	Seed int64 `json:"seed"`
	// MinActivity filters users with fewer created activities, as the paper
	// does (10). Negative disables filtering; zero means the paper's 10.
	MinActivity int `json:"min_activity,omitempty"`
}

// normalized resolves zero-value defaults to their effective values, so two
// specs that synthesize the identical dataset always share one identity.
func (d DatasetSpec) normalized() DatasetSpec {
	if d.Seed == 0 {
		switch d.Name {
		case "facebook":
			d.Seed = trace.DefaultFacebookConfig(1).Seed
		case "twitter":
			d.Seed = trace.DefaultTwitterConfig(1).Seed
		}
	}
	if d.MinActivity == 0 {
		d.MinActivity = trace.PaperMinActivity
	} else if d.MinActivity < 0 {
		d.MinActivity = -1 // every negative value means "no filter"
	}
	return d
}

func (d DatasetSpec) key() string {
	n := d.normalized()
	return fmt.Sprintf("%s/%d/%d/%d", n.Name, n.Users, n.Seed, n.MinActivity)
}

// ModelSpec names one online-time model declaratively. RandomLength takes no
// parameter: its window range is the paper's [2, 8] hours.
type ModelSpec struct {
	// Kind is "sporadic", "fixed" or "random".
	Kind string `json:"kind"`
	// Hours is the FixedLength window length (fixed only).
	Hours int `json:"hours,omitempty"`
	// SessionSeconds overrides Sporadic's 20-minute default session.
	SessionSeconds int `json:"session_seconds,omitempty"`
}

// Model instantiates the described online-time model.
func (m ModelSpec) Model() (onlinetime.Model, error) {
	switch m.Kind {
	case "sporadic":
		return onlinetime.Sporadic{SessionLength: time.Duration(m.SessionSeconds) * time.Second}, nil
	case "fixed":
		if m.Hours <= 0 || m.Hours > 24 {
			return nil, fmt.Errorf("harness: fixed model needs hours in 1..24, got %d", m.Hours)
		}
		return onlinetime.FixedLength{Hours: m.Hours}, nil
	case "random":
		return onlinetime.RandomLength{}, nil
	default:
		return nil, fmt.Errorf("harness: unknown model kind %q (sporadic|fixed|random)", m.Kind)
	}
}

// Name returns the instantiated model's display name ("Sporadic", ...).
// Display names drop parameters (Sporadic reads the same at any session
// length); identity decisions must use key() instead.
func (m ModelSpec) Name() string {
	mod, err := m.Model()
	if err != nil {
		return "invalid(" + m.Kind + ")"
	}
	return mod.Name()
}

// normalized resolves zero-value defaults to their effective values and
// drops parameters the kind ignores, so semantically identical specs
// ("sporadic" vs "sporadic:1200", both meaning a 20-minute session) always
// share one identity.
func (m ModelSpec) normalized() ModelSpec {
	switch m.Kind {
	case "sporadic":
		if m.SessionSeconds <= 0 { // the runtime treats any non-positive length as the default
			m.SessionSeconds = int(onlinetime.DefaultSessionLength / time.Second)
		}
		m.Hours = 0
	case "fixed":
		m.SessionSeconds = 0
	case "random":
		m.Hours, m.SessionSeconds = 0, 0
	}
	return m
}

// key encodes the model's identity into the cell and table seeds: every
// effective parameter is encoded, so two variants of the same kind
// ("sporadic" vs "sporadic:3600") never collide in seed derivation. Its last
// two fields are RandomLength's window range in hours, 0/0 for the other
// kinds: the range is fixed, but every RandomLength table and cell seed
// hashes these bytes.
func (m ModelSpec) key() string {
	n := m.normalized()
	lo, hi := 0, 0
	if n.Kind == "random" {
		lo, hi = onlinetime.RandomMinHours, onlinetime.RandomMaxHours
	}
	return fmt.Sprintf("%s/%d/%d/%d/%d", n.Kind, n.Hours, n.SessionSeconds, lo, hi)
}

// Sporadic, FixedLength and RandomLength build the common model specs.
func Sporadic() ModelSpec             { return ModelSpec{Kind: "sporadic"} }
func FixedLength(hours int) ModelSpec { return ModelSpec{Kind: "fixed", Hours: hours} }
func RandomLength() ModelSpec         { return ModelSpec{Kind: "random"} }

// MatrixSpec declares a full experiment matrix: every combination of dataset,
// model and mode becomes one cell, each swept over replication degrees
// 0..MaxDegree with every policy.
type MatrixSpec struct {
	Version  int           `json:"version"`
	Datasets []DatasetSpec `json:"datasets"`
	Models   []ModelSpec   `json:"models"`
	// Modes lists "ConRep" and/or "UnconRep".
	Modes []string `json:"modes"`
	// Architectures lists the storage architectures evaluated as a fourth
	// matrix axis: "FriendReplica" (the paper's friend replication, driven
	// by Policies), "RandomDHT" (key-successor placement) and/or
	// "SocialDHT" (socially-re-ranked successor placement). Empty means
	// FriendReplica only, which leaves every existing cell's identity —
	// seed, key, and result bytes — exactly as it was before the axis
	// existed.
	Architectures []string `json:"architectures,omitempty"`
	// Policies names the placement policies evaluated side by side in every
	// cell; empty means the paper's MaxAv, MostActive, Random.
	Policies []string `json:"policies,omitempty"`
	// MaxDegree bounds the replication-degree sweep (paper: 10).
	MaxDegree int `json:"max_degree"`
	// UserDegree selects the analysis population (paper: 10): the users
	// with exactly this many friends; it must be >= 1.
	UserDegree int `json:"user_degree"`
	// Repeats averages repeated randomized runs (paper: 5).
	Repeats int `json:"repeats"`
	// RootSeed is hashed with each cell's coordinates to derive the cell
	// seed; it is the only seed a caller needs to pin a whole run.
	RootSeed int64 `json:"root_seed"`
}

// PaperMatrix returns the paper's full evaluation matrix — {Facebook,
// Twitter} × {Sporadic, RandomLength, FixedLength 2/4/6/8 h} × {ConRep,
// UnconRep} — at the given per-dataset user scale.
func PaperMatrix(users int) MatrixSpec {
	return MatrixSpec{
		Version:  SpecVersion,
		Datasets: []DatasetSpec{{Name: "facebook", Users: users, Seed: 1}, {Name: "twitter", Users: users, Seed: 2}},
		Models: []ModelSpec{
			Sporadic(), RandomLength(),
			FixedLength(2), FixedLength(4), FixedLength(6), FixedLength(8),
		},
		Modes:      []string{replica.ConRep.String(), replica.UnconRep.String()},
		MaxDegree:  10,
		UserDegree: 10,
		Repeats:    5,
		RootSeed:   42,
	}
}

func (s MatrixSpec) fill() MatrixSpec {
	if s.Version == 0 {
		s.Version = SpecVersion
	}
	if len(s.Policies) == 0 {
		for _, p := range replica.DefaultPolicies() {
			s.Policies = append(s.Policies, p.Name())
		}
	}
	if s.MaxDegree <= 0 {
		s.MaxDegree = 10
	}
	if s.Repeats <= 0 {
		s.Repeats = 1
	}
	if s.RootSeed == 0 {
		s.RootSeed = 42
	}
	return s
}

// Validate reports spec errors before any work is done.
func (s MatrixSpec) Validate() error {
	if s.Version != 0 && s.Version != SpecVersion {
		return fmt.Errorf("harness: spec version %d not supported (want %d)", s.Version, SpecVersion)
	}
	if len(s.Datasets) == 0 {
		return fmt.Errorf("harness: spec needs at least one dataset")
	}
	for _, d := range s.Datasets {
		if d.Name != "facebook" && d.Name != "twitter" {
			return fmt.Errorf("harness: unknown dataset %q (facebook|twitter)", d.Name)
		}
		if d.Users <= 0 {
			return fmt.Errorf("harness: dataset %q needs users > 0", d.Name)
		}
	}
	if len(s.Models) == 0 {
		return fmt.Errorf("harness: spec needs at least one model")
	}
	for _, m := range s.Models {
		if _, err := m.Model(); err != nil {
			return err
		}
	}
	if len(s.Modes) == 0 {
		return fmt.Errorf("harness: spec needs at least one mode")
	}
	for _, mo := range s.Modes {
		if _, err := parseMode(mo); err != nil {
			return err
		}
	}
	for _, a := range s.Architectures {
		if !slices.Contains(dht.ArchNames(), a) {
			return fmt.Errorf("harness: unknown architecture %q (%s)", a, strings.Join(dht.ArchNames(), "|"))
		}
	}
	for _, p := range s.Policies {
		if _, err := policyByName(p); err != nil {
			return err
		}
	}
	if s.UserDegree < 1 {
		return fmt.Errorf("harness: spec needs user_degree >= 1, got %d", s.UserDegree)
	}
	seen := make(map[string]bool)
	for _, c := range s.Cells() {
		key := c.canonicalKey()
		if seen[key] {
			return fmt.Errorf("harness: duplicate cell %s (identical dataset, model, mode and architecture listed twice)", c.Key())
		}
		seen[key] = true
	}
	return nil
}

// archList returns the effective architecture axis: the spec's entries, or
// FriendReplica alone when none are listed.
func (s MatrixSpec) archList() []string {
	if len(s.Architectures) == 0 {
		return []string{dht.ArchFriendReplica}
	}
	return s.Architectures
}

func parseMode(s string) (replica.Mode, error) {
	switch s {
	case "ConRep":
		return replica.ConRep, nil
	case "UnconRep":
		return replica.UnconRep, nil
	default:
		return 0, fmt.Errorf("harness: unknown mode %q (ConRep|UnconRep)", s)
	}
}

func policyByName(name string) (replica.Policy, error) {
	var names []string
	for _, p := range replica.SelectablePolicies() {
		if p.Name() == name {
			return p, nil
		}
		names = append(names, p.Name())
	}
	return nil, fmt.Errorf("harness: unknown policy %q (%s)", name, strings.Join(names, "|"))
}

// CellSpec is one enumerated cell of the matrix with its coordinates.
type CellSpec struct {
	Index   int
	Dataset DatasetSpec
	Model   ModelSpec
	Mode    replica.Mode
	// Arch is the canonical architecture name (FriendReplica|RandomDHT|
	// SocialDHT); empty means FriendReplica.
	Arch string
}

// isFriend reports whether the cell runs the classic friend-replica
// architecture.
func (c CellSpec) isFriend() bool {
	return c.Arch == "" || c.Arch == dht.ArchFriendReplica
}

// Key is the cell's human-readable coordinate string for progress output.
// It uses display names and may coincide for parameterized model variants;
// seed derivation uses canonicalKey. FriendReplica cells keep the original
// three-part form so existing tooling and logs read unchanged; DHT cells
// append the architecture.
func (c CellSpec) Key() string {
	k := fmt.Sprintf("%s/%s/%s", c.Dataset.Name, c.Model.Name(), c.Mode)
	if !c.isFriend() {
		k += "/" + c.Arch
	}
	return k
}

// canonicalKey encodes every coordinate parameter; it is the identity the
// cell seed, the checkpoint journal, the door's job key (job.key) and
// Validate's duplicate check are built on.
// FriendReplica cells keep the pre-architecture-axis form, so their seeds —
// and therefore their result bytes — are identical to specs written before
// the axis existed. DHT cells end in the ring width, dht.DefaultBits.
func (c CellSpec) canonicalKey() string {
	k := c.Dataset.key() + "|" + c.Model.key() + "|" + c.Mode.String()
	if !c.isFriend() {
		k += "|" + c.Arch + "|" + strconv.Itoa(dht.DefaultBits)
	}
	return k
}

// Cells enumerates the matrix in canonical (dataset, model, mode,
// architecture) order. With architectures listed, FriendReplica-first
// ordering within a coordinate triple is whatever the spec lists — callers
// that need one specific architecture should match on CellSpec.Arch (or
// RunManifest.CellWithArch) rather than position.
func (s MatrixSpec) Cells() []CellSpec {
	var out []CellSpec
	for _, d := range s.Datasets {
		for _, m := range s.Models {
			for _, mo := range s.Modes {
				mode, err := parseMode(mo)
				if err != nil {
					continue // Validate reports this; enumeration skips it
				}
				for _, a := range s.archList() {
					out = append(out, CellSpec{Index: len(out), Dataset: d, Model: m, Mode: mode, Arch: a})
				}
			}
		}
	}
	return out
}

// CellSeed derives the cell's RNG seed from the root seed and the cell's
// canonical coordinates. Hashing coordinates rather than list indices makes
// the seed — and therefore the cell's result — invariant under reordering or
// subsetting of the spec's dataset/model/mode lists.
func (s MatrixSpec) CellSeed(c CellSpec) int64 {
	return int64(mathrand.HashString(fmt.Sprintf("cell|%d|%s", s.RootSeed, c.canonicalKey())))
}

// tableID is a schedule entry's identity: exactly the normalized spec values
// its tables' seeds read. It keys the schedule cache and, with the
// repetition, is a table's seed's only input, so two cells share a table
// exactly when its bits coincide; the other spec fields decide only which
// rows and how many tables are filled.
type tableID struct {
	Dataset  DatasetSpec
	Model    ModelSpec
	RootSeed int64
}

// seed seeds the entry's table of repetition rep.
func (t tableID) seed(rep int) int64 {
	return int64(mathrand.HashString(fmt.Sprintf("sched|%d|%s|%s|%d", t.RootSeed, t.Dataset.key(), t.Model.key(), rep)))
}
