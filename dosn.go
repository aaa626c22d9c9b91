// Package dosn is a from-scratch Go reproduction of "Towards the Realization
// of Decentralized Online Social Networks: An Empirical Study" (Narendula,
// Papaioannou, Aberer; ICDCS 2012).
//
// The library models friend-to-friend (F2F) profile replication for
// decentralized online social networks and reproduces the paper's entire
// evaluation: three replica-placement policies (MaxAv, MostActive, Random),
// three user online-time models (Sporadic, FixedLength, RandomLength),
// connected (ConRep) and unconnected (UnconRep) placements, and the four
// efficiency metrics — availability, availability-on-demand-time,
// availability-on-demand-activity, and update-propagation delay. Beyond the
// paper's analytic simulator it includes an executable protocol runtime
// (anti-entropy replication over a discrete-event simulation, plus a TCP
// node) that measures what the analytic metrics predict.
//
// Quick start:
//
//	fb, err := dosn.Facebook(2000, 1)          // synthetic New-Orleans-like trace
//	if err != nil { ... }
//	res, err := dosn.RunSweep(dosn.SweepConfig{Dataset: fb})
//	if err != nil { ... }
//	for _, s := range res.MetricSeries(dosn.MetricAvailability) {
//		fmt.Println(s.Label, s.Y)               // one curve per policy, Fig. 3a
//	}
//
// The original Facebook/Twitter traces are not redistributable; the
// Facebook/Twitter constructors synthesize datasets calibrated to the
// statistics the paper reports — degree distribution, per-user activity
// volume, diurnal clustering and interaction skew (see trace.SynthConfig for
// the knobs and the calibration rationale).
//
// RunMatrix executes the paper's whole experiment matrix (datasets × models ×
// modes) deterministically in one call; see MatrixSpec and PaperMatrix. The
// matrix has an optional fourth axis — the storage architecture — that puts
// the paper's friend replication side by side with DHT-based placement
// (RandomDHT, SocialDHT) on a deterministic Chord-style key ring; see
// MatrixSpec.Architectures and RunArchComparison.
package dosn

import (
	"io"
	"time"

	"dosn/internal/core"
	"dosn/internal/dht"
	"dosn/internal/harness"
	"dosn/internal/metrics"
	"dosn/internal/onlinetime"
	"dosn/internal/plot"
	"dosn/internal/replica"
	"dosn/internal/trace"
)

// Re-exported core types. The internal packages stay internal; these aliases
// are the supported surface.
type (
	// Dataset joins a social graph with its activity trace. Activities are
	// stored columnar (struct-of-arrays with CSR per-user indexes; see the
	// trace package doc): iterate with NumActivities/ActivityAt or the
	// allocation-free CreatedIdx/ReceivedIdx/ReceivedIdxBetween views, and
	// load rows with SetActivities/AppendActivity + Reindex.
	Dataset = trace.Dataset
	// Activity is the row view of one interaction record — the construction
	// and serialization boundary of the columnar Dataset.
	Activity = trace.Activity
	// SynthConfig parameterizes synthetic dataset generation.
	SynthConfig = trace.SynthConfig
	// OnlineModel approximates per-user online times from activity. Its one
	// build method is BuildTable (a nil row set builds every row): schedules
	// exist only as ScheduleTable rows (row.Set() is the interval view of a
	// row).
	OnlineModel = onlinetime.Model
	// ScheduleTable is the arena-backed dense schedule store: one day-bitmap
	// row per user in a single flat allocation. SweepConfig.Schedules takes
	// one table per repetition, so callers sharing schedules across sweeps
	// densify each (dataset, model, repetition) exactly once.
	ScheduleTable = onlinetime.Table
	// Policy places profile replicas on friends. Its input is dense-only:
	// schedules arrive as ScheduleTable rows (Input.Bitmaps), interaction
	// counts positionally (Input.CandidateCounts), and the activity-demand
	// universe as a bitmap (Input.Demand).
	Policy = replica.Policy
	// Mode selects connected (ConRep) or unconnected (UnconRep) placement.
	Mode = replica.Mode
	// SweepConfig parameterizes a replication-degree sweep.
	SweepConfig = core.Config
	// SweepResult holds the aggregated metrics of a sweep.
	SweepResult = core.Result
	// Metric identifies one efficiency metric.
	Metric = core.Metric
	// Figure is a plottable reproduction of a paper figure.
	Figure = plot.Figure
	// Series is one labelled curve of a figure.
	Series = plot.Series
	// ProtocolConfig parameterizes the protocol-level validation run.
	ProtocolConfig = core.ProtocolConfig
	// ProtocolResult compares analytic predictions with measurements.
	ProtocolResult = core.ProtocolResult
	// LoadBalanceRow reports replica-host load fairness for one policy.
	LoadBalanceRow = core.LoadBalanceRow
	// HistorySplitResult reports the train-on-history MostActive ablation.
	HistorySplitResult = core.HistorySplitResult
	// ChurnRow reports availability degradation under replica failures.
	ChurnRow = core.ChurnRow
	// MatrixSpec declares a whole experiment matrix (datasets × models ×
	// modes) for one deterministic harness run.
	MatrixSpec = harness.MatrixSpec
	// MatrixDataset declares one dataset of a matrix.
	MatrixDataset = harness.DatasetSpec
	// MatrixModel declares one online-time model of a matrix.
	MatrixModel = harness.ModelSpec
	// MatrixOptions tunes matrix execution (worker counts, progress); it
	// never affects the results.
	MatrixOptions = harness.RunOptions
	// RunManifest is the versioned JSON/CSV result artifact of a matrix run.
	RunManifest = harness.RunManifest
	// MatrixCellResult is one cell's machine-readable sweep outcome.
	MatrixCellResult = harness.CellResult
	// ArchConfig parameterizes a storage-architecture comparison.
	ArchConfig = core.ArchConfig
	// ArchRow is one architecture's side of the comparison.
	ArchRow = core.ArchRow
	// RoutingStats summarizes DHT lookup hop counts.
	RoutingStats = metrics.RoutingStats
)

// Storage-architecture names: the values of MatrixSpec.Architectures, the
// `dosn-sim matrix -arch` flag and ArchConfig.Architectures.
const (
	// ArchFriendReplica replicates profiles on friends (the paper's
	// architecture, driven by the classic policies).
	ArchFriendReplica = dht.ArchFriendReplica
	// ArchRandomDHT stores profiles on key-successor ring nodes
	// (DECENT-style: placement independent of the social graph).
	ArchRandomDHT = dht.ArchRandomDHT
	// ArchSocialDHT re-ranks ring successor candidates by social proximity
	// and schedule overlap before placing (Nasir-style).
	ArchSocialDHT = dht.ArchSocialDHT
)

// Placement modes.
const (
	// ConRep requires every replica to overlap in time with the owner or an
	// earlier replica (the privacy-conscious configuration the paper
	// advocates).
	ConRep = replica.ConRep
	// UnconRep places replicas freely; update exchange would use external
	// storage.
	UnconRep = replica.UnconRep
)

// Efficiency metrics (paper §II-C).
const (
	MetricAvailability      = core.MetricAvailability
	MetricAoDTime           = core.MetricAoDTime
	MetricAoDActivity       = core.MetricAoDActivity
	MetricDelayHours        = core.MetricDelayHours
	MetricEffectiveReplicas = core.MetricEffectiveReplicas
)

// NewSporadic returns the Sporadic online-time model: one session of the
// given length per activity (0 means the paper's 20-minute default).
func NewSporadic(session time.Duration) OnlineModel {
	return onlinetime.Sporadic{SessionLength: session}
}

// NewFixedLength returns the continuous fixed-window model (the paper uses
// 2, 4, 6 and 8 hours).
func NewFixedLength(hours int) OnlineModel { return onlinetime.FixedLength{Hours: hours} }

// NewRandomLength returns the continuous model with a per-user window length
// drawn uniformly from [2, 8] hours.
func NewRandomLength() OnlineModel { return onlinetime.RandomLength{} }

// DefaultModels returns the four models the paper's figures evaluate.
func DefaultModels() []OnlineModel { return onlinetime.DefaultModels() }

// BuildScheduleTable computes the model's schedules for every user of the
// dataset as a ScheduleTable, deterministically for a given seed. workers
// bounds the parallel construction phase and never affects the result (the
// random draws are sequential; see the onlinetime package doc).
func BuildScheduleTable(m OnlineModel, d *Dataset, seed int64, workers int) *ScheduleTable {
	return onlinetime.ComputeTable(m, d, seed, workers)
}

// Policies.
var (
	// MaxAv greedily maximizes availability (set-cover heuristic, §III-A).
	MaxAv Policy = replica.MaxAv{}
	// MostActive picks the friends with the most interactions (§III-B).
	MostActive Policy = replica.MostActive{}
	// RandomPolicy picks uniformly random friends (§III-C).
	RandomPolicy Policy = replica.Random{}
)

// DefaultPolicies returns MaxAv, MostActive and Random in plot order.
func DefaultPolicies() []Policy { return replica.DefaultPolicies() }

// PaperScale constants: the filtered trace sizes the paper reports, and the
// activity-count filter it applies before analysis. The "paper" scale
// synthesizes PaperFacebookUsers and PaperTwitterUsers users before the
// filter, so fewer remain after it (12,952 and 12,303 at the default seeds).
const (
	PaperFacebookUsers = trace.PaperFacebookUsers
	PaperTwitterUsers  = trace.PaperTwitterUsers
	PaperMinActivity   = trace.PaperMinActivity
)

// Facebook synthesizes a Facebook-like dataset (New Orleans wall-post trace
// shape: undirected friendships, average degree ≈41, ≈50 wall posts per
// user) with the given user count and seed, filtered to users with at least
// 10 activities exactly as the paper does.
func Facebook(users int, seed int64) (*Dataset, error) {
	return trace.SynthesizeCalibrated("facebook", users, seed, trace.PaperMinActivity)
}

// Twitter synthesizes a Twitter-like dataset (directed follower graph,
// average follower count ≈76, tweets mentioning followees) with the given
// user count and seed, filtered like the paper's trace.
func Twitter(users int, seed int64) (*Dataset, error) {
	return trace.SynthesizeCalibrated("twitter", users, seed, trace.PaperMinActivity)
}

// Synthesize generates a dataset from a custom configuration (no filtering).
func Synthesize(cfg SynthConfig) (*Dataset, error) { return trace.Synthesize(cfg) }

// SynthesizeCalibrated builds the named calibrated dataset ("facebook" or
// "twitter") through the single shared construction path. The seed is used
// literally; minActivity 0 means PaperMinActivity, negative disables
// filtering.
func SynthesizeCalibrated(name string, users int, seed int64, minActivity int) (*Dataset, error) {
	return trace.SynthesizeCalibrated(name, users, seed, minActivity)
}

// FacebookConfig returns the default Facebook-like generator configuration
// for customization before calling Synthesize.
func FacebookConfig(users int) SynthConfig { return trace.DefaultFacebookConfig(users) }

// TwitterConfig returns the default Twitter-like generator configuration.
func TwitterConfig(users int) SynthConfig { return trace.DefaultTwitterConfig(users) }

// RunSweep executes a replication-degree sweep (the core experiment behind
// figures 3–7 and 10–11).
func RunSweep(cfg SweepConfig) (*SweepResult, error) { return core.Run(cfg) }

// PaperMatrix returns the paper's full evaluation matrix — {Facebook,
// Twitter} × {Sporadic, RandomLength, FixedLength 2/4/6/8 h} × {ConRep,
// UnconRep} — at the given per-dataset user scale.
func PaperMatrix(users int) MatrixSpec { return harness.PaperMatrix(users) }

// RunMatrix executes every cell of the matrix concurrently and returns the
// assembled manifest. Results are byte-identical for the same spec and root
// seed regardless of worker count or execution order.
func RunMatrix(spec MatrixSpec, opts MatrixOptions) (*RunManifest, error) {
	return harness.Run(spec, opts)
}

// Figures renders the figures of the paper and the extension experiments
// with the given IDs (FigureIDs), in order, from spec's datasets, MaxDegree,
// UserDegree (> 0), Repeats and RootSeed. A figure point equals the number
// RunMatrix reports for the same cell.
func Figures(spec MatrixSpec, ids []string) ([]Figure, error) {
	return harness.Figures(spec, ids)
}

// FigureIDs lists every figure Figures renders: the paper's in paper order
// ("fig2", "fig3a" … "fig11d"), then the extension experiments
// ("ablation-objective-avail", … "experiment-arch").
func FigureIDs() []string { return harness.FigureIDs() }

// RunArchComparison evaluates DOSN storage architectures head to head over
// one dataset: friend replication (the paper's design) against RandomDHT and
// SocialDHT placement on a deterministic Chord-style key ring. Every row
// shares the same schedules and analysis population; beyond the paper's four
// sweep metrics it reports lookup hop cost and per-node storage-load
// imbalance — the two axes on which the architecture families differ.
func RunArchComparison(cfg ArchConfig) ([]ArchRow, error) {
	return core.RunArchComparison(cfg)
}

// RunProtocolValidation executes the discrete-event OSN runtime on a
// policy-placed sample of walls and compares measured delivery delays with
// the analytic update-propagation-delay metric.
func RunProtocolValidation(cfg ProtocolConfig) (*ProtocolResult, error) {
	return core.RunProtocolValidation(cfg)
}

// ReplicaLoadBalance reports how evenly each policy spreads replica-hosting
// duty over the nodes (the fairness requirement of §II-B1).
func ReplicaLoadBalance(ds *Dataset, model OnlineModel, mode Mode, budget int, seed int64) ([]LoadBalanceRow, error) {
	return core.ReplicaLoadBalance(ds, model, mode, budget, seed)
}

// NewMaxAvActivity returns the MaxAv variant whose set-cover universe is the
// past activity on the owner's profile (§III-A's availability-on-demand-
// activity objective) rather than the friends' online time.
func NewMaxAvActivity() Policy {
	return replica.MaxAv{Objective: replica.ObjectiveOnDemandActivity}
}

// HistorySplit trains MostActive on the first trainFraction of the trace and
// evaluates availability-on-demand-activity on the remainder, against an
// oracle ranking and a random floor.
func HistorySplit(ds *Dataset, model OnlineModel, budget int, trainFraction float64, seed int64) (*HistorySplitResult, error) {
	return core.HistorySplit(ds, model, budget, trainFraction, seed)
}

// Churn measures availability as randomly chosen replicas fail, per policy.
func Churn(ds *Dataset, model OnlineModel, budget, repeats int, seed int64) ([]ChurnRow, error) {
	return core.Churn(ds, model, budget, repeats, seed)
}

// WriteDataset serializes a dataset (graph, then activities).
func WriteDataset(d *Dataset, graphW, actW io.Writer) error { return d.Write(graphW, actW) }

// ReadDataset deserializes a dataset written by WriteDataset.
func ReadDataset(name string, graphR, actR io.Reader) (*Dataset, error) {
	return trace.Read(name, graphR, actR)
}
