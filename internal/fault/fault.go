// Package fault is the deterministic failpoint framework: named injection
// sites threaded through the pipeline's fragile seams (synthesis, schedule
// build, sweep dispatch, reduce, manifest and checkpoint writes) that fire
// seeded, reproducible faults — panics, errors, or delays — when armed.
//
// Disabled is the default and costs one atomic bool load per site hit, so
// sites may sit on hot paths (TestDisabledSiteAllocatesNothing pins that a
// disabled hit allocates nothing; the repository benchmark times the paths
// they sit on). Arming happens programmatically
// (Enable) or from the DOSN_FAILPOINTS environment variable (EnableFromEnv),
// with the grammar
//
//	SITE=ACTION(ARGS) [; SITE=ACTION(ARGS) ...]
//
//	core.sweep-chunk=panic(3)                 panic on the 3rd hit, once
//	trace.synthesize=error(1)                 return an error on the 1st hit, once
//	harness.schedule-build=error(p=0.5,seed=9)  fire per hit with probability 0.5
//	core.sweep-chunk=delay(50ms)              sleep 50ms on every hit
//	core.reduce=delay(5ms,2)                  sleep 5ms on the 2nd hit, once
//
// Trigger policies are deterministic. Fire-on-Nth-hit counts hits in arrival
// order, so with concurrent workers the *which cell* of the Nth hit depends
// on scheduling (use one worker for exact replay).
// Probability triggers hash (arm seed, site name, key) where key is the
// caller-provided deterministic seed of the work item (the cell seed, a
// schedule seed, a chunk coordinate) — Site.InjectSeeded — so WHICH work
// items fail is a pure function of the seeds, independent of scheduling
// and worker count. Sites hit through Inject (no key) fall back to hashing
// the hit index.
//
// Injected faults carry *Injected as both the error and the panic value, so
// recovery boundaries and tests can tell a chaos fault from a genuine bug.
// This layer is execution-only chaos machinery: when disabled (the default,
// and the only configuration benchmarks and golden tests run under) it
// changes no behavior at all.
//
// The package also holds the simulator's two fan-outs (parallel.go), because
// what they add to a bare go statement is fault containment: Parallel for a
// fixed group of passes, Chunks for a chunk pool over an index range. The
// compute packages start their goroutines through these (dosn-vet's rawgo).
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dosn/internal/mathrand"
	"dosn/internal/obs"
)

// EnvVar is the environment variable EnableFromEnv reads.
const EnvVar = "DOSN_FAILPOINTS"

// obsInjected counts fired injections (execution telemetry; see internal/obs).
// Each site also counts its own under fault.fired.<site>.
var obsInjected = obs.C("fault.injections_fired")

// enabled is the global fast gate every Inject checks first: one atomic load
// when no failpoint spec is armed, which is the zero-cost-when-off contract.
var enabled atomic.Bool

var (
	regMu sync.Mutex
	sites = map[string]*Site{}
)

// Site is one named injection point. Declare sites as package-level vars via
// NewSite so they register once and arm by name.
type Site struct {
	name  string
	arm   atomic.Pointer[arming]
	fired *obs.Counter // fault.fired.<name>
}

// action is what a fired failpoint does.
type action int

const (
	actError action = iota
	actPanic
	actDelay
)

func (a action) String() string {
	switch a {
	case actPanic:
		return "panic"
	case actDelay:
		return "delay"
	default:
		return "error"
	}
}

// arming is one armed policy on a site: an action plus a trigger. hitN > 0
// selects fire-on-Nth-hit (one shot); otherwise each hit fires with
// probability prob, hashed from (seed, site, key).
type arming struct {
	action action
	hitN   int64
	prob   float64
	seed   int64
	delay  time.Duration
	hits   atomic.Int64
}

// NewSite registers (or fetches) the named injection site and its
// fault.fired.<name> counter. Calling it twice with one name returns the
// same site, so tests and package init order never conflict.
func NewSite(name string) *Site {
	regMu.Lock()
	defer regMu.Unlock()
	if s, ok := sites[name]; ok {
		return s
	}
	s := &Site{name: name, fired: obs.C("fault.fired." + name)}
	sites[name] = s
	return s
}

// Name returns the site's registered name.
func (s *Site) Name() string { return s.name }

// SiteNames lists every registered site, sorted — the enumeration the
// kill-at-every-failpoint tests walk.
func SiteNames() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(sites))
	for name := range sites {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Inject fires the site's armed fault, if any. The disabled path is one
// atomic load. Probability triggers hash the hit index; call InjectSeeded
// with a deterministic key where one exists.
func (s *Site) Inject() error {
	if !enabled.Load() {
		return nil
	}
	return s.fire(0, false)
}

// InjectSeeded fires like Inject, but probability triggers hash the given
// key — a deterministic seed of the work item at the call site (cell seed,
// schedule seed, chunk coordinate) — so which items fail is a pure function
// of the seeds, invariant under worker count and scheduling.
func (s *Site) InjectSeeded(key int64) error {
	if !enabled.Load() {
		return nil
	}
	return s.fire(key, true)
}

func (s *Site) fire(key int64, seeded bool) error {
	a := s.arm.Load()
	if a == nil {
		return nil
	}
	hit := a.hits.Add(1)
	if a.hitN > 0 {
		if hit != a.hitN {
			return nil
		}
	} else {
		if !seeded {
			key = hit
		}
		if mathrand.Unit(mathrand.Mix(uint64(a.seed), mathrand.HashString(s.name), uint64(key))) >= a.prob {
			return nil
		}
	}
	obsInjected.Inc()
	s.fired.Inc()
	switch a.action {
	case actPanic:
		panic(&Injected{Site: s.name, Hit: hit})
	case actDelay:
		time.Sleep(a.delay)
		return nil
	default:
		return &Injected{Site: s.name, Hit: hit}
	}
}

// Injected is the error — and, for panic actions, the panic value — a fired
// failpoint produces. Recovery boundaries preserve it through error wrapping
// so tests can assert a fault was chaos-injected, not organic.
type Injected struct {
	// Site is the injection site that fired.
	Site string
	// Hit is the 1-based hit index at which it fired.
	Hit int64
}

func (e *Injected) Error() string {
	return fmt.Sprintf("fault: injected failure at %s (hit %d)", e.Site, e.Hit)
}

// AsInjected unwraps v — an error or a recovered panic value — to the
// *Injected fault it carries, if any. A joined error (errors.Join) is
// searched depth-first, its errors in order.
func AsInjected(v any) (*Injected, bool) {
	switch x := v.(type) {
	case *Injected:
		return x, true
	case interface{ Unwrap() error }:
		return AsInjected(x.Unwrap())
	case interface{ Unwrap() []error }:
		for _, e := range x.Unwrap() {
			if inj, ok := AsInjected(e); ok {
				return inj, true
			}
		}
	}
	return nil, false
}

// PanicError converts a recovered panic value into an error attributed to
// where. An injected fault stays unwrappable (AsInjected); anything else —
// a genuine bug — keeps its value and the recovery-point stack.
func PanicError(where string, r any, stack []byte) error {
	if inj, ok := AsInjected(r); ok {
		return fmt.Errorf("%s panicked: %w", where, inj)
	}
	return fmt.Errorf("%s panicked: %v\n%s", where, r, stack)
}

// Enable parses and arms a failpoint spec (see the package doc for the
// grammar) and flips the global gate on. Sites are matched by registered
// name; an unknown site is an error naming the known set, so a typo in
// DOSN_FAILPOINTS fails loudly instead of silently testing nothing.
// Enable replaces any previous arming in full.
func Enable(spec string) error {
	arms, err := parseSpec(spec)
	if err != nil {
		return err
	}
	regMu.Lock()
	defer regMu.Unlock()
	for name := range arms {
		if _, ok := sites[name]; !ok {
			return fmt.Errorf("fault: unknown site %q (known: %s)", name, strings.Join(siteNamesLocked(), ", "))
		}
	}
	for _, s := range sites {
		s.arm.Store(arms[s.name]) // nil for sites the spec does not mention
	}
	enabled.Store(len(arms) > 0)
	return nil
}

// EnableFromEnv arms failpoints from DOSN_FAILPOINTS when it is set; with
// the variable unset or empty it does nothing and reports false.
func EnableFromEnv(env string) (bool, error) {
	if env == "" {
		return false, nil
	}
	if err := Enable(env); err != nil {
		return false, err
	}
	return true, nil
}

// Disable disarms every site and turns the global gate off.
func Disable() {
	regMu.Lock()
	defer regMu.Unlock()
	enabled.Store(false)
	for _, s := range sites {
		s.arm.Store(nil)
	}
}

// Enabled reports whether any failpoint spec is armed.
func Enabled() bool { return enabled.Load() }

func siteNamesLocked() []string {
	out := make([]string, 0, len(sites))
	for name := range sites {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// parseSpec parses "site=action(args);site=action(args)".
func parseSpec(spec string) (map[string]*arming, error) {
	arms := make(map[string]*arming)
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		site, rhs, ok := strings.Cut(entry, "=")
		site = strings.TrimSpace(site)
		if !ok || site == "" {
			return nil, fmt.Errorf("fault: bad entry %q (want site=action(args))", entry)
		}
		if _, dup := arms[site]; dup {
			return nil, fmt.Errorf("fault: site %q armed twice", site)
		}
		a, err := parseAction(strings.TrimSpace(rhs))
		if err != nil {
			return nil, fmt.Errorf("fault: site %q: %w", site, err)
		}
		arms[site] = a
	}
	return arms, nil
}

// parseAction parses "panic(TRIGGER)", "error(TRIGGER)", "delay(DUR[,TRIGGER])"
// where TRIGGER is an integer hit index or "p=FLOAT[,seed=INT]".
func parseAction(s string) (*arming, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return nil, fmt.Errorf("bad action %q (want action(args))", s)
	}
	name, args := s[:open], s[open+1:len(s)-1]
	a := &arming{}
	switch name {
	case "panic":
		a.action = actPanic
	case "error":
		a.action = actError
	case "delay":
		a.action = actDelay
	default:
		return nil, fmt.Errorf("unknown action %q (panic|error|delay)", name)
	}
	if a.action == actDelay {
		durStr, rest, hasTrigger := strings.Cut(args, ",")
		d, err := time.ParseDuration(strings.TrimSpace(durStr))
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad delay duration %q", durStr)
		}
		a.delay = d
		if !hasTrigger {
			a.prob = 1 // every hit
			return a, nil
		}
		args = rest
	}
	return a, parseTrigger(a, strings.TrimSpace(args))
}

func parseTrigger(a *arming, s string) error {
	if s == "" {
		return fmt.Errorf("missing trigger (want a hit index or p=FLOAT[,seed=INT])")
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		if n <= 0 {
			return fmt.Errorf("hit index must be >= 1, got %d", n)
		}
		a.hitN = n
		return nil
	}
	a.seed = 1
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return fmt.Errorf("bad trigger part %q (want p=FLOAT or seed=INT)", part)
		}
		switch k {
		case "p":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || p < 0 || p > 1 {
				return fmt.Errorf("bad probability %q (want 0..1)", v)
			}
			a.prob = p
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("bad seed %q", v)
			}
			a.seed = n
		default:
			return fmt.Errorf("unknown trigger key %q (p|seed)", k)
		}
	}
	if a.prob == 0 {
		return fmt.Errorf("probability trigger needs p=FLOAT in (0, 1]")
	}
	return nil
}
