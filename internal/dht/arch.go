package dht

import (
	"fmt"

	"dosn/internal/replica"
	"dosn/internal/socialgraph"
)

// Canonical architecture names — the values of the harness's Architectures
// matrix axis and of every user-facing flag.
const (
	// ArchFriendReplica is the paper's architecture: replicas on friends,
	// chosen by the classic placement policies.
	ArchFriendReplica = "FriendReplica"
	// ArchRandomDHT stores profiles on plain key-successor nodes
	// (DECENT-style).
	ArchRandomDHT = "RandomDHT"
	// ArchSocialDHT stores profiles on successor candidates re-ranked by
	// social proximity and schedule overlap (Nasir-style).
	ArchSocialDHT = "SocialDHT"
)

// ArchNames lists the supported architecture names in canonical order.
func ArchNames() []string {
	return []string{ArchFriendReplica, ArchRandomDHT, ArchSocialDHT}
}

// Architecture is one DOSN storage architecture: a named source of
// replica-placement policies the sweep engine evaluates side by side. The
// friend-replica policies and the DHT placements sit behind this one
// interface, which is what makes "architecture" a first-class experiment
// axis rather than a fork of the engine.
type Architecture interface {
	// Name returns the canonical architecture name.
	Name() string
	// Policies returns the placement policies this architecture evaluates.
	Policies() []replica.Policy
}

// Compile-time interface checks.
var (
	_ Architecture = FriendReplica{}
	_ Architecture = RandomDHT{}
	_ Architecture = SocialDHT{}
)

// FriendReplica wraps the classic friend-placement policies as an
// Architecture.
type FriendReplica struct {
	// Base is the policy list; empty means the paper's MaxAv, MostActive,
	// Random.
	Base []replica.Policy
}

// Name implements Architecture.
func (FriendReplica) Name() string { return ArchFriendReplica }

// Policies implements Architecture.
func (f FriendReplica) Policies() []replica.Policy {
	if len(f.Base) == 0 {
		return replica.DefaultPolicies()
	}
	return f.Base
}

// RandomDHT is the hash-placed successor-list architecture.
type RandomDHT struct {
	Ring *Ring
}

// Name implements Architecture.
func (RandomDHT) Name() string { return ArchRandomDHT }

// Policies implements Architecture.
func (a RandomDHT) Policies() []replica.Policy {
	return []replica.Policy{&Placement{Ring: a.Ring}}
}

// SocialDHT is the socially-aware successor-ranking architecture.
type SocialDHT struct {
	Ring  *Ring
	Graph *socialgraph.Graph
}

// Name implements Architecture.
func (SocialDHT) Name() string { return ArchSocialDHT }

// Policies implements Architecture.
func (a SocialDHT) Policies() []replica.Policy {
	return []replica.Policy{&Placement{Ring: a.Ring, Social: true, Graph: a.Graph}}
}

// NewArchitecture resolves a canonical architecture name. ring and graph are
// required for the DHT architectures and ignored by FriendReplica; SocialDHT
// needs them to span the same users, since it looks ring candidates up in
// the graph. base customizes FriendReplica's policy list (nil means the
// paper's three).
func NewArchitecture(name string, ring *Ring, graph *socialgraph.Graph, base []replica.Policy) (Architecture, error) {
	switch name {
	case ArchFriendReplica, "":
		return FriendReplica{Base: base}, nil
	case ArchRandomDHT:
		if ring == nil {
			return nil, fmt.Errorf("dht: %s needs a ring", name)
		}
		return RandomDHT{Ring: ring}, nil
	case ArchSocialDHT:
		if ring == nil || graph == nil {
			return nil, fmt.Errorf("dht: %s needs a ring and a graph", name)
		}
		if ring.NumNodes() != graph.NumUsers() {
			return nil, fmt.Errorf("dht: %s ring has %d nodes but the graph has %d users", name, ring.NumNodes(), graph.NumUsers())
		}
		return SocialDHT{Ring: ring, Graph: graph}, nil
	default:
		return nil, fmt.Errorf("dht: unknown architecture %q (FriendReplica|RandomDHT|SocialDHT)", name)
	}
}

// ValidArchName reports whether name is a canonical architecture name.
func ValidArchName(name string) bool {
	for _, n := range ArchNames() {
		if n == name {
			return true
		}
	}
	return false
}
