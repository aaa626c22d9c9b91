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

// Architecture is one DOSN storage architecture: the replica-placement
// policies the sweep engine evaluates side by side. The friend-replica
// policies and the DHT placements are all replica.Policy values, which is
// what makes "architecture" a first-class experiment axis rather than a
// fork of the engine.
type Architecture []replica.Policy

// Policies returns the placement policies this architecture evaluates.
func (a Architecture) Policies() []replica.Policy { return a }

// NewArchitecture resolves a canonical architecture name. ring and graph are
// required for the DHT architectures and ignored by FriendReplica; SocialDHT
// needs them to span the same users, since it looks ring candidates up in
// the graph. base customizes FriendReplica's policy list (nil means the
// paper's three).
func NewArchitecture(name string, ring *Ring, graph *socialgraph.Graph, base []replica.Policy) (Architecture, error) {
	switch name {
	case ArchFriendReplica:
		if len(base) == 0 {
			return replica.DefaultPolicies(), nil
		}
		return base, nil
	case ArchRandomDHT:
		if ring == nil {
			return nil, fmt.Errorf("dht: %s needs a ring", name)
		}
		return Architecture{&Placement{Ring: ring}}, nil
	case ArchSocialDHT:
		if ring == nil || graph == nil {
			return nil, fmt.Errorf("dht: %s needs a ring and a graph", name)
		}
		if ring.NumNodes() != graph.NumUsers() {
			return nil, fmt.Errorf("dht: %s ring has %d nodes but the graph has %d users", name, ring.NumNodes(), graph.NumUsers())
		}
		return Architecture{&Placement{Ring: ring, Social: true, Graph: graph}}, nil
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
