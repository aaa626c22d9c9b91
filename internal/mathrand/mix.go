package mathrand

// Mix hashes the parts into one well-spread 64-bit value: a splitmix64
// chain, each part offset by the golden-ratio increment and the running
// hash, then run through splitmix64's finalizer. Every value a run derives
// from a key goes through it — the per-repetition and per-user seeds, the
// DHT ring's coordinates, the failpoint and contact-loss coins — so the
// derivation cannot depend on worker scheduling, and none may change its
// arithmetic without moving every manifest and golden.
func Mix(parts ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, p := range parts {
		x := p + 0x9E3779B97F4A7C15 + h
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		h = x
	}
	return h
}

// Unit maps a hash to a float64 in [0, 1) from its top 53 bits: the coin a
// keyed probability (a failpoint trigger, a lost contact) is flipped with.
func Unit(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// HashString is the 64-bit FNV-1a hash of s: the seed of a canonical
// coordinate string and the key of a failpoint site's name.
func HashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
