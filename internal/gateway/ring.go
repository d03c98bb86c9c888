package gateway

import (
	"slices"
	"sort"
	"strconv"
)

// DefaultVNodes is the gateway's virtual-node count per backend. 64 points per backend hold every backend's share of the keyspace
// within 1/√64 = 12.5 points of the even 1/N (TestRingBalance, fleets of 2
// to 16; the widest case, a two-backend split, has a standard deviation of
// 4.4 points) while the ring stays tiny (a few KB).
const DefaultVNodes = 64

// hashKey is the ring's hash: FNV-1a 64 put through MurmurHash3's 64-bit
// finaliser (fmix64). Stable across processes and Go versions (unlike
// maphash), so key→backend assignments can be pinned in golden tests and
// agree between a gateway and its operators' tooling. The finaliser is what
// spreads the points: FNV-1a multiplies once per byte, so the last bytes of
// "host:port#i" labels — the only ones that differ between a backend's
// vnodes, or between two ports on one host — barely reach the high bits the
// ring orders by, and raw FNV points cluster (two backends split 7 % / 93 %).
func hashKey[T string | []byte](s T) uint64 {
	h := uint64(14695981039346656037) // FNV-1a 64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33 // fmix64
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ringPoint is one virtual node: the hash of "backend#i" owning the arc
// that ends at it.
type ringPoint struct {
	hash    uint64
	backend string
}

// Ring is a consistent-hash ring over a fixed backend set. Construction is
// deterministic: backends are sorted and deduplicated before hashing, so
// the same set in any order yields the identical ring, and a key's backend
// depends only on the set — not on flag order, map iteration, or join
// sequence. Removing one of N backends remaps only the keys on its arcs
// (≈1/N of the keyspace); every other key keeps its backend.
//
// The ring itself is immutable after New; liveness is layered on top by
// the gateway's per-backend circuit breakers, which skip (not remove)
// ejected backends so readmission restores the original assignment.
type Ring struct {
	vnodes   int
	points   []ringPoint // sorted by hash
	backends []string    // sorted, deduplicated
}

// NewRing builds a ring of vnodes points per backend (DefaultVNodes when
// vnodes <= 0). An empty backend list yields an empty ring whose lookups
// return "".
func NewRing(backends []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := append([]string(nil), backends...)
	sort.Strings(uniq)
	n := 0
	for i, b := range uniq {
		if b == "" || (i > 0 && b == uniq[n-1]) {
			continue
		}
		uniq[n] = b
		n++
	}
	uniq = uniq[:n]

	r := &Ring{vnodes: vnodes, backends: uniq}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for _, b := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hashKey(b + "#" + strconv.Itoa(i)), b})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare at 64 bits) break on the sorted
		// backend name so construction stays order-independent.
		return r.points[i].backend < r.points[j].backend
	})
	return r
}

// Backends returns the ring's member set, sorted.
func (r *Ring) Backends() []string { return append([]string(nil), r.backends...) }

// Size is the number of distinct backends on the ring.
func (r *Ring) Size() int { return len(r.backends) }

// owner returns the backend owning key: the first ring point at or after
// the key's hash, wrapping at the top. Empty ring returns "".
func (r *Ring) owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(hashKey(key))].backend
}

// Candidates returns up to n distinct backends for key, in ring order
// starting at the key's owner — the gateway's failover sequence. n <= 0
// (or n > Size) means all backends. Every key's candidate list is a
// rotation-deterministic permutation of the backend set.
func (r *Ring) Candidates(key string, n int) []string {
	if len(r.points) == 0 {
		return nil
	}
	return r.candidates(make([]string, 0, len(r.backends)), hashKey(key), n)
}

// candidates appends Candidates for the key hash h to dst. A backend is
// told apart from those already found by scanning them: a fleet is a few
// backends, and no map is built per request.
func (r *Ring) candidates(dst []string, h uint64, n int) []string {
	if n <= 0 || n > len(r.backends) {
		n = len(r.backends)
	}
	found := len(dst)
	for i, start := 0, r.search(h); i < len(r.points) && len(dst)-found < n; i++ {
		if b := r.points[(start+i)%len(r.points)].backend; !slices.Contains(dst[found:], b) {
			dst = append(dst, b)
		}
	}
	return dst
}

// search returns the index of the first point at or after the hash h.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
