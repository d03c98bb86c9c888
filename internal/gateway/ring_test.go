package gateway

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"webbrief/internal/briefcache"
)

// TestRingGoldenAssignments pins key→backend assignments for a fixed
// fleet. These are load-bearing constants: a change to the hash, the
// vnode labelling, or the sort order silently remaps every cached domain
// in a live fleet, so any diff here must be a deliberate,
// migration-noted decision — not an accident this test lets through.
func TestRingGoldenAssignments(t *testing.T) {
	r := NewRing([]string{"10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8080"}, 64)
	golden := []struct{ key, backend string }{
		{"domain:example.com", "10.0.0.2:8080"},
		{"domain:news.example.com", "10.0.0.1:8080"},
		{"domain:wikipedia.org", "10.0.0.1:8080"},
		{"domain:golang.org", "10.0.0.2:8080"},
		{"domain:arxiv.org", "10.0.0.1:8080"},
		{"domain:github.com", "10.0.0.3:8080"},
		{"domain:nytimes.com", "10.0.0.1:8080"},
		{"domain:bbc.co.uk", "10.0.0.3:8080"},
		{"body:1a2b3c4d5e6f7788", "10.0.0.2:8080"},
		{"body:cafebabedeadbeef", "10.0.0.2:8080"},
	}
	for _, g := range golden {
		if got := r.owner(g.key); got != g.backend {
			t.Errorf("Backend(%q) = %q, want pinned %q", g.key, got, g.backend)
		}
	}
}

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("domain:site-%d.example", i)
	}
	return keys
}

// TestRingRemappingBound checks the property consistent hashing exists
// for: removing one of N backends remaps only the keys that backend
// owned — every other key keeps its assignment — and the moved fraction
// stays near 1/N (within 2x, covering vnode placement variance).
func TestRingRemappingBound(t *testing.T) {
	const n = 6
	backends := make([]string, n)
	for i := range backends {
		backends[i] = fmt.Sprintf("10.0.0.%d:8080", i+1)
	}
	removed := backends[2]
	full := NewRing(backends, 64)
	reduced := NewRing(append(append([]string(nil), backends[:2]...), backends[3:]...), 64)

	keys := ringKeys(3000)
	moved := 0
	for _, k := range keys {
		before, after := full.owner(k), reduced.owner(k)
		if before == after {
			continue
		}
		moved++
		if before != removed {
			t.Fatalf("key %q moved %s → %s but its backend %s is still in the fleet", k, before, after, before)
		}
	}
	if moved == 0 {
		t.Fatal("removing a backend moved no keys — it owned nothing?")
	}
	if bound := 2 * len(keys) / n; moved > bound {
		t.Fatalf("removing 1 of %d backends moved %d of %d keys, want ≤ %d (≈2·K/N)", n, moved, len(keys), bound)
	}
}

// TestRingPermutationStable is the determinism property: the backend list
// order must not matter. Any permutation (and any duplication) of the
// same set builds a ring with identical points and identical assignments.
func TestRingPermutationStable(t *testing.T) {
	backends := []string{"a:1", "b:1", "c:1", "d:1", "e:1"}
	ref := NewRing(backends, 32)
	keys := ringKeys(500)
	want := make([]string, len(keys))
	for i, k := range keys {
		want[i] = ref.owner(k)
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		perm := append([]string(nil), backends...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if trial%3 == 0 {
			perm = append(perm, perm[rng.Intn(len(perm))]) // duplicates collapse
		}
		r := NewRing(perm, 32)
		if !reflect.DeepEqual(r.Backends(), ref.Backends()) {
			t.Fatalf("trial %d: member set diverged: %v", trial, r.Backends())
		}
		for i, k := range keys {
			if got := r.owner(k); got != want[i] {
				t.Fatalf("trial %d: Backend(%q) = %q under permutation %v, want %q", trial, k, got, perm, want[i])
			}
		}
	}
}

// TestRingCandidates pins the failover sequence contract: the first
// candidate is the key's owner, candidates are distinct, n<=0 yields the
// whole fleet, and every backend is reachable as some key's owner.
func TestRingCandidates(t *testing.T) {
	backends := []string{"a:1", "b:1", "c:1", "d:1"}
	r := NewRing(backends, 64)
	owners := map[string]bool{}
	for _, k := range ringKeys(1000) {
		owner := r.owner(k)
		owners[owner] = true
		cands := r.Candidates(k, 0)
		if len(cands) != len(backends) {
			t.Fatalf("Candidates(%q, 0) returned %d backends, want %d", k, len(cands), len(backends))
		}
		if cands[0] != owner {
			t.Fatalf("Candidates(%q)[0] = %q, want owner %q", k, cands[0], owner)
		}
		seen := map[string]bool{}
		for _, c := range cands {
			if seen[c] {
				t.Fatalf("Candidates(%q) repeats %q", k, c)
			}
			seen[c] = true
		}
		if two := r.Candidates(k, 2); len(two) != 2 || two[0] != cands[0] || two[1] != cands[1] {
			t.Fatalf("Candidates(%q, 2) = %v, want prefix of %v", k, two, cands)
		}
	}
	for _, b := range backends {
		if !owners[b] {
			t.Errorf("backend %s owns no key of 1000 — vnode placement badly skewed", b)
		}
	}
}

// TestRouteCandidatesWithoutAllocating: the gateway picks a request's
// candidates by scanning the backends already found, with no map, and lands
// every key where the map-deduplicated ring walk puts it. Routing one
// request, key and candidates, allocates nothing.
func TestRouteCandidatesWithoutAllocating(t *testing.T) {
	r := NewRing([]string{"a:1", "b:1", "c:1", "d:1", "e:1"}, 64)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("domain:s%d.books.example", i)
		var want []string
		seen := map[string]bool{}
		for j, start := 0, r.search(hashKey(key)); j < len(r.points); j++ {
			if b := r.points[(start+j)%len(r.points)].backend; !seen[b] {
				seen[b] = true
				want = append(want, b)
			}
		}
		if got := r.Candidates(key, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("Candidates(%q) = %v, the ring walk gives %v", key, got, want)
		}
	}
	q, body := "src=https://s1.books.example/p", []byte("<p>x</p>")
	allocs := testing.AllocsPerRun(100, func() {
		var kb [128]byte
		var buf [8]string
		key := appendRouteKey(kb[:0], q, briefcache.SrcParam(q), body)
		if len(r.candidates(buf[:0], hashKey(key), 0)) != 5 {
			t.Fatal("short candidate list")
		}
	})
	if allocs != 0 {
		t.Fatalf("routing one request allocates %.1f, want 0", allocs)
	}
}

// TestRingEmptyAndSingle covers the degenerate rings.
func TestRingEmptyAndSingle(t *testing.T) {
	empty := NewRing(nil, 8)
	if got := empty.owner("domain:x"); got != "" {
		t.Fatalf("empty ring Backend = %q, want empty", got)
	}
	if cands := empty.Candidates("domain:x", 3); cands != nil {
		t.Fatalf("empty ring Candidates = %v, want nil", cands)
	}
	one := NewRing([]string{"only:1"}, 8)
	for _, k := range ringKeys(50) {
		if got := one.owner(k); got != "only:1" {
			t.Fatalf("single-backend ring sent %q to %q", k, got)
		}
	}
}

// The ring property grid: backends{2,3,5,16} × vnodes{16,64,256} × the three
// ways a fleet's names differ. Names matter because they are what gets
// hashed: one host with consecutive ports (a local fleet, bench/), one port
// on consecutive hosts (a subnet), or nothing in common.
var (
	ringGridBackends = []int{2, 3, 5, 16}
	ringGridVNodes   = []int{16, 64, 256}
	ringGridNames    = []string{"ports-differ", "hosts-differ", "random"}
)

// ringGridFleet names count backends of one family, deterministically.
func ringGridFleet(family string, count int) []string {
	rng := rand.New(rand.NewSource(int64(count)))
	fleet := make([]string, count)
	for i := range fleet {
		switch family {
		case "ports-differ":
			fleet[i] = fmt.Sprintf("127.0.0.1:%d", 18417+i)
		case "hosts-differ":
			fleet[i] = fmt.Sprintf("10.0.0.%d:8080", i+1)
		default:
			host := make([]byte, 8)
			for j := range host {
				host[j] = byte('a' + rng.Intn(26))
			}
			fleet[i] = fmt.Sprintf("%s.internal:%d", host, 1024+rng.Intn(60000))
		}
	}
	return fleet
}

// ringGrid runs f as one sub-test per cell, named backends/vnodes/names.
func ringGrid(t *testing.T, f func(t *testing.T, backends, vnodes int, family string)) {
	for _, n := range ringGridBackends {
		for _, vn := range ringGridVNodes {
			for _, family := range ringGridNames {
				t.Run(fmt.Sprintf("%d/%d/%s", n, vn, family), func(t *testing.T) { f(t, n, vn, family) })
			}
		}
	}
}

// ringDomainKeys is n route keys shaped like real traffic: subdomains of a
// few hundred sites, so neighbouring keys differ in a few middle bytes.
func ringDomainKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("domain:s%d.dom%d.example", i/100, i%100)
	}
	return keys
}

// TestRingBalance is the reason the ring has virtual nodes at all: no
// backend owns much more than its 1/N of the keys. The slack is absolute
// (a share of the whole keyspace) and stated per vnode count as 1/√vnodes.
// A backend's share is a sum of vnode arcs — Beta(v, (N−1)v), standard
// deviation √((N−1)/(N²(Nv+1))) — so the widest case is a two-backend split,
// σ ≈ 1/(2√(2v)), and 1/√v is 2.8 of those; larger fleets sit well inside.
func TestRingBalance(t *testing.T) {
	slack := map[int]float64{16: 0.25, 64: 0.125, 256: 0.0625}
	keys := ringDomainKeys(20000)
	ringGrid(t, func(t *testing.T, n, vnodes int, family string) {
		r := NewRing(ringGridFleet(family, n), vnodes)
		owned := map[string]int{}
		for _, k := range keys {
			owned[r.owner(k)]++
		}
		bound := 1/float64(n) + slack[vnodes]
		for _, b := range r.Backends() {
			if share := float64(owned[b]) / float64(len(keys)); share > bound {
				t.Errorf("%s owns %.1f%% of the keys, want ≤ 1/%d + %.3f = %.1f%%", b, 100*share, n, slack[vnodes], 100*bound)
			}
		}
	})
}

// TestRingChurn drives a seeded join/leave/flap sequence through each cell
// and checks, at every step, the two things a fleet operator relies on:
// the assignment is a function of the current member set alone (however the
// fleet got there, and in whatever order it is listed), and a membership
// change moves keys only off the members that left or onto the members that
// joined — every other key stays where its cache is warm.
func TestRingChurn(t *testing.T) {
	keys := ringDomainKeys(2000)
	ringGrid(t, func(t *testing.T, n, vnodes int, family string) {
		pool := ringGridFleet(family, n+3) // the fleet plus three spares to join
		rng := rand.New(rand.NewSource(int64(n*1000 + vnodes)))
		members := append([]string(nil), pool[:n]...) // in join order, not sorted
		assign := func(r *Ring) []string {
			out := make([]string, len(keys))
			for i, k := range keys {
				out[i] = r.owner(k)
			}
			return out
		}
		before := assign(NewRing(members, vnodes))
		seen := map[string][]string{} // member set → its assignment, first time seen
		var flapped string            // a member that left last step and rejoins this one

		for step := 0; step < 16; step++ {
			in := map[string]bool{}
			for _, m := range members {
				in[m] = true
			}
			var joined, left string
			switch op := rng.Intn(3); {
			case flapped != "":
				joined, flapped = flapped, ""
			case op == 0 && len(members) < len(pool):
				for _, b := range pool {
					if !in[b] {
						joined = b
						break
					}
				}
			case len(members) > 1:
				left = members[rng.Intn(len(members))]
				if op == 2 {
					flapped = left
				}
			default:
				continue
			}
			if joined != "" {
				members = append(members, joined)
			}
			if left != "" {
				kept := members[:0]
				for _, m := range members {
					if m != left {
						kept = append(kept, m)
					}
				}
				members = kept
			}

			after := assign(NewRing(members, vnodes))
			for i, k := range keys {
				if before[i] != after[i] && before[i] != left && after[i] != joined {
					t.Fatalf("step %d (joined %q, left %q): key %q moved %s → %s, neither of which changed",
						step, joined, left, k, before[i], after[i])
				}
			}

			sorted := append([]string(nil), members...)
			sort.Strings(sorted)
			if fresh := assign(NewRing(sorted, vnodes)); !reflect.DeepEqual(after, fresh) {
				t.Fatalf("step %d: a ring of %v assigns differently from the same set sorted", step, members)
			}
			set := fmt.Sprint(sorted)
			if first, ok := seen[set]; ok && !reflect.DeepEqual(after, first) {
				t.Fatalf("step %d: member set %s assigned differently the second time it occurred", step, set)
			}
			seen[set] = after
			before = after
		}
	})
}
