package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"
)

// sequenceHash digests the first n requests of a workload's measured
// stream: path, body bytes and (open loop) arrival instant.
func sequenceHash(t *testing.T, w workload, seed int64, n int) string {
	t.Helper()
	pages, err := buildUniverse(seed)
	if err != nil {
		t.Fatal(err)
	}
	seq := w.sequence(seed, pages, 10*time.Second)
	h := sha256.New()
	for i := 0; i < n; i++ {
		r := seq.at(i)
		fmt.Fprintf(h, "%d\x00%s\x00%s\x00%d\x00", r.page, r.path, r.body, r.due)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestSequencesArePinned: the same seed gives the same request bytes and
// the same arrival schedule, in this process and in every later one. A
// change to these hashes changes what every recorded result measured.
func TestSequencesArePinned(t *testing.T) {
	pinned := map[string]string{
		"direct-miss-teacher":  "d66fc957b8240750",
		"direct-miss-cascade":  "d66fc957b8240750", // the same requests, against other server flags
		"fleet-hit":            "e5d4ec22a87be4e2",
		"fleet-mixed":          "1ae1ef97e71f8a8f",
		"fleet-mixed -rate 60": "4e8064b7ccf315cd", // open loop: the arrival instants are hashed too
	}
	open := workloads[3]
	open.name, open.rate = "fleet-mixed -rate 60", 60
	for _, w := range append(workloads[:4:4], open) {
		got := sequenceHash(t, w, 1, 200)
		if got != pinned[w.name] {
			t.Errorf("%s: seed 1 hashes to %s, pinned %s", w.name, got, pinned[w.name])
		}
		if again := sequenceHash(t, w, 1, 200); again != got {
			t.Errorf("%s: two builds of seed 1 differ", w.name)
		}
		if other := sequenceHash(t, w, 2, 200); other == got {
			t.Errorf("%s: seeds 1 and 2 give the same requests", w.name)
		}
	}
}

func TestUniverseShape(t *testing.T) {
	pages, err := buildUniverse(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != universeSize {
		t.Fatalf("%d pages, want %d", len(pages), universeSize)
	}
	keys := map[string]bool{}
	bodies := map[string]bool{}
	for _, p := range pages {
		keys[p.path] = true
		bodies[p.html] = true
		if !strings.Contains(p.html, "</main>") || p.tokens == 0 {
			t.Fatalf("page without a <main> block or tokens: %q", p.path)
		}
	}
	if len(keys) != 24*routeKeysPerDomain {
		t.Errorf("%d distinct route keys, want %d", len(keys), 24*routeKeysPerDomain)
	}
	if len(bodies) != universeSize {
		t.Errorf("%d distinct page bodies, want %d", len(bodies), universeSize)
	}
}

// TestUniqueRequestsNeverRepeat: a unique workload's requests all differ,
// also after the stored page order wraps, and each is its base page plus
// one visible sentence.
func TestUniqueRequestsNeverRepeat(t *testing.T) {
	pages, err := buildUniverse(1)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("direct-miss-teacher")
	seq := w.sequence(1, pages, time.Second)
	seen := map[string]bool{}
	for _, i := range []int{0, 1, 2, closedOrderLen, closedOrderLen + 1, 2*closedOrderLen + 2} {
		r := seq.at(i)
		if seen[r.body] {
			t.Errorf("request %d repeats an earlier body", i)
		}
		seen[r.body] = true
		base := pages[seq.order[i%len(seq.order)]].html
		if r.page >= 0 || len(r.body) <= len(base) || !strings.Contains(r.body, fmt.Sprintf(" ref %d</p>", i)) {
			t.Errorf("request %d is not its page plus a unique sentence", i)
		}
	}
}

func TestWarmupPrimesTheHotSet(t *testing.T) {
	pages, err := buildUniverse(1)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("fleet-hit")
	warm := w.warmup(1, pages)
	if len(warm.order) != w.warm {
		t.Fatalf("warm-up holds %d requests, want %d", len(warm.order), w.warm)
	}
	for i := 0; i < hotSetSize; i++ {
		if int(warm.order[i]) != i {
			t.Fatalf("warm-up request %d posts page %d, want the hot set in order", i, warm.order[i])
		}
	}
	for _, p := range w.sequence(1, pages, time.Second).order {
		if int(p) >= hotSetSize {
			t.Fatalf("measured request outside the hot set: page %d", p)
		}
	}
}
