package metrics

import (
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

type fruitTotal struct{}

var (
	fruit  = NewSchema[fruitTotal]()
	apple  = fruit.Outcome("apple")
	banana = fruit.Outcome("banana_total")
	cherry = fruit.Outcome("cherry_2")
)

// TestPartitionConcurrentBumps is the partition property itself: after any
// interleaving of Begin/End pairs (run it under -race), the outcomes sum to
// the total and each outcome holds exactly what was ended in it.
func TestPartitionConcurrentBumps(t *testing.T) {
	const workers, perWorker = 8, 5000
	members := []Outcome[fruitTotal]{apple, banana, cherry}
	p := fruit.New()
	want := make([]int64, len(members))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			mine := make([]int64, len(members))
			for i := 0; i < perWorker; i++ {
				k := rng.Intn(len(members))
				p.Begin()
				p.End(members[k])
				mine[k]++
			}
			mu.Lock()
			for k, n := range mine {
				want[k] += n
			}
			mu.Unlock()
		}(int64(w + 1))
	}
	wg.Wait()

	total, counts := p.Snapshot()
	if total != workers*perWorker || counts.sum() != total {
		t.Fatalf("total=%d Σ outcomes=%d, want both %d", total, counts.sum(), workers*perWorker)
	}
	for k, o := range members {
		if counts.Get(o) != want[k] {
			t.Errorf("outcome %d: snapshot=%d, want %d", k, counts.Get(o), want[k])
		}
	}
}

// TestTotalIsIndependent: an event begun and not ended shows as total − Σ
// outcomes. That difference is the signal the total exists to give, so it
// must not be computed away.
func TestTotalIsIndependent(t *testing.T) {
	p := fruit.New()
	p.Begin()
	p.Begin()
	p.End(banana)
	if total, counts := p.Snapshot(); total != 2 || counts.sum() != 1 {
		t.Fatalf("total=%d Σ outcomes=%d, want 2 and 1", total, counts.sum())
	}
}

// TestCountsDocument: the rendering carries every declared outcome under its
// key in declaration order — also through an indenting encoder, as /metrics
// serves it — and reads back to the same counts.
func TestCountsDocument(t *testing.T) {
	p := fruit.New()
	for i := 0; i < 3; i++ {
		p.Begin()
		p.End(cherry)
	}
	p.Begin()
	p.End(apple)
	_, counts := p.Snapshot()

	got, err := json.Marshal(counts)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"apple":1,"banana_total":0,"cherry_2":3}`; string(got) != want {
		t.Fatalf("document %s, want %s", got, want)
	}
	indented, err := json.MarshalIndent(struct {
		Fruit Counts[fruitTotal] `json:"fruit"`
	}{counts}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"fruit\": {\n    \"apple\": 1,\n    \"banana_total\": 0,\n    \"cherry_2\": 3\n  }\n}"; string(indented) != want {
		t.Fatalf("indented document:\n%s\nwant:\n%s", indented, want)
	}

	var back Counts[fruitTotal]
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if back.Get(apple) != 1 || back.Get(banana) != 0 || back.Get(cherry) != 3 || back.sum() != 4 {
		t.Fatalf("round trip lost counts: %+v", back)
	}
	if err := json.Unmarshal([]byte(`[1,2]`), &back); err == nil {
		t.Fatal("a non-object document unmarshalled")
	}
	if err := json.Unmarshal([]byte(`{"apple":"one"}`), &back); err == nil {
		t.Fatal("a non-integer counter unmarshalled")
	}
}

// TestBumpsDoNotAllocate: recording an outcome is on every request's path.
func TestBumpsDoNotAllocate(t *testing.T) {
	p := fruit.New()
	if n := testing.AllocsPerRun(100, func() { p.Begin(); p.End(banana) }); n != 0 {
		t.Fatalf("Begin+End allocates %v times, want 0", n)
	}
}

// TestBadDeclarationPanicsAtConstruction: a declaration that could not be
// served fails where it is written (package initialisation in real use), not
// at the first scrape.
func TestBadDeclarationPanicsAtConstruction(t *testing.T) {
	type tag struct{}
	mustPanic := func(name, wantMsg string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: no panic", name)
			} else if msg, _ := r.(string); !strings.Contains(msg, wantMsg) {
				t.Errorf("%s: panic %q, want it to mention %q", name, r, wantMsg)
			}
		}()
		f()
	}
	mustPanic("empty key", "empty key", func() { NewSchema[tag]().Outcome("") })
	mustPanic("key needing escapes", "lower_snake", func() { NewSchema[tag]().Outcome(`a"b`) })
	mustPanic("upper-case key", "lower_snake", func() { NewSchema[tag]().Outcome("Ok") })
	mustPanic("duplicate key", "declared twice", func() {
		s := NewSchema[tag]()
		s.Outcome("ok")
		s.Outcome("ok")
	})
	mustPanic("member declared after instantiation", "after the partition was instantiated", func() {
		s := NewSchema[tag]()
		s.Outcome("ok")
		s.New()
		s.Outcome("late")
	})
}
