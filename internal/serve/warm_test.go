package serve

import (
	"runtime"
	"testing"

	"webbrief/internal/wb"
)

// mallocs counts the heap allocations one call of fn makes, on one P so no
// other goroutine of the test binary runs beside it.
func mallocs(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestWarmSteadyState: one Warm pass leaves every tier of a cascade pool at
// steady state for the warm page. On the student, briefed through the
// replica, and on the teacher, briefed through its escalation tier, the
// second brief of the warm page allocates exactly as often as a third — the
// first brief a client sends pays no growth. A page twice the warm page's
// size grows the workspace on its first brief, once, and is steady the same
// way from its second on.
func TestWarmSteadyState(t *testing.T) {
	m, v, _ := trainedModel(t)
	withBounds(t, escalateNone) // the replica's pass stays on the student
	pool, err := NewPool(m, v, 1, Config{Cascade: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Warm(WarmupHTML(0)); err != nil {
		t.Fatal(err)
	}
	r := pool.models[0]
	if len(r.tiers) != 2 {
		t.Fatalf("cascade replica has %d tiers, want 2", len(r.tiers))
	}
	page := func(tokens int) []*wb.Instance {
		_, sents := renderPage(WarmupHTML(tokens))
		return []*wb.Instance{pool.instance(sents)}
	}
	briefers := []struct {
		tier  string
		brief func([]*wb.Instance)
	}{
		{"student through the replica", func(insts []*wb.Instance) { r.DecodeBatch(insts, r.EncodeBatch(insts)) }},
		{"teacher through the escalation tier", func(insts []*wb.Instance) { r.tiers[1].brief(insts) }},
	}
	for _, b := range briefers {
		warm := page(0)
		second, third := mallocs(func() { b.brief(warm) }), mallocs(func() { b.brief(warm) })
		if second != third {
			t.Errorf("%s: the warm page's second brief allocates %d times, its third %d: Warm left the workspace growing", b.tier, second, third)
		}
		double := page(128)
		first := mallocs(func() { b.brief(double) })
		second, third = mallocs(func() { b.brief(double) }), mallocs(func() { b.brief(double) })
		if first <= second {
			t.Errorf("%s: a page twice the warm page's size allocates %d times on its first brief, %d on its second: it should grow once", b.tier, first, second)
		}
		if second != third {
			t.Errorf("%s: the double page's second brief allocates %d times, its third %d: not steady after growing once", b.tier, second, third)
		}
		t.Logf("%s: warm page %d allocs per brief; double page %d on its first brief, then %d", b.tier, third, first, second)
	}
}
