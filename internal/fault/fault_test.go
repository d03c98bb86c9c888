package fault

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"webbrief/internal/wb"
)

var update = flag.Bool("update", false, "rewrite testdata/schedules.golden from the current generator")

// goldenSchedules renders the exact fault sequence for seeds 1..5 under the
// default 30% chaos profile — the cross-platform reproducibility contract.
func goldenSchedules() string {
	var b strings.Builder
	for seed := int64(1); seed <= 5; seed++ {
		s := NewSchedule(DefaultConfig(seed))
		faults := make([]string, 32)
		for i := range faults {
			faults[i] = s.Next().String()
		}
		fmt.Fprintf(&b, "seed=%d: %s\n", seed, strings.Join(faults, " "))
	}
	return b.String()
}

// TestChaosScheduleGolden pins the exact fault sequences for seeds 1..5 to
// a checked-in golden file. If this test fails, a change altered the draw
// order or the PRNG mapping — which silently breaks the replayability of
// every recorded chaos run. Regenerate deliberately with -update.
func TestChaosScheduleGolden(t *testing.T) {
	got := goldenSchedules()
	const path = "testdata/schedules.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("fault schedules diverge from golden file (draw order or PRNG mapping changed):\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestChaosScheduleReplay: equal seeds replay byte-equal sequences,
// different seeds diverge.
func TestChaosScheduleReplay(t *testing.T) {
	a, b := NewSchedule(DefaultConfig(7)), NewSchedule(DefaultConfig(7))
	c := NewSchedule(DefaultConfig(8))
	var diverged bool
	for i := 0; i < 256; i++ {
		fa, fb, fc := a.Next(), b.Next(), c.Next()
		if fa.String() != fb.String() {
			t.Fatalf("draw %d: same seed diverged: %s vs %s", i, fa, fb)
		}
		if fa.String() != fc.String() {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("seeds 7 and 8 produced identical 256-draw schedules")
	}
	if a.Draws() != 256 {
		t.Fatalf("draws=%d, want 256", a.Draws())
	}
}

// TestScheduleRate: the injected-fault fraction tracks Config.Rate, and
// Rate 0 / Rate 1 are exact.
func TestScheduleRate(t *testing.T) {
	s := NewSchedule(DefaultConfig(3))
	for i := 0; i < 10000; i++ {
		s.Next()
	}
	frac := float64(s.Injected()) / float64(s.Draws())
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("injected fraction %.3f, want ~0.30", frac)
	}

	off := NewSchedule(Config{Seed: 1, Rate: 0})
	on := NewSchedule(Config{Seed: 1, Rate: 1})
	for i := 0; i < 100; i++ {
		if f := off.Next(); f.Kind != None {
			t.Fatalf("rate 0 injected %s", f)
		}
		if f := on.Next(); f.Kind == None {
			t.Fatal("rate 1 passed a call through clean")
		}
	}
}

// TestGarbageBodiesDetectable: every garbage body carries a NUL byte, the
// marker the crawler's body validation rejects (and real HTML never has).
func TestGarbageBodiesDetectable(t *testing.T) {
	s := NewSchedule(Config{Seed: 9, Rate: 1, GarbageWeight: 1})
	for i := 0; i < 50; i++ {
		f := s.Next()
		if f.Kind != Garbage {
			t.Fatalf("draw %d: kind %s with only GarbageWeight set", i, f.Kind)
		}
		if len(f.Body) == 0 || !strings.ContainsRune(string(f.Body), 0) {
			t.Fatalf("draw %d: garbage body %q lacks the NUL marker", i, f.Body)
		}
	}
}

// sleepRecorder is a virtual clock: it records requested sleeps and returns
// instantly, so timeout faults resolve without wall-clock waits.
type sleepRecorder struct {
	slept []time.Duration
}

func (s *sleepRecorder) Sleep(d time.Duration) { s.slept = append(s.slept, d) }

// mapFetcher is a minimal PlainFetcher for wrapper tests.
type mapFetcher map[string]string

func (m mapFetcher) Fetch(url string) (string, error) {
	h, ok := m[url]
	if !ok {
		return "", fmt.Errorf("404 %s", url)
	}
	return h, nil
}

// TestFetcherFaultKinds drives one fetch through each kind via single-kind
// schedules and checks the observable contract of each.
func TestFetcherFaultKinds(t *testing.T) {
	inner := mapFetcher{"/p": "<p>hello</p>"}

	// Error: immediate *InjectedError, inner never consulted.
	f := NewFetcher(inner, NewSchedule(Config{Seed: 1, Rate: 1, ErrorWeight: 1}))
	if _, err := f.Fetch("/p"); err == nil {
		t.Fatal("error fault must fail the fetch")
	} else {
		var ie *InjectedError
		if !errors.As(err, &ie) || ie.Kind != Error {
			t.Fatalf("error fault returned %v, want *InjectedError{Error}", err)
		}
	}

	// Timeout without a deadline: blocks TimeoutHang, then fails.
	rec := &sleepRecorder{}
	f = NewFetcher(inner, NewSchedule(Config{Seed: 1, Rate: 1, TimeoutWeight: 1, TimeoutHang: 250 * time.Millisecond}))
	f.Sleep = rec.Sleep
	if _, err := f.Fetch("/p"); err == nil {
		t.Fatal("timeout fault must fail an undeadlined fetch")
	}
	if len(rec.slept) != 1 || rec.slept[0] != 250*time.Millisecond {
		t.Fatalf("timeout hang slept %v, want [250ms]", rec.slept)
	}

	// Timeout with a deadline: blocks just past it, DeadlineExceeded.
	rec = &sleepRecorder{}
	f.Sleep = rec.Sleep
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if _, err := f.FetchContext(ctx, "/p"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadlined timeout fault returned %v, want DeadlineExceeded", err)
	}
	if len(rec.slept) != 1 || rec.slept[0] < 59*time.Minute {
		t.Fatalf("deadlined timeout slept %v, want ~1h", rec.slept)
	}

	// Slow under the deadline: delayed, then the real page.
	rec = &sleepRecorder{}
	f = NewFetcher(inner, NewSchedule(Config{Seed: 1, Rate: 1, SlowWeight: 1, SlowDelay: 2 * time.Millisecond}))
	f.Sleep = rec.Sleep
	html, err := f.FetchContext(ctx, "/p")
	if err != nil || html != "<p>hello</p>" {
		t.Fatalf("slow fault: %q, %v", html, err)
	}
	if len(rec.slept) != 1 || rec.slept[0] < 2*time.Millisecond || rec.slept[0] >= 4*time.Millisecond {
		t.Fatalf("slow delay %v, want [2ms,4ms)", rec.slept)
	}

	// Slow past the deadline degenerates to a timeout.
	f = NewFetcher(inner, NewSchedule(Config{Seed: 1, Rate: 1, SlowWeight: 1, SlowDelay: time.Hour}))
	f.Sleep = (&sleepRecorder{}).Sleep
	shortCtx, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	if _, err := f.FetchContext(shortCtx, "/p"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("over-deadline slow fault returned %v, want DeadlineExceeded", err)
	}

	// Garbage: "success" with the schedule's bytes, not the page.
	f = NewFetcher(inner, NewSchedule(Config{Seed: 1, Rate: 1, GarbageWeight: 1}))
	html, err = f.Fetch("/p")
	if err != nil {
		t.Fatal(err)
	}
	if html == "<p>hello</p>" || !strings.ContainsRune(html, 0) {
		t.Fatalf("garbage fault returned %q, want NUL-marked garbage", html)
	}

	// Clean draw: pass-through.
	f = NewFetcher(inner, NewSchedule(Config{Seed: 1, Rate: 0}))
	if html, err := f.Fetch("/p"); err != nil || html != "<p>hello</p>" {
		t.Fatalf("clean fetch: %q, %v", html, err)
	}
	if _, err := f.Fetch("/missing"); err == nil {
		t.Fatal("organic 404 must pass through")
	}
}

// nopReplica is a minimal PipelineReplica for wrapper tests; it counts the
// members it encoded and decoded.
type nopReplica struct{ encodes, decodes int }

func (r *nopReplica) EncodeBatch(insts []*wb.Instance) []*wb.Brief {
	r.encodes += len(insts)
	return make([]*wb.Brief, len(insts))
}
func (r *nopReplica) DecodeBatch(insts []*wb.Instance, briefs []*wb.Brief) []wb.TierDecision {
	r.decodes += len(insts)
	return make([]wb.TierDecision, len(insts))
}

// runRequest drives one request — a batch of one — through rep's
// EncodeBatch/DecodeBatch, reporting a recovered panic instead of crashing
// the test.
func runRequest(rep PipelineReplica) (panicked any) {
	defer func() { panicked = recover() }()
	insts := []*wb.Instance{{}}
	if ds := rep.DecodeBatch(insts, rep.EncodeBatch(insts)); len(ds) != 1 {
		return fmt.Sprintf("%d tier decisions passed through for a batch of one", len(ds))
	}
	return nil
}

// TestReplicaFaultKinds maps each kind onto its replica pathology.
func TestReplicaFaultKinds(t *testing.T) {
	// Error: Encode panics before the inner replica runs.
	inner := &nopReplica{}
	rep := NewReplica(inner, NewSchedule(Config{Seed: 1, Rate: 1, ErrorWeight: 1}))
	if p := runRequest(rep); p == nil || inner.encodes != 0 {
		t.Fatalf("error fault: panic=%v encodes=%d, want panic before Encode", p, inner.encodes)
	}

	// Garbage: Encode succeeds, Decode panics.
	inner = &nopReplica{}
	rep = NewReplica(inner, NewSchedule(Config{Seed: 1, Rate: 1, GarbageWeight: 1}))
	if p := runRequest(rep); p == nil || inner.encodes != 1 || inner.decodes != 0 {
		t.Fatalf("garbage fault: panic=%v encodes=%d decodes=%d, want panic between stages",
			p, inner.encodes, inner.decodes)
	}

	// Timeout: wedge for TimeoutHang, then complete normally.
	inner = &nopReplica{}
	rec := &sleepRecorder{}
	rep = NewReplica(inner, NewSchedule(Config{Seed: 1, Rate: 1, TimeoutWeight: 1, TimeoutHang: 100 * time.Millisecond}))
	rep.Sleep = rec.Sleep
	if p := runRequest(rep); p != nil || inner.decodes != 1 {
		t.Fatalf("timeout fault: panic=%v decodes=%d, want wedge then completion", p, inner.decodes)
	}
	if len(rec.slept) != 1 || rec.slept[0] != 100*time.Millisecond {
		t.Fatalf("wedge slept %v, want [100ms]", rec.slept)
	}

	// Clean draws pass through, and a fault does not leak into the next
	// request on the same replica.
	inner = &nopReplica{}
	rep = NewReplica(inner, NewSchedule(Config{Seed: 1, Rate: 0}))
	for i := 0; i < 3; i++ {
		if p := runRequest(rep); p != nil {
			t.Fatalf("clean request %d panicked: %v", i, p)
		}
	}
	if inner.encodes != 3 || inner.decodes != 3 {
		t.Fatalf("clean requests reached inner %d/%d times, want 3/3", inner.encodes, inner.decodes)
	}

	// One draw per batch, whatever its size: a batch of four at rate 1
	// advances the schedule by one and is late by one delay, and all four
	// members reach the inner replica in one call each way.
	inner = &nopReplica{}
	rec = &sleepRecorder{}
	sched := NewSchedule(Config{Seed: 1, Rate: 1, SlowWeight: 1, SlowDelay: 2 * time.Millisecond})
	rep = NewReplica(inner, sched)
	rep.Sleep = rec.Sleep
	batch := make([]*wb.Instance, 4)
	rep.DecodeBatch(batch, rep.EncodeBatch(batch))
	if got := sched.Draws(); got != 1 || inner.encodes != 4 || inner.decodes != 4 {
		t.Fatalf("batch of four: %d draws, inner saw %d/%d members, want 1 and 4/4", got, inner.encodes, inner.decodes)
	}
	if len(rec.slept) != 1 || rec.slept[0] < 2*time.Millisecond || rec.slept[0] >= 4*time.Millisecond {
		t.Fatalf("batch of four slept %v, want one sleep in [2ms,4ms)", rec.slept)
	}
}
