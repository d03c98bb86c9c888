package metrics

import (
	"encoding/json"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

type briefTime struct{}

var (
	briefStages = NewStages[briefTime](Millis, []int64{1_000_000, 10_000_000})
	stageRead   = briefStages.Stage("read", []int64{1_000})
	stageParse  = briefStages.Stage("parse", []int64{1_000_000})
	stageEncode = briefStages.Stage("encode", []int64{1_000_000, 5_000_000})
	allStages   = []Stage[briefTime]{stageRead, stageParse, stageEncode}
)

// TestHistogramBuckets: a value equal to a bound lands in that bound's
// bucket, one above it in the next, and one above the last bound in the
// overflow slot.
func TestHistogramBuckets(t *testing.T) {
	for _, tc := range []struct {
		name   string
		values []int64
		counts []int64
	}{
		{"on each bound", []int64{10, 20, 30}, []int64{1, 1, 1, 0}},
		{"just above each bound", []int64{11, 21, 31}, []int64{0, 1, 1, 1}},
		{"below the first bound", []int64{-5, 0, 9}, []int64{3, 0, 0, 0}},
		{"far past the last bound", []int64{1 << 40}, []int64{0, 0, 0, 1}},
	} {
		h := NewHistogram(Plain, []int64{10, 20, 30})
		var sum int64
		for _, v := range tc.values {
			h.Observe(v)
			sum += v
		}
		s := h.Snapshot()
		if !slices.Equal(s.Counts, tc.counts) || s.Count != int64(len(tc.values)) || s.Sum != sum {
			t.Errorf("%s: counts %v count %d sum %d, want %v %d %d", tc.name, s.Counts, s.Count, s.Sum, tc.counts, len(tc.values), sum)
		}
	}
}

func jsonOf(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestHistogramUnits: each unit renders its own keys, milliseconds as
// fractions.
func TestHistogramUnits(t *testing.T) {
	for _, tc := range []struct {
		unit Unit
		want string
	}{
		{Plain, `{"buckets":[1000,2000000],"counts":[1,0,1],"count":2,"sum":3000500}`},
		{Nanos, `{"buckets_ns":[1000,2000000],"counts":[1,0,1],"count":2,"sum_ns":3000500}`},
		{Millis, `{"buckets_ms":[0.001,2],"counts":[1,0,1],"count":2,"sum_ms":3.0005}`},
	} {
		h := NewHistogram(tc.unit, []int64{1000, 2_000_000})
		h.Observe(500)
		h.Observe(3_000_000)
		s := h.Snapshot()
		if got := jsonOf(t, s); got != tc.want {
			t.Errorf("unit %d renders %s, want %s", tc.unit, got, tc.want)
		}
	}
}

// snapshot copies l's histograms: the stages in declaration order, then the
// total.
type snapshot struct {
	Stages []HistogramSnapshot
	Total  HistogramSnapshot
}

func snapshotOf(l *Latency[briefTime]) snapshot {
	s := snapshot{Total: l.Total.Snapshot()}
	for _, h := range l.Stages {
		s.Stages = append(s.Stages, h.Snapshot())
	}
	return s
}

// at is the clock's reading d after its start.
func at(c *Clock[briefTime], d time.Duration) time.Time { return c.start.Add(d) }

// TestStageLappedTwice: a stage marked twice is observed once, with the sum
// of both laps, and a stage never marked is not observed at all.
func TestStageLappedTwice(t *testing.T) {
	l := briefStages.New()
	c := briefStages.Start()
	c.MarkAt(stageRead, at(&c, 3*time.Microsecond))
	c.MarkAt(stageParse, at(&c, 2*time.Millisecond))
	c.MarkAt(stageRead, at(&c, 2*time.Millisecond+500*time.Nanosecond)) // a second read lap of 500ns
	c.MarkAt(stageParse, at(&c, 1*time.Millisecond))                    // before the last mark: a zero lap
	l.Observe(&c)

	s := snapshotOf(l)
	read, parse, encode := s.Stages[0], s.Stages[1], s.Stages[2]
	if read.Count != 1 || read.Sum != 3500 || parse.Count != 1 || parse.Sum != 2*int64(time.Millisecond)-3000 || encode.Count != 0 {
		t.Fatalf("read %+v parse %+v encode %+v: want read once with 3500ns, parse once, encode never", read, parse, encode)
	}
	if s.Total.Count != 1 || s.Total.Sum != read.Sum+parse.Sum || c.Total() != 2*time.Millisecond+500 {
		t.Fatalf("total %+v (clock %v), want one observation of %d ns", s.Total, c.Total(), read.Sum+parse.Sum)
	}
	want := `{"read":{"buckets_ms":[0.001],"counts":[0,1],"count":1,"sum_ms":0.0035},` +
		`"parse":{"buckets_ms":[1],"counts":[0,1],"count":1,"sum_ms":1.997},` +
		`"encode":{"buckets_ms":[1,5],"counts":[0,0,0],"count":0,"sum_ms":0},` +
		`"total":{"buckets_ms":[1,10],"counts":[0,1,0],"count":1,"sum_ms":2.0005}}`
	if got := jsonOf(t, l); got != want {
		t.Fatalf("document %s\nwant %s", got, want)
	}
	if got := string(c.AppendMS(nil)); got != `{"read":0.003,"parse":1.997}` {
		t.Fatalf("access rendering %s", got)
	}
}

// TestClockSumsToTotal: for seeded random mark sequences, including marks
// that run backwards, the laps add up to the total to the nanosecond, and so
// do the histogram sums.
func TestClockSumsToTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := briefStages.New()
	var want int64
	for seq := 0; seq < 500; seq++ {
		c := briefStages.Start()
		var now time.Duration
		for n := rng.Intn(12); n > 0; n-- {
			now += time.Duration(rng.Int63n(int64(time.Millisecond))) - 100*time.Microsecond
			c.MarkAt(allStages[rng.Intn(len(allStages))], at(&c, now))
		}
		var laps time.Duration
		for _, st := range allStages {
			laps += c.Lap(st)
		}
		if laps != c.Total() {
			t.Fatalf("sequence %d: laps sum to %v, total %v", seq, laps, c.Total())
		}
		l.Observe(&c)
		want += int64(c.Total())
	}
	s := snapshotOf(l)
	var staged int64
	for _, h := range s.Stages {
		staged += h.Sum
	}
	if staged != want || s.Total.Sum != want || s.Total.Count != 500 {
		t.Fatalf("stage sums %d, total sum %d (count %d), want %d over 500", staged, s.Total.Sum, s.Total.Count, want)
	}
}

// TestConcurrentObserversSumExactly: clocks observed from many goroutines
// (run it under -race) add up exactly, stage by stage and in total.
func TestConcurrentObserversSumExactly(t *testing.T) {
	const workers, perWorker = 8, 2000
	l := briefStages.New()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c := briefStages.Start()
				c.MarkAt(stageRead, at(&c, 1))
				c.MarkAt(stageEncode, at(&c, 3))
				c.MarkAt(stageRead, at(&c, 6))
				l.Observe(&c)
			}
		}()
	}
	wg.Wait()
	s := snapshotOf(l)
	const n = workers * perWorker
	if s.Stages[0].Count != n || s.Stages[0].Sum != 4*n || s.Stages[1].Count != 0 ||
		s.Stages[2].Count != n || s.Stages[2].Sum != 2*n || s.Total.Count != n || s.Total.Sum != 6*n {
		t.Fatalf("after %d clocks: %s", n, jsonOf(t, l))
	}
}

// TestMarksAndObserveDoNotAllocate: a clock is a value, and marking it,
// observing it and rendering it into a buffer with room are on every
// request's path.
func TestMarksAndObserveDoNotAllocate(t *testing.T) {
	l := briefStages.New()
	h := NewHistogram(Nanos, []int64{10, 20})
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() {
		c := briefStages.Start()
		c.Mark(stageRead)
		c.MarkAt(stageParse, time.Now())
		l.Observe(&c)
		h.Observe(15)
		buf = c.AppendMS(buf[:0])
	}); n != 0 {
		t.Fatalf("a clock's marks, observation and rendering allocate %v times, want 0", n)
	}
}

// TestBadStagePanicsAtDeclaration: a stage key a document cannot carry, the
// total's key and one stage too many fail where they are declared.
func TestBadStagePanicsAtDeclaration(t *testing.T) {
	type tag struct{}
	mustPanic := func(name, wantMsg string, f func()) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, wantMsg) {
				t.Errorf("%s: panic %q, want it to mention %q", name, msg, wantMsg)
			}
		}()
		f()
	}
	mustPanic("the total's key", "total", func() { NewStages[tag](Millis, nil).Stage("total", nil) })
	mustPanic("upper-case key", "lower_snake", func() { NewStages[tag](Millis, nil).Stage("Read", nil) })
	mustPanic("duplicate key", "declared twice", func() {
		s := NewStages[tag](Millis, nil)
		s.Stage("read", nil)
		s.Stage("read", nil)
	})
	mustPanic("one stage too many", "too many", func() {
		s := NewStages[tag](Millis, nil)
		for _, k := range strings.Fields("a b c d e f g h i") {
			s.Stage(k, nil)
		}
	})
	mustPanic("stage declared after instantiation", "after the partition was instantiated", func() {
		s := NewStages[tag](Millis, nil)
		s.New()
		s.Stage("late", nil)
	})
}
