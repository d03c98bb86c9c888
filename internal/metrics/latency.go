package metrics

import (
	"encoding/json"
	"strconv"
	"sync/atomic"
	"time"
)

// Unit is what a histogram's values count. It picks its JSON keys.
type Unit uint8

const (
	Plain  Unit = iota // a count, such as a batch size: "buckets", "sum"
	Nanos              // nanoseconds: "buckets_ns", "sum_ns"
	Millis             // nanoseconds, rendered in milliseconds: "buckets_ms", "sum_ms"
)

// Histogram is a fixed-bucket histogram over int64 values: Observe is a few
// atomic adds, and fixed bounds keep documents comparable across runs.
// counts has a slot per bound, then one for values above the last bound.
type Histogram struct {
	unit       Unit
	bounds     []int64
	counts     []atomic.Int64
	count, sum atomic.Int64
}

// NewHistogram builds an empty histogram over ascending bounds.
func NewHistogram(unit Unit, bounds []int64) *Histogram {
	return &Histogram{unit: unit, bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe counts v in the first bucket whose bound it does not exceed.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is a point-in-time copy of a histogram. It renders as
// {"buckets":…,"counts":…,"count":…,"sum":…}, its unit's suffix on the
// bounds' and the sum's keys; a document decoded back fills Counts and Count.
type HistogramSnapshot struct {
	Unit           Unit
	Bounds, Counts []int64
	Count, Sum     int64
}

// Snapshot copies the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Unit: h.unit, Bounds: h.bounds, Counts: make([]int64, len(h.counts))}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count, s.Sum = h.count.Load(), h.sum.Load()
	return s
}

// MarshalJSON renders the snapshot under its unit's keys.
func (s HistogramSnapshot) MarshalJSON() ([]byte, error) {
	suffix, bounds, sum := [...]string{"", "_ns", "_ms"}[s.Unit], any(s.Bounds), any(s.Sum)
	if s.Unit == Millis {
		ms := make([]float64, len(s.Bounds))
		for i, b := range s.Bounds {
			ms[i] = float64(b) / 1e6
		}
		bounds, sum = ms, float64(s.Sum)/1e6
	}
	return object([]string{"buckets" + suffix, "counts", "count", "sum" + suffix}, bounds, s.Counts, s.Count, sum)
}

// object renders one JSON object: keys[i] maps to vals[i], in order.
func object(keys []string, vals ...any) ([]byte, error) {
	b := []byte{'{'}
	for i, k := range keys {
		v, err := json.Marshal(vals[i])
		if err != nil {
			return nil, err
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(strconv.AppendQuote(b, k), ':'), v...)
	}
	return append(b, '}'), nil
}

// Stages declares one latency partition, like a Schema: its stages in
// document order, each with its bounds, then the total. A request's time is
// one Clock, and every stage is the gap between two consecutive marks of it,
// so the stages sum to the total exactly, by construction.
type Stages[K any] struct {
	unit   Unit
	total  []int64
	keys   []string
	bounds [][]int64
	sealed atomic.Bool
}

// maxStages keeps a Clock a small fixed-size value.
const maxStages = 8

// NewStages starts the declaration of the latency partition tagged K.
func NewStages[K any](unit Unit, total []int64) *Stages[K] {
	return &Stages[K]{unit: unit, total: total}
}

// Stage is one member of the latency partition tagged K.
type Stage[K any] struct{ index int }

// Stage declares the next stage. It panics where Schema.Outcome does, on
// the key "total" and on a stage past maxStages.
func (s *Stages[K]) Stage(key string, bounds []int64) Stage[K] {
	if key == "total" || len(s.keys) == maxStages {
		panic("metrics: stage " + strconv.Quote(key) + " is the total's key or one stage too many")
	}
	s.keys = declare("stage", s.keys, key, s.sealed.Load())
	s.bounds = append(s.bounds, bounds)
	return Stage[K]{index: len(s.keys) - 1}
}

// Latency is one live latency partition: a histogram per stage, in
// declaration order, and the total's. It renders as one object, a key per
// stage and then "total".
type Latency[K any] struct {
	Keys   []string
	Stages []*Histogram
	Total  *Histogram
}

// New builds zeroed histograms and seals the declaration.
func (s *Stages[K]) New() *Latency[K] {
	s.sealed.Store(true)
	l := &Latency[K]{Keys: s.keys, Total: NewHistogram(s.unit, s.total)}
	for _, b := range s.bounds {
		l.Stages = append(l.Stages, NewHistogram(s.unit, b))
	}
	return l
}

// Observe records a request's clock: each stage it reached, once, with the
// sum of its laps, then its total.
func (l *Latency[K]) Observe(c *Clock[K]) {
	for i, h := range l.Stages {
		if c.reached&(1<<i) != 0 {
			h.Observe(int64(c.laps[i]))
		}
	}
	l.Total.Observe(int64(c.last))
}

// MarshalJSON renders a snapshot of every histogram.
func (l *Latency[K]) MarshalJSON() ([]byte, error) {
	var vals []any
	for _, h := range append(l.Stages[:len(l.Stages):len(l.Stages)], l.Total) {
		vals = append(vals, h.Snapshot())
	}
	return object(append(l.Keys[:len(l.Keys):len(l.Keys)], "total"), vals...)
}

// Clock is one request's time: marks on one monotonic clock, each ending a
// stage with the gap since the previous mark. A stage marked twice has two
// laps. A Clock is a value: copy it to hand a request to another goroutine,
// and copy it back to take the marks made there.
type Clock[K any] struct {
	keys    []string
	start   time.Time
	last    time.Duration // the latest mark, from start: the total
	laps    [maxStages]time.Duration
	reached uint8 // bit i: stage i was marked
}

// Start starts a request's clock.
func (s *Stages[K]) Start() Clock[K] { return Clock[K]{keys: s.keys, start: time.Now()} }

// Mark ends stage st now.
func (c *Clock[K]) Mark(st Stage[K]) { c.MarkAt(st, time.Now()) }

// MarkAt ends stage st at t, so one reading can end a stage for a whole
// batch. A t before the latest mark is a zero lap.
func (c *Clock[K]) MarkAt(st Stage[K], t time.Time) {
	at := max(t.Sub(c.start), c.last)
	c.laps[st.index] += at - c.last
	c.last = at
	c.reached |= 1 << st.index
}

// Lap is the sum of stage st's laps.
func (c *Clock[K]) Lap(st Stage[K]) time.Duration { return c.laps[st.index] }

// Total is the start to the latest mark: the sum of every lap.
func (c *Clock[K]) Total() time.Duration { return c.last }

// AppendMS appends the reached stages' laps as one JSON object in
// milliseconds, truncated to the microsecond, allocating only to grow b.
func (c *Clock[K]) AppendMS(b []byte) []byte {
	b = append(b, '{')
	for i, k := range c.keys {
		if c.reached&(1<<i) != 0 {
			b = append(append(append(b, '"'), k...), '"', ':')
			b = append(strconv.AppendFloat(b, float64(c.laps[i].Microseconds())/1e3, 'f', -1, 64), ',')
		}
	}
	if b[len(b)-1] == ',' {
		b = b[:len(b)-1]
	}
	return append(b, '}')
}
