// Package metrics is the counter kit behind both /metrics documents
// (internal/serve, internal/gateway). Its one type family is the exact
// partition: a total and an ordered set of named outcome counters of which
// every counted event ends in exactly one, so the outcomes sum to the total
// once nothing is in flight.
//
// A partition is declared once, at package level:
//
//	type requestsTotal struct{} // the partition's tag
//
//	var requestOutcomes = metrics.NewSchema[requestsTotal]()
//
//	var (
//		OK        = requestOutcomes.Outcome("ok")         // 200
//		BadMethod = requestOutcomes.Outcome("bad_method") // 405
//	)
//
// One Outcome line is the whole declaration of an outcome: its counter, its
// JSON key and — by its place among the lines — its position in the
// document. There is no second list to keep in step. The tag type makes
// membership a compile-time fact: a Partition[K] only accepts an Outcome[K],
// so bumping another partition's outcome does not build.
package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync/atomic"
)

// Schema is the declaration of one partition: the outcome keys in document
// order. Declare one per tag type K.
type Schema[K any] struct {
	keys   []string
	sealed atomic.Bool // set by the first New: the member set is final
}

// NewSchema starts the declaration of the partition tagged K.
func NewSchema[K any]() *Schema[K] { return &Schema[K]{} }

// Outcome is one member of the partition tagged K.
type Outcome[K any] struct {
	index int
	key   string
}

// Outcome declares the partition's next member under its JSON key. A
// declaration that cannot be served panics here, at package initialisation,
// not at the first scrape: a key that is empty, not lower_snake ASCII (it is
// written into the document unescaped) or already taken, or a member added
// after a Partition was built from the schema (that partition would have no
// counter for it).
func (s *Schema[K]) Outcome(key string) Outcome[K] {
	if s.sealed.Load() {
		panic(fmt.Sprintf("metrics: outcome %q declared after the partition was instantiated", key))
	}
	if key == "" {
		panic("metrics: outcome with an empty key")
	}
	for _, c := range []byte(key) {
		if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_') {
			panic(fmt.Sprintf("metrics: outcome key %q is not lower_snake ASCII", key))
		}
	}
	for _, k := range s.keys {
		if k == key {
			panic(fmt.Sprintf("metrics: outcome key %q declared twice", key))
		}
	}
	s.keys = append(s.keys, key)
	return Outcome[K]{index: len(s.keys) - 1, key: key}
}

// Partition is one live instance of a schema: the total and one counter per
// declared outcome. Begin and End are a few atomic adds — no lock, no
// allocation. The total is its own counter, not the sum of the outcomes: the
// difference between the two is exactly the events begun and not yet ended,
// which is what exposes a path that ends without an outcome.
type Partition[K any] struct {
	keys     []string
	total    atomic.Int64
	outcomes []atomic.Int64
}

// New builds a zeroed partition and seals the schema.
func (s *Schema[K]) New() *Partition[K] {
	s.sealed.Store(true)
	return &Partition[K]{keys: s.keys, outcomes: make([]atomic.Int64, len(s.keys))}
}

// Begin counts one event into the total.
func (p *Partition[K]) Begin() { p.total.Add(1) }

// End counts the outcome one begun event ended in.
func (p *Partition[K]) End(o Outcome[K]) { p.outcomes[o.index].Add(1) }

// Snapshot reads the total, then every outcome in declaration order.
func (p *Partition[K]) Snapshot() (total int64, outcomes Counts[K]) {
	total = p.total.Load()
	outcomes = Counts[K]{keys: p.keys, n: make([]int64, len(p.outcomes))}
	for i := range p.outcomes {
		outcomes.n[i] = p.outcomes[i].Load()
	}
	return total, outcomes
}

// Counts is a point-in-time copy of a partition's outcome counters. It
// renders as a JSON object with one key per outcome in declaration order,
// and reads back from one.
type Counts[K any] struct {
	keys []string
	n    []int64
}

// Get is the count of outcome o (0 if the document read had no such key).
func (c Counts[K]) Get(o Outcome[K]) int64 {
	for i, k := range c.keys {
		if k == o.key {
			return c.n[i]
		}
	}
	return 0
}

// sum adds up every outcome: what the partition's total must equal at rest.
func (c Counts[K]) sum() int64 {
	var sum int64
	for _, n := range c.n {
		sum += n
	}
	return sum
}

// MarshalJSON renders the outcomes as one object, keys in declaration order.
func (c Counts[K]) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for i, k := range c.keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, k...)
		b = append(b, '"', ':')
		b = strconv.AppendInt(b, c.n[i], 10)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON reads an object of integer counters, keeping its key order.
func (c *Counts[K]) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return fmt.Errorf("metrics: outcome counts must be a JSON object, got %s", data)
	}
	c.keys, c.n = nil, nil
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		var n int64
		if err := dec.Decode(&n); err != nil {
			return fmt.Errorf("metrics: outcome %v: %w", tok, err)
		}
		c.keys = append(c.keys, tok.(string))
		c.n = append(c.n, n)
	}
	return nil
}
