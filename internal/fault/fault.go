// Package fault is a deterministic fault-injection layer for chaos-testing
// the crawling and serving ends of the pipeline. A Schedule draws an exact,
// replayable sequence of faults from a seeded *rand.Rand — error, timeout,
// slow-response and garbage-body — and the Fetcher and Replica wrappers
// apply that sequence to any crawler-style fetcher or serve-style replica.
//
// Determinism is the whole point: the same Config.Seed produces the same
// fault at the same draw index on every platform (math/rand's generator is
// pure Go), so a chaos run that found a bug replays byte-identically, and
// golden-file tests can pin entire schedules. No global randomness is ever
// consulted; the seedrand lint (cmd/wbcheck) enforces that contract.
package fault

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"
)

// Kind classifies one injected fault.
type Kind int

// The four fault kinds of the chaos layer, plus None for clean calls.
const (
	None    Kind = iota // call passes through untouched
	Error               // call fails immediately with an injected error
	Timeout             // call blocks past any deadline before failing
	Slow                // call is delayed, then passes through
	Garbage             // call succeeds but the body is seeded garbage bytes
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Error:
		return "error"
	case Timeout:
		return "timeout"
	case Slow:
		return "slow"
	case Garbage:
		return "garbage"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Fault is one drawn fault. The zero value is the clean call.
type Fault struct {
	Kind  Kind
	Delay time.Duration // Slow: injected latency before the call proceeds
	Body  []byte        // Garbage: the replacement response body
}

// String renders the fault compactly and deterministically — the golden
// schedule files are built from these strings, so the format must stay
// platform-independent (integer microseconds, FNV-1a body digest).
func (f Fault) String() string {
	switch f.Kind {
	case Slow:
		return fmt.Sprintf("slow(%dus)", f.Delay.Microseconds())
	case Garbage:
		h := fnv.New32a()
		h.Write(f.Body)
		return fmt.Sprintf("garbage(len=%d,fnv=%08x)", len(f.Body), h.Sum32())
	default:
		return f.Kind.String()
	}
}

// Config shapes a Schedule. Rate is the probability that any one call is
// faulted; the four weights apportion faulted calls among the kinds
// (a zero-total weight set falls back to equal weights).
type Config struct {
	Seed int64   // PRNG seed; equal seeds replay equal schedules
	Rate float64 // probability a call draws a fault (0..1)

	ErrorWeight   float64
	TimeoutWeight float64
	SlowWeight    float64
	GarbageWeight float64

	// SlowDelay is the base latency of a Slow fault; each draw lands
	// uniformly in [SlowDelay, 2*SlowDelay). Keep it well under any caller
	// deadline so Slow means "late but alive".
	SlowDelay time.Duration
	// TimeoutHang is how long a Timeout fault blocks when the caller gave
	// no deadline. Keep it well over any caller deadline.
	TimeoutHang time.Duration
	// GarbageMax caps the length of a Garbage body (draws are 1..GarbageMax).
	GarbageMax int
}

// DefaultConfig is the 30%-fault chaos profile used across the tests and by
// `wbcrawl -faults`: all four kinds equally likely, 2–4ms slow responses,
// 250ms hangs.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed: seed, Rate: 0.3,
		ErrorWeight: 1, TimeoutWeight: 1, SlowWeight: 1, GarbageWeight: 1,
		SlowDelay: 2 * time.Millisecond, TimeoutHang: 250 * time.Millisecond,
		GarbageMax: 64,
	}
}

// withDefaults resolves zero values so a sparse literal Config behaves.
func (c Config) withDefaults() Config {
	if c.ErrorWeight == 0 && c.TimeoutWeight == 0 && c.SlowWeight == 0 && c.GarbageWeight == 0 {
		c.ErrorWeight, c.TimeoutWeight, c.SlowWeight, c.GarbageWeight = 1, 1, 1, 1
	}
	if c.SlowDelay == 0 {
		c.SlowDelay = 2 * time.Millisecond
	}
	if c.TimeoutHang == 0 {
		c.TimeoutHang = 250 * time.Millisecond
	}
	if c.GarbageMax <= 0 {
		c.GarbageMax = 64
	}
	return c
}

// Schedule draws the deterministic fault sequence. It is safe for
// concurrent use (serve replicas share one), but note that concurrent
// callers race for draw indices — single-threaded users (the crawler)
// get a fully reproducible call→fault mapping, concurrent users get a
// reproducible multiset of faults.
type Schedule struct {
	mu       sync.Mutex
	cfg      Config
	rng      *rand.Rand
	draws    int64
	injected int64
}

// NewSchedule builds a schedule from cfg; cfg.Seed fully determines the
// sequence.
func NewSchedule(cfg Config) *Schedule {
	cfg = cfg.withDefaults()
	return &Schedule{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Next draws the fault for the next call. Draw order is fixed — one
// Float64 for the fault/no-fault decision, one for the kind, then the
// kind's own draws — so schedules replay exactly.
func (s *Schedule) Next() Fault {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draws++
	if s.rng.Float64() >= s.cfg.Rate {
		return Fault{}
	}
	s.injected++
	c := &s.cfg
	total := c.ErrorWeight + c.TimeoutWeight + c.SlowWeight + c.GarbageWeight
	w := s.rng.Float64() * total
	switch {
	case w < c.ErrorWeight:
		return Fault{Kind: Error}
	case w < c.ErrorWeight+c.TimeoutWeight:
		return Fault{Kind: Timeout}
	case w < c.ErrorWeight+c.TimeoutWeight+c.SlowWeight:
		frac := s.rng.Float64()
		return Fault{Kind: Slow, Delay: c.SlowDelay + time.Duration(frac*float64(c.SlowDelay))}
	default:
		n := 1 + s.rng.Intn(c.GarbageMax)
		body := make([]byte, n)
		s.rng.Read(body)
		// Guarantee the body is detectably garbage: a NUL byte never
		// appears in real HTML and trips the crawler's body validation.
		body[0] = 0x00
		return Fault{Kind: Garbage, Body: body}
	}
}

// Draws returns how many calls have consulted the schedule.
func (s *Schedule) Draws() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draws
}

// Injected returns how many of those draws carried a fault.
func (s *Schedule) Injected() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}
