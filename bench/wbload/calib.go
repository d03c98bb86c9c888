package main

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// The benchmark runs on a few cores of a shared host whose speed changes by
// tens of percent for minutes at a time: the driver saw the middle half of
// ten runs of one commit spread over 30 % of the median on every timed
// metric, CPU time included, and on the sizing box the same run of
// direct-miss-teacher completed between 527 and 691 requests in 20 s. No
// window the time limit allows averages that out, so the harness measures it
// instead: between requests it times a fixed piece of work of its own (a
// calibration unit) and reports every timed end-to-end metric in reference
// time, the time the same run would have taken on a host that does a unit
// in calibRef. The raw view is kept beside it: host.slowdown is the factor,
// and the scraped serve.* and gateway.* layer times are the servers' own
// wall-clock numbers, not rescaled.
//
// The unit shares no code with the program under test, so nothing a later
// PR changes in the repository moves it.

const (
	// One unit is two kinds of work, roughly two fifths and three fifths of
	// its time. The first is floating-point: a vector through a matrix as wide
	// as a BiLSTM gate block's input at the bundle's size and small enough to
	// stay in the first-level cache, then tanh, calibPasses times over. The
	// second is what a server does around its arithmetic: sort calibInts
	// integers and look each up in a map. Sized side by side with four other
	// candidates on twelve runs per workload while the host's speed ranged
	// over 1.5×: dense arithmetic alone slowed more than the servers did (the
	// model workloads followed it with exponent 0.8, fleet-hit with 0.5),
	// sorting alone less (1.4 and 1.0), a pointer chase through 4 MB not at
	// all; the mix followed every workload with an exponent within 0.25 of 1
	// and left 3 to 8 % of spread where the raw numbers had 11 to 27 %.
	calibRows   = 16
	calibCols   = bundleEmbDim + bundleHidden
	calibWarm   = 30  // untimed passes: the unit starts on a core that just ran something else
	calibPasses = 100 // timed passes
	calibInts   = 4096

	// calibRef is one unit's duration inside a run on the box the benchmark
	// was sized on, while that box was quiet (host.slowdown read 1):
	// reference time is wall time there.
	calibRef = 550 * time.Microsecond

	calibEvery = 25 * time.Millisecond // one unit this often while load runs: 2 to 3 % of the core
	calibSlice = 4 * time.Second       // the speed profile's resolution: about 160 units
	setupUnits = 20                    // units on each side of a set-up cycle
)

// calibSample is one timed unit, at its offset from the start of the run.
type calibSample struct {
	at, took time.Duration
}

// calibrator times calibration units. Safe for concurrent use; units never
// overlap, so one never slows another.
type calibrator struct {
	w, x0  []float64   // the matrix and the starting vector of the floating-point half
	x, y   []float64   // scratch: every unit starts again from x0
	ints   []int       // the integers to sort, in their unsorted order
	sorted []int       // scratch: sorted on every unit
	where  map[int]int // each integer's place in ints
	sink   int         // keeps the lookups alive

	mu      sync.Mutex
	origin  time.Time
	last    time.Time
	samples []calibSample
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(0x63616c69))
	c := &calibrator{
		w:      make([]float64, calibRows*calibCols),
		x0:     make([]float64, calibCols),
		x:      make([]float64, calibCols),
		y:      make([]float64, calibRows),
		ints:   make([]int, calibInts),
		sorted: make([]int, calibInts),
		where:  make(map[int]int, calibInts),
	}
	for i := range c.w {
		c.w[i] = rng.Float64()*0.2 - 0.1
	}
	for j := range c.x0 {
		c.x0[j] = rng.Float64()
	}
	for i := range c.ints {
		c.ints[i] = rng.Int()
		c.where[c.ints[i]] = i
	}
	return c
}

// unit runs one calibration unit and returns how long it took. Every unit
// does the same work on the same values: the vector starts from x0 each
// time. Carried over from unit to unit it shrank towards zero, and
// arithmetic on denormal numbers is several times slower: a unit's time then
// depended on how many had run before it.
func (c *calibrator) unit() time.Duration {
	var t0 time.Time
	copy(c.x, c.x0)
	for pass := -calibWarm; pass < calibPasses; pass++ {
		if pass == 0 {
			t0 = time.Now()
		}
		for r := 0; r < calibRows; r++ {
			row := c.w[r*calibCols : (r+1)*calibCols]
			var s0, s1 float64
			for j := 0; j+1 < len(row); j += 2 {
				s0 += row[j] * c.x[j]
				s1 += row[j+1] * c.x[j+1]
			}
			c.y[r] = s0 + s1
		}
		for j := range c.x {
			c.x[j] = math.Tanh(c.y[j%calibRows] + 0.5*c.x[j])
		}
	}
	copy(c.sorted, c.ints)
	sort.Ints(c.sorted)
	for _, v := range c.sorted {
		c.sink += c.where[v]
	}
	return time.Since(t0)
}

// begin starts a new run: offsets count from origin and earlier samples are
// dropped.
func (c *calibrator) begin(origin time.Time) {
	c.mu.Lock()
	c.origin, c.last, c.samples = origin, time.Time{}, nil
	c.mu.Unlock()
}

// tick runs one unit if calibEvery has passed since the last one and nobody
// else is running one. Closed-loop workers call it between requests, so a
// unit never competes with the request being timed.
func (c *calibrator) tick() {
	if !c.mu.TryLock() {
		return
	}
	defer c.mu.Unlock()
	now := time.Now()
	if now.Sub(c.last) < calibEvery {
		return
	}
	c.last = now
	c.samples = append(c.samples, calibSample{now.Sub(c.origin), c.unit()})
}

// tickBeside ticks from a goroutine of its own until the returned function
// is called, which waits for it to end: the calibration of an open-loop run,
// whose workers sleep between arrivals instead of passing through tick.
func (c *calibrator) tickBeside() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(calibEvery / 4)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				c.tick()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// spot runs n units back to back and returns the host's slowdown now: the
// calibration of a set-up cycle, taken before and after it.
func (c *calibrator) spot(n int) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	took := make([]float64, n)
	for i := range took {
		took[i] = float64(c.unit())
	}
	return mean(took) / float64(calibRef)
}

// speedProfile is the host's slowdown over one run, slice by slice: 1 means
// it ran at the reference speed, 1.25 that everything took a quarter longer.
type speedProfile struct {
	slow []float64 // per calibSlice of the run
}

// profile summarises the samples since begin over a run of the given length.
// A slice's slowdown is its mean unit, not its median: time stolen from the
// guest comes in scheduler quanta longer than a unit, so most units see none
// of it and a few see all of it, and only the mean adds up to what the
// servers lost. A slice without a unit (a stall longer than a slice) takes
// its nearest neighbour's.
func (c *calibrator) profile(elapsed time.Duration) (speedProfile, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return buildProfile(c.samples, elapsed)
}

func buildProfile(samples []calibSample, elapsed time.Duration) (speedProfile, error) {
	if len(samples) == 0 {
		return speedProfile{}, errors.New("no calibration unit ran during the window")
	}
	n := int((elapsed + calibSlice - 1) / calibSlice)
	if n < 1 {
		n = 1
	}
	bins := make([][]float64, n)
	for _, s := range samples {
		k := int(s.at / calibSlice)
		if k >= n {
			k = n - 1
		}
		bins[k] = append(bins[k], float64(s.took))
	}
	p := speedProfile{slow: make([]float64, n)}
	for k := range bins {
		for d := 0; len(bins[k]) == 0; d++ { // terminates: some bin has a sample
			if k-d >= 0 && len(bins[k-d]) > 0 {
				bins[k] = bins[k-d]
			} else if k+d < n && len(bins[k+d]) > 0 {
				bins[k] = bins[k+d]
			}
		}
		p.slow[k] = mean(bins[k]) / float64(calibRef)
	}
	return p, nil
}

// at is the slowdown in force at the given offset into the run.
func (p speedProfile) at(t time.Duration) float64 {
	k := int(t / calibSlice)
	if k < 0 {
		k = 0
	}
	if k >= len(p.slow) {
		k = len(p.slow) - 1
	}
	return p.slow[k]
}

// refSeconds converts the run's wall-clock length into reference seconds:
// each slice counts for its length divided by its slowdown.
func (p speedProfile) refSeconds(elapsed time.Duration) float64 {
	sum := 0.0
	for k, s := range p.slow {
		width := calibSlice
		if k == len(p.slow)-1 {
			width = elapsed - time.Duration(k)*calibSlice
		}
		sum += width.Seconds() / s
	}
	return sum
}
