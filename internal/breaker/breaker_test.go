package breaker

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// site is one call site's parameters: the machine is shared, the numbers are
// the caller's.
type site struct {
	name      string
	threshold int
	cooldown  time.Duration
	probes    int
}

var sites = [...]site{
	{"serve", 1, 0, ReadmitProbes},                        // per replica: the first fault ejects, the prober's next tick half-opens
	{"gateway", 3, 500 * time.Millisecond, ReadmitProbes}, // per backend: wbgate's defaults
	{"crawler", 2, time.Second, 1},                        // per host: one clean probe fetch readmits
}

type op int

const (
	allow op = iota
	success
	fail
)

// row is one step of the transition table: op called times(site) times (nil:
// once), each call returning want — allowed, readmitted or ejected — and the
// breaker in state afterwards. An allow row first sets the clock to the last
// opening plus since cooldowns. skip drops the row at sites where it says
// nothing (an inside-the-cooldown refusal with no cooldown).
type row struct {
	name  string
	op    op
	times func(s site) int
	since float64
	skip  func(s site) bool
	want  bool
	state State
}

func belowThreshold(s site) int { return s.threshold - 1 }
func belowProbes(s site) int    { return s.probes - 1 }
func noCooldown(s site) bool    { return s.cooldown == 0 }

// transitions is the behaviour every call site relies on, in order.
var transitions = [...]row{
	{name: "closed allows", op: allow, want: true, state: Closed},
	{name: "failures below the threshold stay closed", op: fail, times: belowThreshold, state: Closed},
	{name: "a success while closed resets the count", op: success, state: Closed},
	{name: "the count restarted: still closed below the threshold", op: fail, times: belowThreshold, state: Closed},
	{name: "the threshold-th failure is one ejection", op: fail, want: true, state: Open},
	{name: "a failure while open is not another ejection", op: fail, state: Open},
	{name: "a success while open is ignored", op: success, state: Open},
	{name: "open refuses inside the cooldown", op: allow, since: 0.5, skip: noCooldown, state: Open},
	{name: "the cooldown elapsed: allow half-opens", op: allow, since: 1, want: true, state: HalfOpen},
	{name: "a half-open failure re-opens, not counted", op: fail, state: Open},
	{name: "the cooldown restarts from the re-open", op: allow, since: 0.5, skip: noCooldown, state: Open},
	{name: "the second cooldown elapsed: half-open again", op: allow, since: 1, want: true, state: HalfOpen},
	{name: "successes short of the probe count stay half-open", op: success, times: belowProbes, state: HalfOpen},
	{name: "half-open allows without restarting the probe count", op: allow, since: 1, want: true, state: HalfOpen},
	{name: "the last probe success readmits", op: success, want: true, state: Closed},
	{name: "readmission resets the failure count", op: fail, times: belowThreshold, state: Closed},
	{name: "the next threshold-th failure ejects again", op: fail, want: true, state: Open},
	{name: "cooled down once more", op: allow, since: 1, want: true, state: HalfOpen},
	{name: "probe successes readmit again", op: success, times: belowProbes, state: HalfOpen},
	{name: "and the last closes it", op: success, want: true, state: Closed},
}

// testTransitions drives one breaker with site's parameters through the
// table on a fake clock, counting ejections and readmissions off the returned
// booleans as the call sites do; after every row that ends closed the two
// counts must be equal.
func testTransitions(t *testing.T, s site) {
	b := New(s.threshold, s.cooldown, s.probes)
	now := time.Unix(0, 0)
	opened := now
	var ejections, readmissions int
	for _, r := range transitions {
		if r.skip != nil && r.skip(s) {
			continue
		}
		n := 1
		if r.times != nil {
			n = r.times(s)
		}
		for i := 0; i < n; i++ {
			var got bool
			switch r.op {
			case allow:
				now = opened.Add(time.Duration(r.since * float64(s.cooldown)))
				got = b.Allow(now)
			case success:
				got = b.Success()
				if got {
					readmissions++
				}
			case fail:
				before := b.State()
				got = b.Fail(now)
				if got {
					ejections++
				}
				if before != Open && b.State() == Open {
					opened = now
				}
			}
			if got != r.want {
				t.Fatalf("%s: call %d of %d returned %v, want %v", r.name, i+1, n, got, r.want)
			}
		}
		if st := b.State(); st != r.state {
			t.Fatalf("%s: state %s, want %s", r.name, st, r.state)
		}
		if r.state == Closed && ejections != readmissions {
			t.Fatalf("%s: ejections=%d readmissions=%d, want equal once closed", r.name, ejections, readmissions)
		}
	}
	if ejections != 2 {
		t.Fatalf("%d ejections over the table, want 2", ejections)
	}
}

func TestTransitions(t *testing.T) {
	for _, s := range sites {
		t.Run(s.name, func(t *testing.T) { testTransitions(t, s) })
	}
}

// TestStateString: the names both /metrics documents print.
func TestStateString(t *testing.T) {
	for st, want := range map[State]string{Closed: "closed", Open: "open", HalfOpen: "half_open"} {
		if got := st.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", st, got, want)
		}
	}
}

// TestConcurrentPairing hammers one breaker from several goroutines — the
// gateway's relays and prober share one per backend — and checks the pairing
// the call sites' counters rely on: every readmission closes an ejection, so
// ejections − readmissions is 0 when the breaker ends closed and 1 otherwise.
// scripts/check.sh runs it under -race.
func TestConcurrentPairing(t *testing.T) {
	for _, s := range sites {
		t.Run(s.name, func(t *testing.T) {
			b := New(s.threshold, 0, s.probes)
			var ejections, readmissions atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 500; i++ {
						now := time.Unix(int64(i), 0)
						if !b.Allow(now) {
							continue
						}
						if (i/8+w)%2 == 0 { // runs of 8 failures, then 8 successes
							if b.Fail(now) {
								ejections.Add(1)
							}
						} else if b.Success() {
							readmissions.Add(1)
						}
						_ = b.State()
					}
				}(w)
			}
			wg.Wait()
			open := int64(0)
			if b.State() != Closed {
				open = 1
			}
			if e, r := ejections.Load(), readmissions.Load(); e-r != open || e == 0 {
				t.Fatalf("ejections=%d readmissions=%d in state %s", e, r, b.State())
			}
		})
	}
}
