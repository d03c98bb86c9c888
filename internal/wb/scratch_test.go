package wb

import (
	"reflect"
	"runtime"
	"testing"

	"webbrief/internal/ag"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
)

// TestScratchBriefMatchesHeapTape drives the allocation-free path — a batch
// of one on a nograd arena tape: lockstep recurrence, pack-buffer matmuls,
// batched beam search on a beam scratch — against the heap-tape reference
// (heapTapeBrief, what wb.Briefer runs) on trained models and asserts
// identical briefings, including a reused scratch across instances, at beam
// widths 1 and 4.
func TestScratchBriefMatchesHeapTape(t *testing.T) {
	insts, v := testData(t, 2, 4)
	m := newTestJointWB(v, 311)
	tc := DefaultTrainConfig()
	tc.Epochs = 2
	TrainModel(m, insts, tc)

	for _, beam := range []int{1, 4} {
		s := NewBatchScratchOf[float64](v, beam, 1)
		for i, inst := range insts {
			want := heapTapeBrief(m, inst, v, beam)
			got, _ := MakeBriefBatch(m, insts[i:i+1], v, beam, s)
			if !reflect.DeepEqual(want, got[0]) {
				t.Fatalf("beam %d instance %d: fast path diverges:\n heap %+v\nfast %+v", beam, i, want, got[0])
			}
			// The pooled wrapper must ride the same path.
			if pooled := MakeBrief(m, inst, v, beam); !reflect.DeepEqual(want, pooled) {
				t.Fatalf("beam %d instance %d: pooled wrapper diverges", beam, i)
			}
		}
	}
}

// forwardCounter counts forwards through a wrapped model. It hides the
// batched-forward capability, so the batch functions fall back to one Forward
// per instance — which is what it counts.
type forwardCounter struct {
	Model
	forwards int
}

func (c *forwardCounter) Forward(t *ag.Tape, inst *Instance, mode Mode) *Output {
	c.forwards++
	return c.Model.Forward(t, inst, mode)
}

// TestOneForwardPerPage: a lone briefing is a batch of one, so MakeBrief and
// GenerateTopic run the model exactly once per page — the topic decodes from
// the forward the extraction already paid for — and GenerateTopic's caller
// keeps its own decode length.
func TestOneForwardPerPage(t *testing.T) {
	insts, v := testData(t, 2, 2)
	m := newTestJointWB(v, 311)
	tc := DefaultTrainConfig()
	tc.Epochs = 2
	TrainModel(m, insts, tc)
	c := &forwardCounter{Model: m}
	for i, inst := range insts {
		for _, beam := range []int{1, 4} {
			c.forwards = 0
			if got, want := MakeBrief(c, inst, v, beam), heapTapeBrief(m, inst, v, beam); !reflect.DeepEqual(got, want) {
				t.Fatalf("instance %d beam %d: counted brief %+v, reference %+v", i, beam, got, want)
			}
			if c.forwards != 1 {
				t.Fatalf("instance %d beam %d: MakeBrief ran %d forwards, want 1", i, beam, c.forwards)
			}
			for _, maxLen := range []int{1, 2, topicMaxLen} {
				c.forwards = 0
				ids := GenerateTopic(c, inst, beam, maxLen)
				if c.forwards != 1 {
					t.Fatalf("instance %d beam %d: GenerateTopic ran %d forwards, want 1", i, beam, c.forwards)
				}
				if len(ids) > maxLen {
					t.Fatalf("instance %d beam %d: GenerateTopic(maxLen %d) decoded %d tokens", i, beam, maxLen, len(ids))
				}
			}
		}
	}
}

// TestInferScratchAllocs is the allocation regression gate for the fast
// path, for both element types: a warmed workspace must brief a batch of one
// with only the output-assembly allocations (the Brief, its token strings,
// small slices) — orders of magnitude under the ~17k-alloc heap-tape path the
// scratch replaced.
func TestInferScratchAllocs(t *testing.T) {
	insts, v := testData(t, 1, 2)
	m := newTestJointWB(v, 313)
	t.Run("f64", func(t *testing.T) { checkScratchAllocs[float64](t, m, insts[:1], v, 4, 300) })
	t.Run("f32", func(t *testing.T) { checkScratchAllocs[float32](t, studentFromTeacher(t, m), insts[:1], v, 4, 300) })
}

// checkScratchAllocs fails unless a warm workspace briefs one at beam width
// beam with at most limit allocations.
func checkScratchAllocs[T tensor.Float](t *testing.T, m ModelOf[T], one []*Instance, v *textproc.Vocab, beam int, limit float64) {
	s := NewBatchScratchOf[T](v, beam, 1)
	for i := 0; i < 2; i++ { // warm arena, pack and beam buffers
		MakeBriefBatch(m, one, v, beam, s)
	}
	allocs := testing.AllocsPerRun(10, func() {
		MakeBriefBatch(m, one, v, beam, s)
	})
	t.Logf("warm MakeBriefBatch of one: %.0f allocs", allocs)
	if allocs > limit {
		t.Fatalf("warm MakeBriefBatch of one allocates %.0f per run, want <= %.0f", allocs, limit)
	}
}

// TestScratchAllocsPaperWidth gates both tiers at the paper's widths (hidden
// 108, embedding 50, beam 8), where a page's E-side products — WCE, AttE —
// and the beam's Out and H·Wh reach the 2¹⁸ multiply-adds at which a matmul
// may fan out across goroutines. At GOMAXPROCS 1 such a product must run
// serially without allocating. Measured on one 93-token page: 121 per warm
// briefing for each tier, and 140 when every such product built its fan-out
// closure before looking at GOMAXPROCS; the limit sits halfway.
// TestInferScratchAllocs' hidden-16 model stays under the threshold and
// cannot see this. (The models are not folded: under -tags wbdebug a folded
// forward re-derives table rows, which allocates.)
func TestScratchAllocsPaperWidth(t *testing.T) {
	insts, v := testData(t, 1, 2)
	cfg := DefaultConfig()
	cfg.Hidden, cfg.Seed = 108, 313
	m := NewJointWB("jwb", smallGloVeEncoder(v, 50, 313), v.Size(), cfg)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const beam, limit = 8, 130
	t.Run("f64", func(t *testing.T) { checkScratchAllocs[float64](t, m, insts[:1], v, beam, limit) })
	t.Run("f32", func(t *testing.T) {
		checkScratchAllocs[float32](t, studentFromTeacher(t, m), insts[:1], v, beam, limit)
	})
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// TestScratchPoolReturnedAllocs gates every borrower of scratchPool with the
// workspace going back to the pool, on one instance. Measured: MakeBrief 124,
// GenerateTopic 76, DevLoss 42, EvaluateExtraction 62 (evalEach's borrow). A borrower that drops its scratchPool.Put builds and
// grows a new BatchScratchOf on every call, 30 to 104 allocations more here,
// and fails: each limit sits halfway between the two counts.
func TestScratchPoolReturnedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool Puts at random")
	}
	insts, v := testData(t, 1, 2)
	one := insts[:1]
	m := newTestJointWB(v, 319)
	for _, tc := range []struct {
		name  string
		limit float64
		run   func()
	}{
		{"MakeBrief", 176, func() { MakeBrief(m, one[0], v, 4) }},
		{"GenerateTopic", 128, func() { GenerateTopic(m, one[0], 4, topicMaxLen) }},
		{"DevLoss", 60, func() { DevLoss(m, one) }},
		{"EvaluateExtraction", 77, func() { EvaluateExtraction(m, one) }},
	} {
		tc.run() // grow the pooled workspace
		allocs := testing.AllocsPerRun(20, tc.run)
		t.Logf("%s: %.0f allocs", tc.name, allocs)
		if allocs > tc.limit {
			t.Errorf("%s allocates %.0f per call, want <= %.0f: is its scratch going back to the pool?", tc.name, allocs, tc.limit)
		}
	}
}

// TestDevLossMatchesScratchPath pins DevLoss — teacher-forced forwards on
// pooled no-gradient workspaces — to the values a recording heap tape
// computes.
func TestDevLossMatchesScratchPath(t *testing.T) {
	insts, v := testData(t, 2, 2)
	m := newTestJointWB(v, 317)
	want := func() float64 {
		var sum float64
		for _, inst := range insts {
			tp := ag.NewTape()
			out := m.Forward(tp, inst, Distill)
			sum += Loss(tp, out, inst).Value.Data[0]
		}
		return sum / float64(len(insts))
	}()
	if got := DevLoss(m, insts); got != want {
		t.Fatalf("DevLoss on scratch path = %v, want %v", got, want)
	}
}

// BenchmarkMakeBriefScratch measures the warm fast path in isolation.
func BenchmarkMakeBriefScratch(b *testing.B) {
	insts, v := testData(b, 1, 2)
	m := newTestJointWB(v, 313)
	one := insts[:1]
	s := NewBatchScratchOf[float64](v, 4, 1)
	MakeBriefBatch(m, one, v, 4, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MakeBriefBatch(m, one, v, 4, s)
	}
}
