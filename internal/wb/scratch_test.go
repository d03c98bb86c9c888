package wb

import (
	"reflect"
	"testing"

	"webbrief/internal/ag"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
)

// TestScratchBriefMatchesHeapTape drives the allocation-free path — a batch
// of one on a nograd arena tape: lockstep recurrence, pack-buffer matmuls,
// batched beam search on a beam scratch — against the heap-tape reference
// (heapTapeBrief, what wb.Briefer runs) on trained models and asserts
// identical briefings, including a reused scratch across instances and both
// beam and greedy decoding.
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
	t.Run("f64", func(t *testing.T) { checkScratchAllocs[float64](t, m, insts[:1], v) })
	t.Run("f32", func(t *testing.T) { checkScratchAllocs[float32](t, studentFromTeacher(t, m), insts[:1], v) })
}

func checkScratchAllocs[T tensor.Float](t *testing.T, m ModelOf[T], one []*Instance, v *textproc.Vocab) {
	const beam = 4
	s := NewBatchScratchOf[T](v, beam, 1)
	for i := 0; i < 2; i++ { // warm arena, pack and beam buffers
		MakeBriefBatch(m, one, v, beam, s)
	}
	allocs := testing.AllocsPerRun(10, func() {
		MakeBriefBatch(m, one, v, beam, s)
	})
	t.Logf("warm MakeBriefBatch of one: %.0f allocs", allocs)
	if allocs > 300 {
		t.Fatalf("warm MakeBriefBatch of one allocates %.0f per run, want <= 300", allocs)
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
