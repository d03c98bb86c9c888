package wb

import (
	"reflect"
	"testing"

	"webbrief/internal/ag"
	"webbrief/internal/eval"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
)

// heapTapeBrief is the pre-scratch briefing path kept as the equivalence
// reference: a fresh heap tape per stage, heap log-softmax and the
// sort-everything BeamSearch. The fast path must reproduce it byte for byte.
func heapTapeBrief(m Model, inst *Instance, v *textproc.Vocab, beamWidth int) *Brief {
	b := &Brief{}
	t := ag.NewTape()
	out := m.Forward(t, inst, Eval)
	if tags := PredictTags(out); tags != nil {
		for _, sp := range eval.SpansFromBIO(tags) {
			var words []string
			for i := sp.Start; i < sp.End; i++ {
				words = append(words, v.Token(inst.IDs[i]))
			}
			b.Attributes = append(b.Attributes, words)
		}
	}
	b.Sections = PredictSections(out)

	t2 := ag.NewTape()
	out2 := m.Forward(t2, inst, Eval)
	if out2.Memory != nil && out2.Dec != nil {
		var ids []int
		if beamWidth <= 1 {
			ids, _ = out2.Dec.Greedy(t2, out2.Memory, textproc.BosID, textproc.EosID, topicMaxLen)
		} else {
			ids = out2.Dec.BeamSearch(t2, out2.Memory, textproc.BosID, textproc.EosID, beamWidth, topicMaxLen)
		}
		if ids != nil {
			b.Topic = v.Tokens(ids)
		}
	}
	return b
}

// TestScratchBriefMatchesHeapTape drives the allocation-free path — nograd
// arena tape, pack-buffer matmuls, beam scratch — against the heap-tape
// reference on trained models and asserts identical briefings, including
// a reused scratch across instances and both beam and greedy decoding.
func TestScratchBriefMatchesHeapTape(t *testing.T) {
	insts, v := testData(t, 2, 4)
	m := newTestJointWB(v, 311)
	tc := DefaultTrainConfig()
	tc.Epochs = 2
	TrainModel(m, insts, tc)

	for _, beam := range []int{1, 4} {
		s := NewInferScratchFor(v, beam)
		for i, inst := range insts {
			want := heapTapeBrief(m, inst, v, beam)
			got := MakeBriefWith(m, inst, v, beam, s)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("beam %d instance %d: fast path diverges:\n heap %+v\nfast %+v", beam, i, want, got)
			}
			// The pooled wrappers must ride the same path.
			if pooled := MakeBrief(m, inst, v, beam); !reflect.DeepEqual(want, pooled) {
				t.Fatalf("beam %d instance %d: pooled wrapper diverges", beam, i)
			}
		}
	}
}

// TestInferScratchAllocs is the allocation regression gate for the fast
// path, for both element types: a warmed workspace must brief with only the
// output-assembly allocations (the Brief, its token strings, small slices) —
// orders of magnitude under the ~17k-alloc heap-tape path the scratch
// replaced.
func TestInferScratchAllocs(t *testing.T) {
	insts, v := testData(t, 1, 2)
	m := newTestJointWB(v, 313)
	t.Run("f64", func(t *testing.T) { checkScratchAllocs[float64](t, m, insts[0], v) })
	t.Run("f32", func(t *testing.T) { checkScratchAllocs[float32](t, studentFromTeacher(t, m), insts[0], v) })
}

func checkScratchAllocs[T tensor.Float](t *testing.T, m ModelOf[T], inst *Instance, v *textproc.Vocab) {
	const beam = 4
	s := NewInferScratchOf[T](v, beam)
	for i := 0; i < 2; i++ { // warm arena, pack and beam buffers
		makeBriefWith(m, inst, v, beam, s)
	}
	allocs := testing.AllocsPerRun(10, func() {
		makeBriefWith(m, inst, v, beam, s)
	})
	if allocs > 300 {
		t.Fatalf("warm makeBriefWith allocates %.0f per run, want <= 300", allocs)
	}
}

// TestDevLossMatchesScratchPath pins the eval helpers rewired onto the
// scratch pool to the values a gradient-capable tape computes.
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
	inst := insts[0]
	s := NewInferScratchFor(v, 4)
	MakeBriefWith(m, inst, v, 4, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MakeBriefWith(m, inst, v, 4, s)
	}
}
