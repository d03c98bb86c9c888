package nn

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"webbrief/internal/ag"
	"webbrief/internal/tensor"
)

// ragged test lengths: 1-token rows, a shared max, odd middles, and one
// sequence long enough (≥ 64 rows) for its products to be panel-packed.
var raggedLens = [][]int{
	{1},
	{3, 3},
	{1, 7},
	{7, 1, 4},
	{5, 2, 5, 1},
	{1, 1, 1, 1, 1},
	{6, 3, 1, 7, 2, 5},
	{4, 4, 4, 4, 4, 4, 4},
	{7, 6, 5, 4, 3, 2, 1, 7},
	{66, 3},
}

// TestBiLSTMForwardBatchMatchesSerial pins the lockstep ForwardBatch on a
// no-gradient tape to the heap-tape Forward across ragged batch shapes, the
// batch of one first: every output value must compare equal (== admits the
// ±0 divergence the blocked kernels document, and nothing else).
func TestBiLSTMForwardBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const in, hidden = 9, 6
	bi := NewBiLSTM("b", in, hidden, rng)
	for _, lens := range raggedLens {
		// Serial references, one per sequence, each on a fresh recording heap
		// tape: the per-step Forward training runs.
		inputs := make([]*tensor.Matrix, len(lens))
		want := make([]*tensor.Matrix, len(lens))
		for i, l := range lens {
			inputs[i] = tensor.Uniform(l, in, -1, 1, rng)
			tp := ag.NewTape()
			want[i] = bi.Forward(tp, tp.Const(inputs[i])).Value
		}
		// One batched pass over all of them on a shared pack-routed infer
		// tape — the serving configuration, a lone sequence included.
		tp := inferTape()
		xs := make([]*ag.Node, len(lens))
		for i := range inputs {
			xs[i] = tp.Const(inputs[i])
		}
		got := bi.ForwardBatch(tp, xs)
		for i := range got {
			if got[i].Value.Rows != want[i].Rows || got[i].Value.Cols != want[i].Cols {
				t.Fatalf("lens %v seq %d: batched shape %dx%d, want %dx%d",
					lens, i, got[i].Value.Rows, got[i].Value.Cols, want[i].Rows, want[i].Cols)
			}
			for k, v := range got[i].Value.Data {
				if v != want[i].Data[k] {
					t.Fatalf("lens %v seq %d: value %d diverges: batched %v, serial %v",
						lens, i, k, v, want[i].Data[k])
				}
			}
		}
	}
}

// inferTape is the serving configuration: a no-gradient arena tape.
func inferTape() *ag.Tape { return ag.NewInferTapeOf[float64]() }

// TestBeamSearchBatchMatchesReference pins BeamSearchBatch to the heap
// BeamSearch on a recording tape, in two sweeps. Width × depth over six
// decoders: a batch of one reproduces the reference exactly — same
// hypotheses, same stable tie-breaking — on one cold scratch reused across
// every call (the cross-request reuse pattern of a serving replica) and on a
// nil one. Width × ragged batch shape: a member's tokens and confidence do
// not depend on its batchmates — a batch of N equals N batches of one (those
// on nil scratches), and both equal the reference. (Against the reference
// the comparison is slices.Equal: a lone EOS decodes to nil here and to an
// empty slice there.)
func TestBeamSearchBatchMatchesReference(t *testing.T) {
	one := func(d *AttnDecoder, mem *tensor.Matrix, bos, eos, width, maxLen int, scratches []*BeamScratchOf[float64]) ([]int, Confidence) {
		tp := inferTape()
		toks, confs := d.BeamSearchBatch(tp, []*ag.Node{tp.Const(mem)}, bos, eos, width, maxLen, scratches)
		return toks[0], confs[0]
	}
	reference := func(d *AttnDecoder, mem *tensor.Matrix, bos, eos, width, maxLen int) []int {
		tp := ag.NewTape()
		return d.BeamSearch(tp, tp.Const(mem), bos, eos, width, maxLen)
	}

	t.Run("batch-of-one", func(t *testing.T) {
		const bos, eos = 0, 1
		cold := []*BeamScratchOf[float64]{NewBeamScratchOf[float64](0, 0, 0)} // everything grows on demand
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(40 + seed))
			d := NewAttnDecoder("d", 6+int(seed), 5, 7, 9, rng)
			mem := tensor.Randn(4, 9, 1, rng)
			for _, width := range []int{1, 2, 3, 5} {
				for _, maxLen := range []int{1, 2, 4, 6} {
					want := reference(d, mem, bos, eos, width, maxLen)
					if got, _ := one(d, mem, bos, eos, width, maxLen, cold); !slices.Equal(want, got) {
						t.Fatalf("seed %d width %d maxLen %d: batch of one %v, reference %v", seed, width, maxLen, got, want)
					}
					if got, _ := one(d, mem, bos, eos, width, maxLen, nil); !slices.Equal(want, got) {
						t.Fatalf("seed %d width %d maxLen %d: nil-scratch run %v, reference %v", seed, width, maxLen, got, want)
					}
				}
			}
		}
	})

	t.Run("batchmates", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		const vocab, embDim, hidden, memDim = 17, 5, 6, 6
		const bos, eos, maxLen = 1, 2, 5
		d := NewAttnDecoder("d", vocab, embDim, hidden, memDim, rng)
		for _, width := range []int{2, 3, 4} {
			for _, lens := range raggedLens {
				mems := make([]*tensor.Matrix, len(lens))
				for i, l := range lens {
					mems[i] = tensor.Uniform(l, memDim, -1, 1, rng)
				}
				tp := inferTape()
				nodes := make([]*ag.Node, len(lens))
				scratches := make([]*BeamScratchOf[float64], len(lens))
				for i := range mems {
					nodes[i] = tp.Const(mems[i])
					scratches[i] = NewBeamScratchOf[float64](vocab, width, maxLen)
				}
				got, gotConfs := d.BeamSearchBatch(tp, nodes, bos, eos, width, maxLen, scratches)
				for i := range got {
					alone, aloneConf := one(d, mems[i], bos, eos, width, maxLen, nil)
					if !reflect.DeepEqual(got[i], alone) || gotConfs[i] != aloneConf {
						t.Fatalf("width %d lens %v inst %d: in the batch %v %+v, alone %v %+v",
							width, lens, i, got[i], gotConfs[i], alone, aloneConf)
					}
					if want := reference(d, mems[i], bos, eos, width, maxLen); !slices.Equal(got[i], want) {
						t.Fatalf("width %d lens %v inst %d: batched %v, reference %v", width, lens, i, got[i], want)
					}
				}
			}
		}
	})
}

// TestBeamSearchBatchNilScratches checks the convenience paths: a nil
// scratch slice and nil entries both get throwaway scratches, and reused
// scratches keep producing identical results (pool ping-pong hygiene).
func TestBeamSearchBatchNilScratches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const vocab, embDim, hidden, memDim = 11, 4, 5, 5
	d := NewAttnDecoder("d", vocab, embDim, hidden, memDim, rng)
	mems := []*tensor.Matrix{
		tensor.Uniform(3, memDim, -1, 1, rng),
		tensor.Uniform(1, memDim, -1, 1, rng),
	}
	tp := inferTape()
	nodes := []*ag.Node{tp.Const(mems[0]), tp.Const(mems[1])}
	first, _ := d.BeamSearchBatch(tp, nodes, 1, 2, 3, 4, nil)
	scratches := []*BeamScratchOf[float64]{NewBeamScratchOf[float64](vocab, 3, 4), nil}
	for round := 0; round < 3; round++ {
		tp.Reset()
		nodes = []*ag.Node{tp.Const(mems[0]), tp.Const(mems[1])}
		again, _ := d.BeamSearchBatch(tp, nodes, 1, 2, 3, 4, scratches)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("round %d: reused scratches diverged: %v vs %v", round, again, first)
		}
	}
}

// TestLSTMHoistedProjectionBitwise pins the no-gradient hoist rule: a
// no-grad tape computes x·Wx once per sequence as one seq-row product, a
// recording tape computes it per timestep as 1-row products, and every
// hidden state must still compare equal cell for cell — for LSTM.Forward,
// BiLSTM.Forward and ragged BiLSTM.ForwardBatch, including inputs with exact
// zeros and sequences long enough to fill many register tiles.
func TestLSTMHoistedProjectionBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const in, hidden = 9, 6
	bi := NewBiLSTM("b", in, hidden, rng)
	equal := func(what string, got, want *tensor.Matrix) {
		t.Helper()
		if !got.SameShape(want) {
			t.Fatalf("%s: hoisted shape %dx%d, per-step %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for k, v := range got.Data {
			if v != want.Data[k] {
				t.Fatalf("%s: value %d diverges: hoisted %v, per-step %v", what, k, v, want.Data[k])
			}
		}
	}
	tapes := func() (hoisted, perStep *ag.Tape) { return inferTape(), ag.NewTape() }
	for _, lens := range raggedLens {
		inputs := make([]*tensor.Matrix, len(lens))
		for i, l := range lens {
			inputs[i] = tensor.Uniform(l, in, -1, 1, rng)
			for k := range inputs[i].Data {
				if rng.Intn(4) == 0 {
					inputs[i].Data[k] = 0
				}
			}
		}
		for _, x := range inputs {
			h, p := tapes()
			equal("LSTM.Forward", bi.Fwd.Forward(h, h.Const(x)).Value, bi.Fwd.Forward(p, p.Const(x)).Value)
			h, p = tapes()
			equal("BiLSTM.Forward", bi.Forward(h, h.Const(x)).Value, bi.Forward(p, p.Const(x)).Value)
		}
		h, p := tapes()
		hx, px := make([]*ag.Node, len(inputs)), make([]*ag.Node, len(inputs))
		for i, x := range inputs {
			hx[i], px[i] = h.Const(x), p.Const(x)
		}
		got, want := bi.ForwardBatch(h, hx), bi.ForwardBatch(p, px)
		for i := range got {
			equal("BiLSTM.ForwardBatch", got[i].Value, want[i].Value)
		}
	}
}

// TestLSTMCellFusedMatchesOpChain pins the fused no-gradient step
// (tensor.LSTMCellInto) to the recorded op chain it replaces: the same
// multi-row Step sequence on an inference tape and on a recording tape must
// leave bit-identical hidden and cell states — math.Float64bits for float64,
// math.Float32bits for float32 — at every step, for hidden widths on both
// sides of the 8-lane vector width and the serving width, with inputs wide
// enough to drive gates into saturation. (The kernel mode is the host's;
// tensor's TestLSTMCellIntoMatchesOps repeats the comparison at the kernel
// level in both modes.)
func TestLSTMCellFusedMatchesOpChain(t *testing.T) {
	testLSTMCellFusedMatchesOpChain[float64](t, "float64")
	testLSTMCellFusedMatchesOpChain[float32](t, "float32")
}

func testLSTMCellFusedMatchesOpChain[T tensor.Float](t *testing.T, dtype string) {
	rng := rand.New(rand.NewSource(29))
	const in, steps = 5, 4
	for _, h := range []int{1, 7, 8, 9, 108} {
		l := CastLSTM[T](NewLSTM("l", in, h, rng))
		for _, rows := range []int{1, 4, 7} {
			xs := make([]*tensor.MatrixOf[T], steps)
			for k := range xs {
				xs[k] = tensor.Cast[T](tensor.Uniform(rows, in, -8, 8, rng))
			}
			h0 := tensor.Cast[T](tensor.Uniform(rows, h, -1, 1, rng))
			c0 := tensor.Cast[T](tensor.Uniform(rows, h, -3, 3, rng))
			fused, chain := ag.NewInferTapeOf[T](), &ag.TapeOf[T]{}
			fs := StateOf[T]{H: fused.Const(h0), C: fused.Const(c0)}
			cs := StateOf[T]{H: chain.Const(h0), C: chain.Const(c0)}
			for k, x := range xs {
				fs, cs = l.Step(fused, fused.Const(x), fs), l.Step(chain, chain.Const(x), cs)
				for _, pair := range []struct {
					what      string
					got, want *tensor.MatrixOf[T]
				}{{"H", fs.H.Value, cs.H.Value}, {"C", fs.C.Value, cs.C.Value}} {
					for j, g := range pair.got.Data {
						// float32 → float64 is exact, so equal widened bits
						// means equal float32 bits, signed zeros included.
						if w := pair.want.Data[j]; math.Float64bits(float64(g)) != math.Float64bits(float64(w)) {
							t.Fatalf("%s h=%d rows=%d step %d: %s[%d] fused %v, op chain %v",
								dtype, h, rows, k, pair.what, j, g, w)
						}
					}
				}
			}
		}
	}
}
