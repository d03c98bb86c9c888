package wb

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"webbrief/internal/ag"
	"webbrief/internal/eval"
	"webbrief/internal/tensor"
)

// maxParamDiff returns the largest absolute elementwise difference between
// two models' parameters.
func maxParamDiff(a, b Model) float64 {
	pa, pb := a.Params(), b.Params()
	var mx float64
	for i := range pa {
		for j, v := range pa[i].Value.Data {
			if d := math.Abs(v - pb[i].Value.Data[j]); d > mx {
				mx = d
			}
		}
	}
	return mx
}

// TestParallelTrainingMatchesSequential is the equivalence guarantee of the
// data-parallel engine: Workers=N must reproduce the Workers=1 reference —
// same per-epoch losses and same final parameters — up to float
// reassociation from the fixed-order gradient-shard merge. Dropout stays
// enabled (the default config), so this also proves the per-example rng
// seeding is scheduling-independent.
func TestParallelTrainingMatchesSequential(t *testing.T) {
	insts, v := testData(t, 2, 4)
	run := func(workers int) (Model, []float64) {
		m := newTestJointWB(v, 51)
		tc := DefaultTrainConfig()
		tc.Epochs = 2
		tc.BatchSize = 4
		tc.Workers = workers
		return m, TrainModel(m, insts, tc)
	}
	mSeq, lSeq := run(1)
	mPar, lPar := run(4)
	if len(lSeq) != len(lPar) {
		t.Fatalf("epoch count mismatch: %d vs %d", len(lSeq), len(lPar))
	}
	for i := range lSeq {
		if d := math.Abs(lSeq[i] - lPar[i]); d > 1e-9 {
			t.Fatalf("epoch %d loss diverges: %v vs %v (Δ=%g)", i, lSeq[i], lPar[i], d)
		}
	}
	if d := maxParamDiff(mSeq, mPar); d > 1e-9 {
		t.Fatalf("final parameters diverge: max |Δ| = %g", d)
	}
	// And the parallel run itself must be reproducible.
	mPar2, lPar2 := run(4)
	for i := range lPar {
		if lPar[i] != lPar2[i] {
			t.Fatalf("parallel training not deterministic: %v vs %v", lPar, lPar2)
		}
	}
	if d := maxParamDiff(mPar, mPar2); d != 0 {
		t.Fatalf("parallel training params not deterministic: max |Δ| = %g", d)
	}
}

// TestParallelTrainingLearns runs the parallel path long enough to verify it
// actually optimises (not just doesn't crash) and exercises the worker
// fan-out under -race.
func TestParallelTrainingLearns(t *testing.T) {
	insts, v := testData(t, 2, 4)
	m := newTestJointWB(v, 52)
	tc := DefaultTrainConfig()
	tc.Epochs = 8
	tc.BatchSize = 2
	tc.Workers = 4
	losses := TrainModel(m, insts, tc)
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("parallel training loss did not decrease: %v", losses)
	}
}

// unitStep is plain gradient descent at learning rate 1 on one parameter.
type unitStep struct{ p *ag.Param }

func (u unitStep) Step() {
	u.p.Value.AddScaledInPlace(u.p.Grad, -1)
	u.p.ZeroGrad()
}

func (u unitStep) ZeroGrad() { u.p.ZeroGrad() }

// TestPartialBatchScaling pins the fix for the trailing-batch bug: with
// n=3 and BatchSize=2 the second step's single example must be scaled by
// 1/1, not 1/BatchSize. A linear loss makes the expected SGD updates exact.
func TestPartialBatchScaling(t *testing.T) {
	p := ag.NewParam("w", tensor.FromSlice(1, 1, []float64{0}))
	params := []*ag.Param{p}
	sgd := unitStep{p} // parameter moves by exactly the gradient
	coeff := []float64{1, 2, 4}

	tc := TrainConfig{Epochs: 1, BatchSize: 2, Workers: 1, Seed: 7}
	TrainEpochs(sgd, params, len(coeff), tc, func(t *ag.Tape, idx int) *ag.Node {
		// loss = coeff[idx] * w  →  d(loss)/dw = coeff[idx]
		return t.Scale(t.Use(p), coeff[idx])
	}, nil)

	// Replicate the engine's shuffle to know the batch composition.
	order := []int{0, 1, 2}
	rand.New(rand.NewSource(tc.Seed)).Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})
	want := -(coeff[order[0]] + coeff[order[1]]) / 2 // full batch, mean of two
	want -= coeff[order[2]]                          // trailing batch of one: scale 1/1
	if got := p.Value.Data[0]; math.Abs(got-want) > 1e-12 {
		t.Fatalf("partial batch scaling wrong: got %v want %v", got, want)
	}
}

// TestEarlyStopRespectsBatchSize verifies the unified early-stopping path
// batches like TrainModel: with a patience that never triggers, both must
// produce identical loss curves and parameters for the same config.
func TestEarlyStopRespectsBatchSize(t *testing.T) {
	insts, v := testData(t, 2, 4)
	tc := DefaultTrainConfig()
	tc.Epochs = 2
	tc.BatchSize = 4
	tc.Workers = 2

	m1 := newTestJointWB(v, 53)
	l1 := TrainModel(m1, insts, tc)
	m2 := newTestJointWB(v, 53)
	l2, epochs := TrainModelEarlyStop(m2, insts, nil, tc, 100)
	if epochs != tc.Epochs {
		t.Fatalf("early stop ran %d epochs, want %d", epochs, tc.Epochs)
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("early-stop loss curve diverges from TrainModel: %v vs %v", l1, l2)
		}
	}
	if d := maxParamDiff(m1, m2); d != 0 {
		t.Fatalf("early-stop params diverge from TrainModel: max |Δ| = %g", d)
	}
}

// TestParallelEvalLoopsMatchSequential covers the eval loops that fan out
// over parallelInstances on pooled workspaces — DevLoss teacher-forced,
// EvaluateSections and ExtractionCorrect as batches of one: each must equal a
// hand-rolled sequential computation over heap-tape forwards.
func TestParallelEvalLoopsMatchSequential(t *testing.T) {
	insts, v := testData(t, 2, 4)
	m := newTestJointWB(v, 54)

	var seq float64
	for _, inst := range insts {
		tp := ag.NewTape()
		out := m.Forward(tp, inst, Distill)
		seq += Loss(tp, out, inst).Value.Data[0]
	}
	seq /= float64(len(insts))
	if got := DevLoss(m, insts); got != seq {
		t.Fatalf("DevLoss %v != sequential %v", got, seq)
	}

	var pred, gold []int
	wantCorrect := make([]bool, len(insts))
	for i, inst := range insts {
		tp := ag.NewTape()
		out := m.Forward(tp, inst, Eval)
		pred = append(pred, PredictSections(out)...)
		gold = append(gold, inst.SentInfo...)
		wantCorrect[i] = eval.SpansEqual(eval.SpansFromBIO(PredictTags(out)), eval.SpansFromBIO(inst.Tags))
	}
	acc := 0
	for i := range pred {
		if pred[i] == gold[i] {
			acc++
		}
	}
	want := 100 * float64(acc) / float64(len(pred))
	if got := EvaluateSections(m, insts); got != want {
		t.Fatalf("EvaluateSections %v != sequential %v", got, want)
	}

	for run := 0; run < 2; run++ {
		if got := ExtractionCorrect(m, insts); !reflect.DeepEqual(got, wantCorrect) {
			t.Fatalf("ExtractionCorrect run %d: %v != sequential %v", run, got, wantCorrect)
		}
	}
}

// BenchmarkTrainStepArena measures one forward+backward+merge on a reused
// arena tape — the steady-state allocation profile of the new engine.
func BenchmarkTrainStepArena(b *testing.B) {
	insts, v := testData(b, 2, 2)
	m := newTestJointWB(v, 55)
	sink := ag.NewGradSink()
	tape := ag.NewArenaTape()
	tape.SetSink(sink)
	params := m.Params()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := insts[i%len(insts)]
		tape.Reset()
		out := m.Forward(tape, inst, Train)
		loss := Loss(tape, out, inst)
		tape.Backward(loss)
		sink.MergeInto(params)
		for _, p := range params {
			p.ZeroGrad()
		}
	}
}

// BenchmarkTrainStepFreshTape is the pre-arena reference: a new heap tape
// per step, gradients straight into Param.Grad.
func BenchmarkTrainStepFreshTape(b *testing.B) {
	insts, v := testData(b, 2, 2)
	m := newTestJointWB(v, 55)
	params := m.Params()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := insts[i%len(insts)]
		tape := ag.NewTape()
		out := m.Forward(tape, inst, Train)
		loss := Loss(tape, out, inst)
		tape.Backward(loss)
		for _, p := range params {
			p.ZeroGrad()
		}
	}
}
