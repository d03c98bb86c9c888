package wb

import (
	"math/rand"
	"testing"

	"webbrief/internal/ag"
	"webbrief/internal/eval"
	"webbrief/internal/tensor"
)

func TestAttributeLabelsInventory(t *testing.T) {
	labels := AttributeLabels()
	if len(labels) < 10 {
		t.Fatalf("only %d labels", len(labels))
	}
	seen := map[string]bool{}
	for i, l := range labels {
		if seen[l] {
			t.Fatalf("duplicate label %q", l)
		}
		seen[l] = true
		if i > 0 && labels[i-1] >= l {
			t.Fatal("labels not sorted")
		}
	}
	for _, want := range []string{"price", "author", "salary"} {
		if !seen[want] {
			t.Fatalf("missing label %q", want)
		}
	}
}

func TestNamerForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := NewAttrNamer("namer", []string{"a", "b", "c"}, 8, 50, rng)
	tp := ag.NewTape()
	tokenH := tp.Const(tensor.Randn(10, 8, 1, rng))
	ids := make([]int, 10)
	spans := []eval.Span{{Start: 0, End: 2}, {Start: 5, End: 6}}
	logits := n.Forward(tp, tokenH, ids, spans)
	if logits.Rows() != 2 || logits.Cols() != 3 {
		t.Fatalf("logits %dx%d", logits.Rows(), logits.Cols())
	}
	if n.LabelID("b") != 1 || n.LabelID("zzz") != -1 {
		t.Fatal("LabelID")
	}
}

func TestSpanPoolMatrixAverages(t *testing.T) {
	// Span [4,6) in 12 tokens pools over [2,8) with the ±2 context window.
	m := spanPoolMatrix([]eval.Span{{Start: 4, End: 6}}, 12)
	for j := 2; j < 8; j++ {
		if m.At(0, j) != 1.0/6 {
			t.Fatalf("pool weight at %d: %v", j, m.At(0, j))
		}
	}
	if m.At(0, 1) != 0 || m.At(0, 8) != 0 {
		t.Fatal("context window leaked")
	}
	// Clipping at document boundaries.
	m2 := spanPoolMatrix([]eval.Span{{Start: 0, End: 1}}, 2)
	if m2.At(0, 0) != 0.5 || m2.At(0, 1) != 0.5 {
		t.Fatalf("boundary clip: %v", m2)
	}
}

func TestNamerLearnsLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	insts, v := testData(t, 3, 6)
	m := newTestJointWB(v, 21)
	tc := DefaultTrainConfig()
	tc.Epochs = 15
	TrainModel(m, insts, tc)

	labels := AttributeLabels()
	rng := rand.New(rand.NewSource(22))
	namer := NewAttrNamer("namer", labels, 32, v.Size(), rng) // 2*hidden of the test model
	ntc := DefaultTrainConfig()
	ntc.Epochs = 20
	ntc.LR = 1e-2
	losses := TrainNamer(namer, m, insts, ntc)
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("namer loss not decreasing: %v", losses)
	}
	acc := EvaluateNamer(namer, m, insts)
	if acc < 70 {
		t.Fatalf("namer accuracy %.1f too low", acc)
	}
}

func TestNamerSkipsUnlabelledInstances(t *testing.T) {
	// Instances built from raw HTML have no Page and must be skipped
	// silently during namer training.
	_, v := testData(t, 1, 1)
	inst := InstanceFromHTML("<p>some page content here</p>", v, 0)
	m := newTestJointWB(v, 25)
	namer := NewAttrNamer("namer", AttributeLabels(), 32, v.Size(), rand.New(rand.NewSource(26)))
	tc := DefaultTrainConfig()
	tc.Epochs = 1
	losses := TrainNamer(namer, m, []*Instance{inst}, tc)
	if losses[0] != 0 {
		t.Fatalf("unlabelled-only training should produce zero loss, got %v", losses)
	}
}
