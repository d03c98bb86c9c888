package wb

import (
	"reflect"
	"sync"
	"testing"
)

// TestCloneForServing checks the three properties serve.Pool relies on:
// clones brief byte-identically to the original, share the embedding table,
// and keep every other parameter private.
func TestCloneForServing(t *testing.T) {
	insts, v := testData(t, 2, 4)
	m := newTestJointWB(v, 51)
	tc := DefaultTrainConfig()
	tc.Epochs = 2
	TrainModel(m, insts, tc)

	clones, err := CloneManyForServing(m, v, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := clones[0]

	// Identical briefings on every instance.
	for i, inst := range insts {
		want := MakeBrief(m, inst, v, 2)
		got := MakeBrief(c, inst, v, 2)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("instance %d: clone brief diverges:\n orig %+v\nclone %+v", i, want, got)
		}
	}

	// The embedding matrix is aliased, not copied.
	om := m.Enc.(*GloVeEncoder).Emb.Table.Value
	cm := c.Enc.(*GloVeEncoder).Emb.Table.Value
	if om != cm {
		t.Fatal("clone must share the original's embedding matrix")
	}

	// All non-embedding parameters are private copies with equal values.
	op, cp := m.Params(), c.Params()
	if len(op) != len(cp) {
		t.Fatalf("param count: orig %d, clone %d", len(op), len(cp))
	}
	private := 0
	for i := range op {
		if op[i].Value == cp[i].Value {
			continue // the shared embedding
		}
		private++
		if !reflect.DeepEqual(op[i].Value.Data, cp[i].Value.Data) {
			t.Fatalf("param %d (%s): clone values diverge", i, op[i].Name)
		}
	}
	if private != len(op)-1 {
		t.Fatalf("expected exactly 1 shared parameter, got %d", len(op)-private)
	}
}

// TestCloneForServingConcurrent runs the original and clones side by side
// under the race detector: eval forwards on distinct replicas must not
// contend on anything, including the shared embedding.
func TestCloneForServingConcurrent(t *testing.T) {
	insts, v := testData(t, 2, 2)
	m := newTestJointWB(v, 7)

	clones, err := CloneManyForServing(m, v, 3)
	if err != nil {
		t.Fatal(err)
	}
	models := append([]*JointWB{m}, clones...)

	var wg sync.WaitGroup
	briefs := make([]*Brief, len(models))
	for i, mi := range models {
		wg.Add(1)
		go func(i int, mi *JointWB) {
			defer wg.Done()
			briefs[i] = MakeBrief(mi, insts[0], v, 2)
		}(i, mi)
	}
	wg.Wait()
	for i := 1; i < len(briefs); i++ {
		if !reflect.DeepEqual(briefs[0], briefs[i]) {
			t.Fatalf("replica %d briefs diverge", i)
		}
	}
}
