package embed

import (
	"math"
	"math/rand"
	"testing"

	"webbrief/internal/nn"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
)

func TestCountCooccurrences(t *testing.T) {
	docs := [][]int{{0, 1, 2}}
	x := countCooccurrences(docs, 2)
	// (0,1) at distance 1 → weight 1, symmetric.
	if x[[2]int{0, 1}] != 1 || x[[2]int{1, 0}] != 1 {
		t.Fatalf("adjacent: %v", x)
	}
	// (0,2) at distance 2 → weight 0.5.
	if x[[2]int{0, 2}] != 0.5 {
		t.Fatalf("distance-2: %v", x)
	}
	// Window limit.
	x2 := countCooccurrences([][]int{{0, 1, 2, 3}}, 1)
	if _, ok := x2[[2]int{0, 2}]; ok {
		t.Fatal("window not respected")
	}
}

func TestCountCooccurrencesAccumulates(t *testing.T) {
	docs := [][]int{{0, 1}, {0, 1}, {0, 1}}
	x := countCooccurrences(docs, 2)
	if x[[2]int{0, 1}] != 3 {
		t.Fatalf("accumulation: %v", x[[2]int{0, 1}])
	}
}

// buildSyntheticCorpus creates two "domains" of words that co-occur within
// but not across domains; GloVe must place same-domain words closer.
func buildSyntheticCorpus(rng *rand.Rand) [][]int {
	var docs [][]int
	for d := 0; d < 200; d++ {
		var doc []int
		base := 0
		if d%2 == 1 {
			base = 5
		}
		for i := 0; i < 12; i++ {
			doc = append(doc, base+rng.Intn(5))
		}
		docs = append(docs, doc)
	}
	return docs
}

// cosine is the cosine similarity of rows i and j of m.
func cosine(m *tensor.Matrix, i, j int) float64 {
	a, b := m.Row(i), m.Row(j)
	var dot, na, nb float64
	for k := range a {
		dot += a[k] * b[k]
		na += a[k] * a[k]
		nb += b[k] * b[k]
	}
	return dot / math.Sqrt(na*nb)
}

func TestTrainGloVeSemanticStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	docs := buildSyntheticCorpus(rng)
	cfg := DefaultGloVeConfig(16)
	vecs := TrainGloVe(docs, 10, cfg)
	if vecs.Rows != 10 || vecs.Cols != 16 {
		t.Fatalf("shape %dx%d", vecs.Rows, vecs.Cols)
	}
	// Words 0..4 co-occur; words 5..9 co-occur; cross-domain pairs never do.
	within := (cosine(vecs, 0, 1) + cosine(vecs, 5, 6)) / 2
	across := (cosine(vecs, 0, 5) + cosine(vecs, 1, 6)) / 2
	if within <= across {
		t.Fatalf("GloVe failed to separate domains: within=%v across=%v", within, across)
	}
}

func TestTrainGloVeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	docs := buildSyntheticCorpus(rng)
	cfg := DefaultGloVeConfig(8)
	cfg.Epochs = 2
	a := TrainGloVe(docs, 10, cfg)
	b := TrainGloVe(docs, 10, cfg)
	if !a.Equal(b, 0) {
		t.Fatal("GloVe training not deterministic for a fixed seed")
	}
}

func TestPretrainMLMReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vocab := 30
	// Highly predictable sequences: token i+1 follows token i.
	var docs [][]int
	for d := 0; d < 20; d++ {
		start := textproc.MaskID + 1 + rng.Intn(5)
		var doc []int
		for i := 0; i < 12; i++ {
			doc = append(doc, (start+i)%vocab)
			if doc[i] <= textproc.MaskID {
				doc[i] = textproc.MaskID + 1
			}
		}
		docs = append(docs, doc)
	}
	cfg := nn.TransformerConfig{Vocab: vocab, Dim: 16, Heads: 2, Layers: 1, FFDim: 32, MaxLen: 16}
	tr := nn.NewTransformer("mini", cfg, rng)

	short := DefaultMLMConfig()
	short.Steps = 20
	tr0 := nn.NewTransformer("mini0", cfg, rand.New(rand.NewSource(4)))
	early := PretrainMLM(tr0, docs, short)

	long := DefaultMLMConfig()
	long.Steps = 400
	late := PretrainMLM(tr, docs, long)
	if !(late < early) {
		t.Fatalf("MLM loss did not decrease: early=%v late=%v", early, late)
	}
	if math.IsNaN(late) || late > 3.0 {
		t.Fatalf("MLM failed to learn predictable corpus: %v", late)
	}
}

func BenchmarkTrainGloVe(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	docs := buildSyntheticCorpus(rng)
	cfg := DefaultGloVeConfig(16)
	cfg.Epochs = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TrainGloVe(docs, 10, cfg)
	}
}
