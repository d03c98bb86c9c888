// Package embed provides the two word-representation regimes the paper's
// baselines compare (§IV-A6): context-independent embeddings learned with
// the GloVe objective, and context-dependent embeddings from a MiniBERT
// transformer pre-trained with masked-language-model (MLM) self-supervision
// on the corpus.
package embed

import (
	"math"
	"math/rand"
	"sort"

	"webbrief/internal/ag"
	"webbrief/internal/nn"
	"webbrief/internal/opt"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
)

// GloVeConfig controls GloVe training.
type GloVeConfig struct {
	Dim    int     // embedding width
	Window int     // symmetric co-occurrence window
	XMax   float64 // weighting cutoff (GloVe's x_max, 100 in the paper)
	Alpha  float64 // weighting exponent (0.75)
	Epochs int
	LR     float64
	Seed   int64
}

// DefaultGloVeConfig returns the standard GloVe hyperparameters scaled to
// this corpus.
func DefaultGloVeConfig(dim int) GloVeConfig {
	return GloVeConfig{Dim: dim, Window: 4, XMax: 50, Alpha: 0.75, Epochs: 12, LR: 0.05, Seed: 1}
}

// cooc is a sparse co-occurrence accumulator.
type cooc map[[2]int]float64

// countCooccurrences accumulates distance-weighted co-occurrence counts over
// token-id documents, the GloVe statistic X_ij.
func countCooccurrences(docs [][]int, window int) map[[2]int]float64 {
	x := make(cooc)
	for _, doc := range docs {
		for i, wi := range doc {
			for d := 1; d <= window && i+d < len(doc); d++ {
				wj := doc[i+d]
				w := 1 / float64(d)
				x[[2]int{wi, wj}] += w
				x[[2]int{wj, wi}] += w
			}
		}
	}
	return x
}

// TrainGloVe learns vocabSize×dim word vectors from token-id documents by
// AdaGrad on the GloVe objective
//
//	J = Σ_ij f(X_ij) (w_i·w̃_j + b_i + b̃_j − log X_ij)²
//
// and returns the sum of the word and context matrices, GloVe's standard
// output.
func TrainGloVe(docs [][]int, vocabSize int, cfg GloVeConfig) *tensor.Matrix {
	rng := rand.New(rand.NewSource(cfg.Seed))
	x := countCooccurrences(docs, cfg.Window)
	pairs := make([]pair, 0, len(x))
	for ij, v := range x {
		pairs = append(pairs, pair{ij[0], ij[1], v})
	}
	// Deterministic order before shuffling with the seeded rng.
	sortPairs(pairs)

	scale := 0.5 / float64(cfg.Dim)
	w := tensor.Uniform(vocabSize, cfg.Dim, -scale, scale, rng)
	wc := tensor.Uniform(vocabSize, cfg.Dim, -scale, scale, rng)
	b := make([]float64, vocabSize)
	bc := make([]float64, vocabSize)
	// AdaGrad accumulators.
	gw := tensor.Full(vocabSize, cfg.Dim, 1e-8)
	gwc := tensor.Full(vocabSize, cfg.Dim, 1e-8)
	gb := make([]float64, vocabSize)
	gbc := make([]float64, vocabSize)
	for i := range gb {
		gb[i], gbc[i] = 1e-8, 1e-8
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
		for _, p := range pairs {
			wi := w.Row(p.i)
			wj := wc.Row(p.j)
			var dot float64
			for k := range wi {
				dot += wi[k] * wj[k]
			}
			diff := dot + b[p.i] + bc[p.j] - math.Log(p.x)
			f := 1.0
			if p.x < cfg.XMax {
				f = math.Pow(p.x/cfg.XMax, cfg.Alpha)
			}
			g := f * diff
			gwi := gw.Row(p.i)
			gwj := gwc.Row(p.j)
			for k := range wi {
				gradW := g * wj[k]
				gradC := g * wi[k]
				gwi[k] += gradW * gradW
				gwj[k] += gradC * gradC
				wi[k] -= cfg.LR * gradW / math.Sqrt(gwi[k])
				wj[k] -= cfg.LR * gradC / math.Sqrt(gwj[k])
			}
			gb[p.i] += g * g
			gbc[p.j] += g * g
			b[p.i] -= cfg.LR * g / math.Sqrt(gb[p.i])
			bc[p.j] -= cfg.LR * g / math.Sqrt(gbc[p.j])
		}
	}
	return w.Add(wc)
}

// pair is one nonzero co-occurrence cell.
type pair struct {
	i, j int
	x    float64
}

// sortPairs orders pairs deterministically (row-major) so training is
// reproducible regardless of map iteration order.
func sortPairs(pairs []pair) {
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].i != pairs[b].i {
			return pairs[a].i < pairs[b].i
		}
		return pairs[a].j < pairs[b].j
	})
}

// MLMConfig controls masked-language-model pre-training.
type MLMConfig struct {
	MaskProb float64 // fraction of positions masked (BERT uses 0.15)
	Steps    int     // number of documents processed
	LR       float64
	Seed     int64
}

// DefaultMLMConfig returns BERT-style MLM hyperparameters at corpus scale.
func DefaultMLMConfig() MLMConfig {
	return MLMConfig{MaskProb: 0.15, Steps: 300, LR: 1e-3, Seed: 1}
}

// PretrainMLM pre-trains tr in place on token-id documents with masked-token
// prediction, the self-supervision that makes MiniBERT a "pre-trained"
// context-dependent encoder before fine-tuning (the BERT→* and BERTSUM→*
// baselines fine-tune this). It returns the average loss of the final 10% of
// steps as a convergence signal.
func PretrainMLM(tr *nn.Transformer, docs [][]int, cfg MLMConfig) float64 {
	rng := rand.New(rand.NewSource(cfg.Seed))
	head := nn.NewLinear("mlm.head", tr.Config.Dim, tr.Config.Vocab, rng)
	params := append(tr.Params(), head.Params()...)
	optim := opt.NewAdam(params, cfg.LR)
	optim.Clip = 1.0

	var tail []float64
	for step := 0; step < cfg.Steps; step++ {
		doc := docs[rng.Intn(len(docs))]
		if len(doc) < 4 {
			continue
		}
		n := len(doc)
		if n > tr.Config.MaxLen {
			start := rng.Intn(n - tr.Config.MaxLen + 1)
			doc = doc[start : start+tr.Config.MaxLen]
			n = tr.Config.MaxLen
		}
		masked := make([]int, n)
		targets := make([]int, n)
		anyMasked := false
		for i, id := range doc {
			masked[i] = id
			targets[i] = -1
			if rng.Float64() < cfg.MaskProb {
				targets[i] = id
				anyMasked = true
				switch r := rng.Float64(); {
				case r < 0.8:
					masked[i] = textproc.MaskID
				case r < 0.9:
					masked[i] = rng.Intn(tr.Config.Vocab)
				}
			}
		}
		if !anyMasked {
			targets[0] = doc[0]
			masked[0] = textproc.MaskID
		}
		tp := ag.NewTape()
		h := tr.Encode(tp, masked, nil)
		loss := tp.CrossEntropy(head.Forward(tp, h), targets)
		tp.Backward(loss)
		optim.Step()
		if step >= cfg.Steps*9/10 {
			tail = append(tail, loss.Value.Data[0])
		}
	}
	if len(tail) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range tail {
		sum += v
	}
	return sum / float64(len(tail))
}
