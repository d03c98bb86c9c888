package wb

import (
	"math/rand"

	"webbrief/internal/ag"
	"webbrief/internal/nn"
	"webbrief/internal/tensor"
)

// DocEncoderOf produces the contextual embeddings every model is built on:
// token representations C (one row per token) and sentence representations
// C⁰ (one row per sentence). The three implementations correspond to the
// paper's embedding regimes (§IV-A6): GloVe (context-independent), MiniBERT
// (context-dependent) and MiniBERTSUM (context-dependent with per-sentence
// [CLS] collection and interval segments).
type DocEncoderOf[T tensor.Float] interface {
	nn.LayerOf[T]
	// EncodeDoc returns (token reps, sentence reps) for the instance.
	EncodeDoc(t *ag.TapeOf[T], inst *Instance) (tok, sent *ag.NodeOf[T])
	// Dim is the width of both representation matrices.
	Dim() int
}

// GloVeEncoderOf wraps fixed-initialised (pre-trained) word vectors. Sentence
// representations are the mean of the sentence's token embeddings, since a
// context-independent [CLS] vector carries no information. It is the one
// encoder regime with a float32 instantiation; the transformer encoders
// below are float64-only.
type GloVeEncoderOf[T tensor.Float] struct {
	Emb *nn.EmbeddingOf[T]
}

// The float64 instantiations.
type (
	DocEncoder   = DocEncoderOf[float64]
	GloVeEncoder = GloVeEncoderOf[float64]
)

// NewGloVeEncoder builds the encoder around a pre-trained vocab×dim matrix
// (see embed.TrainGloVe). The matrix is fine-tuned during task training,
// matching the GloVe→* baselines.
func NewGloVeEncoder(vectors *tensor.Matrix) *GloVeEncoder {
	return &GloVeEncoder{Emb: nn.EmbeddingFromMatrix("glove", vectors.Clone())}
}

// Params implements nn.Layer.
func (g *GloVeEncoderOf[T]) Params() []*ag.ParamOf[T] { return g.Emb.Params() }

// Dim implements DocEncoder.
func (g *GloVeEncoderOf[T]) Dim() int { return g.Emb.Dim() }

// EncodeDoc implements DocEncoder.
func (g *GloVeEncoderOf[T]) EncodeDoc(t *ag.TapeOf[T], inst *Instance) (tok, sent *ag.NodeOf[T]) {
	tok = g.Emb.Forward(t, inst.IDs)
	sent = t.MatMul(t.Const(meanPoolMatrix(t, inst)), tok)
	return tok, sent
}

// meanPoolMatrix builds the m×l averaging matrix whose row j averages the
// token positions of sentence j. Both the matrix and the count scratch come
// from the tape arena, keeping the encoder forward allocation-free. Token
// counts per sentence are small integers, exactly representable in either
// element type.
func meanPoolMatrix[T tensor.Float](t *ag.TapeOf[T], inst *Instance) *tensor.MatrixOf[T] {
	m := t.AllocValue(inst.NumSents(), inst.NumTokens())
	counts := t.AllocValue(1, inst.NumSents()).Data
	for _, s := range inst.SentOf {
		counts[s]++
	}
	for i, s := range inst.SentOf {
		m.Set(s, i, 1/counts[s])
	}
	return m
}

// BERTEncoder is the MiniBERT regime: a transformer over the flat token
// stream (windowed past MaxLen), with sentence representations read from the
// [CLS] positions.
type BERTEncoder struct {
	Tr          *nn.Transformer
	UseSegments bool // BERTSUM's alternating interval segments
}

// NewBERTEncoder builds a MiniBERT document encoder.
func NewBERTEncoder(name string, cfg nn.TransformerConfig, useSegments bool, rng *rand.Rand) *BERTEncoder {
	return &BERTEncoder{Tr: nn.NewTransformer(name, cfg, rng), UseSegments: useSegments}
}

// Params implements nn.Layer.
func (b *BERTEncoder) Params() []*ag.Param { return b.Tr.Params() }

// Dim implements DocEncoder.
func (b *BERTEncoder) Dim() int { return b.Tr.Config.Dim }

// EncodeDoc implements DocEncoder.
func (b *BERTEncoder) EncodeDoc(t *ag.Tape, inst *Instance) (tok, sent *ag.Node) {
	var segs []int
	if b.UseSegments {
		segs = inst.Segments
	}
	tok = b.Tr.EncodeWindows(t, inst.IDs, segs)
	sent = t.GatherRows(tok, inst.ClsIdx)
	return tok, sent
}
