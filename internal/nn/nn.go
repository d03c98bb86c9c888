// Package nn provides the neural-network layers from which every model in
// this repository is assembled: linear projections, embeddings, LSTM and
// Bi-LSTM encoders (§III-C of the paper), bilinear attention (the dual-aware
// signal-exchange mechanisms), an attention decoder with beam search (the
// topic generator G), and a from-scratch transformer encoder that plays the
// role of BERT_base / BERTSUM at CPU-trainable scale.
//
// The layers the Joint-WB model is built from (Linear, Embedding, Bilinear,
// LSTM, BiLSTM, AttnDecoder and its beam searches) are generic over the
// element type, like the ag tape they run on: the float64 names are the
// instantiations training uses, and the float32 student is the same code
// instantiated at float32 from parameters converted with the Cast*
// functions. Constructors, LayerNorm and the transformer stay float64-only.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"webbrief/internal/ag"
	"webbrief/internal/tensor"
)

// LayerOf is anything exposing trainable parameters.
type LayerOf[T tensor.Float] interface {
	Params() []*ag.ParamOf[T]
}

// The float64 instantiations: what every trainer, baseline and experiment
// names.
type (
	Layer       = LayerOf[float64]
	Linear      = LinearOf[float64]
	Embedding   = EmbeddingOf[float64]
	Bilinear    = BilinearOf[float64]
	LSTM        = LSTMOf[float64]
	BiLSTM      = BiLSTMOf[float64]
	AttnDecoder = AttnDecoderOf[float64]
)

// CollectParams flattens the parameters of several layers, preserving order
// so optimizer state is stable across runs.
func CollectParams[T tensor.Float](layers ...LayerOf[T]) []*ag.ParamOf[T] {
	var out []*ag.ParamOf[T]
	for _, l := range layers {
		out = append(out, l.Params()...)
	}
	return out
}

// CopyParams copies parameter values from src into dst position-wise. Both
// layers must have identical architecture (same parameter count and
// shapes); it is how a pre-trained encoder is cloned into several models
// that each fine-tune their own copy.
func CopyParams(dst, src Layer) {
	dps, sps := dst.Params(), src.Params()
	if len(dps) != len(sps) {
		panic(fmt.Sprintf("nn: CopyParams count mismatch %d vs %d", len(dps), len(sps)))
	}
	for i, dp := range dps {
		sp := sps[i]
		if !dp.Value.SameShape(sp.Value) {
			panic(fmt.Sprintf("nn: CopyParams shape mismatch at %s/%s", dp.Name, sp.Name))
		}
		copy(dp.Value.Data, sp.Value.Data)
	}
}

// xavier returns the Glorot-uniform initialisation bound for a layer with
// the given fan-in and fan-out.
func xavier(in, out int) float64 { return math.Sqrt(6.0 / float64(in+out)) }

// LinearOf is a fully connected layer y = x·W + b.
type LinearOf[T tensor.Float] struct {
	W *ag.ParamOf[T] // in×out
	B *ag.ParamOf[T] // 1×out
}

// NewLinear returns a Glorot-initialised linear layer.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	bound := xavier(in, out)
	return &Linear{
		W: ag.NewParam(name+".W", tensor.Uniform(in, out, -bound, bound, rng)),
		B: ag.NewParam(name+".B", tensor.New(1, out)),
	}
}

// CastLinear returns an inference-only copy of l in element type D.
func CastLinear[D, S tensor.Float](l *LinearOf[S]) *LinearOf[D] {
	return &LinearOf[D]{W: ag.CastParam[D](l.W), B: ag.CastParam[D](l.B)}
}

// Forward applies the affine map to x (rows are examples or timesteps).
func (l *LinearOf[T]) Forward(t *ag.TapeOf[T], x *ag.NodeOf[T]) *ag.NodeOf[T] {
	return t.AddRowVector(t.MatMul(x, t.Use(l.W)), t.Use(l.B))
}

// Params implements Layer.
func (l *LinearOf[T]) Params() []*ag.ParamOf[T] { return []*ag.ParamOf[T]{l.W, l.B} }

// EmbeddingOf maps token ids to dense vectors via table lookup.
type EmbeddingOf[T tensor.Float] struct {
	Table *ag.ParamOf[T] // vocab×dim
}

// NewEmbedding returns an embedding table initialised from N(0, 0.1²).
func NewEmbedding(name string, vocab, dim int, rng *rand.Rand) *Embedding {
	return &Embedding{Table: ag.NewParam(name+".E", tensor.Randn(vocab, dim, 0.1, rng))}
}

// EmbeddingFromMatrix wraps a pre-trained matrix (e.g. GloVe vectors) as an
// embedding layer; the matrix continues to receive gradients (fine-tuning).
func EmbeddingFromMatrix(name string, m *tensor.Matrix) *Embedding {
	return &Embedding{Table: ag.NewParam(name+".E", m)}
}

// CastEmbedding returns an inference-only copy of e in element type D.
func CastEmbedding[D, S tensor.Float](e *EmbeddingOf[S]) *EmbeddingOf[D] {
	return &EmbeddingOf[D]{Table: ag.CastParam[D](e.Table)}
}

// Forward looks up the rows for ids, returning a len(ids)×dim node.
func (e *EmbeddingOf[T]) Forward(t *ag.TapeOf[T], ids []int) *ag.NodeOf[T] {
	checkIDs("embedding", ids, e.Table.Value.Rows)
	return t.Lookup(t.Use(e.Table), ids)
}

// checkIDs panics on an id outside a what of n rows.
func checkIDs(what string, ids []int, n int) {
	for _, id := range ids {
		if id < 0 || id >= n {
			panic(fmt.Sprintf("nn: %s id %d out of range [0,%d)", what, id, n))
		}
	}
}

// Params implements Layer.
func (e *EmbeddingOf[T]) Params() []*ag.ParamOf[T] { return []*ag.ParamOf[T]{e.Table} }

// Dim returns the embedding width.
func (e *EmbeddingOf[T]) Dim() int { return e.Table.Value.Cols }

// Vocab returns the number of rows in the table.
func (e *EmbeddingOf[T]) Vocab() int { return e.Table.Value.Rows }

// LayerNorm standardises each row and applies a learned gain and bias.
type LayerNorm struct {
	Gain *ag.Param // 1×dim
	Bias *ag.Param // 1×dim
	Eps  float64
}

// NewLayerNorm returns a layer norm with unit gain and zero bias.
func NewLayerNorm(name string, dim int) *LayerNorm {
	return &LayerNorm{
		Gain: ag.NewParam(name+".g", tensor.Full(1, dim, 1)),
		Bias: ag.NewParam(name+".b", tensor.New(1, dim)),
		Eps:  1e-5,
	}
}

// Forward applies normalisation to each row of x.
func (ln *LayerNorm) Forward(t *ag.Tape, x *ag.Node) *ag.Node {
	normed := t.RowNorm(x, ln.Eps)
	return t.AddRowVector(t.MulRowVector(normed, t.Use(ln.Gain)), t.Use(ln.Bias))
}

// Params implements Layer.
func (ln *LayerNorm) Params() []*ag.Param { return []*ag.Param{ln.Gain, ln.Bias} }

// BilinearOf computes attention scores a·W·bᵀ, the form used throughout the
// paper: A_T = softmax(H·W_AT·Rᵀ) for identification distillation and
// A_E = softmax(C_E·W_AE·Q) for the dual-aware mechanisms.
type BilinearOf[T tensor.Float] struct {
	W *ag.ParamOf[T] // dimA×dimB
}

// NewBilinear returns a Glorot-initialised bilinear form.
func NewBilinear(name string, dimA, dimB int, rng *rand.Rand) *Bilinear {
	bound := xavier(dimA, dimB)
	return &Bilinear{W: ag.NewParam(name+".W", tensor.Uniform(dimA, dimB, -bound, bound, rng))}
}

// CastBilinear returns an inference-only copy of bl in element type D.
func CastBilinear[D, S tensor.Float](bl *BilinearOf[S]) *BilinearOf[D] {
	return &BilinearOf[D]{W: ag.CastParam[D](bl.W)}
}

// Scores returns a·W·bᵀ with shape rowsA×rowsB.
func (bl *BilinearOf[T]) Scores(t *ag.TapeOf[T], a, b *ag.NodeOf[T]) *ag.NodeOf[T] {
	return t.MatMulTransB(t.MatMul(a, t.Use(bl.W)), b)
}

// Attention returns row-softmaxed scores.
func (bl *BilinearOf[T]) Attention(t *ag.TapeOf[T], a, b *ag.NodeOf[T]) *ag.NodeOf[T] {
	return t.SoftmaxRows(bl.Scores(t, a, b))
}

// Params implements Layer.
func (bl *BilinearOf[T]) Params() []*ag.ParamOf[T] { return []*ag.ParamOf[T]{bl.W} }
