package wb

import (
	"math"

	"webbrief/internal/ag"
	"webbrief/internal/nn"
	"webbrief/internal/tensor"
)

// Mode selects forward-pass behaviour: Train enables dropout and decoder
// teacher forcing; Distill keeps teacher forcing but disables dropout (used
// for the frozen teacher and the student's distillation passes, where
// matched output distributions require matched decode paths); Eval decodes
// greedily with no dropout.
type Mode int

// Forward modes.
const (
	Train Mode = iota
	Distill
	Eval
)

// TeacherForced reports whether the mode decodes with gold topic inputs.
func (m Mode) TeacherForced() bool { return m == Train || m == Distill }

// OutputOf carries everything a forward pass produces. Heads a model does not
// implement are nil (e.g. a single-task extractor has no TopicLogits). The
// hidden representations are exposed because the distillation losses of
// §III-A/§III-B match them between teacher and student.
type OutputOf[T tensor.Float] struct {
	TokenH      *ag.NodeOf[T] // hidden token representations (H^T_c / C_E)
	SentH       *ag.NodeOf[T] // hidden sentence representations (C_G)
	TopicStates *ag.NodeOf[T] // decoder hidden topic representations (Q)
	TagLogits   *ag.NodeOf[T] // l×3 BIO logits
	SecLogits   *ag.NodeOf[T] // m×1 informative-section logits
	TopicLogits *ag.NodeOf[T] // teacher-forced decode logits (len(TopicIn)×vocab)
	Memory      *ag.NodeOf[T] // decoder attention memory for free decoding
	Dec         *nn.AttnDecoderOf[T]

	// Gaps is the thinnest gap of each kind of decision taken from this
	// output so far: the first decoding pass's by the forward, the tags' and
	// sections' by PredictTags and PredictSections, the topic's by
	// DecodeTopicBatch. Joint-WB's forward starts it at nn.NoGaps; an output
	// that leaves it zero reads as all ties.
	Gaps nn.Gaps
}

// ModelOf is the interface shared by Joint-WB and every baseline, and the
// contract the distillation framework trains against. The float32 student
// is a ModelOf[float32]: the same shape one element type down, which only
// ever sees Eval-mode forwards on no-gradient tapes.
type ModelOf[T tensor.Float] interface {
	nn.LayerOf[T]
	Name() string
	// Forward runs the model on one instance. In Train mode the decoder is
	// teacher-forced with inst.TopicIn; in Eval mode generation-dependent
	// signals use greedy decoding.
	Forward(t *ag.TapeOf[T], inst *Instance, mode Mode) *OutputOf[T]
}

// BatchForwarderOf is implemented by models whose Eval-mode forward can run
// over several instances at once with the recurrent encoders advanced in
// lockstep (see JointWBOf.ForwardBatchEval). The batch functions forward
// through it when present, a lone instance included; outs[i] must hold values
// identical to Forward(t, insts[i], Eval).
type BatchForwarderOf[T tensor.Float] interface {
	ModelOf[T]
	ForwardBatchEval(t *ag.TapeOf[T], insts []*Instance) []*OutputOf[T]
}

// The float64 instantiations: what every trainer, baseline and experiment
// names.
type (
	Output = OutputOf[float64]
	Model  = ModelOf[float64]
)

// Loss sums the supervised losses for whichever heads out provides: BIO
// cross-entropy for extraction, sequence cross-entropy for topic generation,
// and binary cross-entropy for section prediction — the joint objective
// L = CE(O_e, gt_e) + CE(O_g, gt_g) of §III-C with the section predictor's
// supervision made explicit.
func Loss(t *ag.Tape, out *Output, inst *Instance) *ag.Node {
	var terms []*ag.Node
	if out.TagLogits != nil {
		terms = append(terms, t.CrossEntropy(out.TagLogits, inst.Tags))
	}
	if out.TopicLogits != nil {
		terms = append(terms, t.CrossEntropy(out.TopicLogits, inst.TopicOut))
	}
	if out.SecLogits != nil {
		terms = append(terms, t.BCELoss(out.SecLogits, inst.SentInfo))
	}
	if len(terms) == 0 {
		panic("wb: model produced no supervised heads")
	}
	return t.AddScalars(terms...)
}

// PredictTags returns the argmax BIO tag sequence from an output, noting
// each token's top-1 − top-2 tag logit gap in out.Gaps.
func PredictTags[T tensor.Float](out *OutputOf[T]) []int {
	if out.TagLogits == nil {
		return nil
	}
	tags := make([]int, out.TagLogits.Rows())
	for i := range tags {
		tag, gap := nn.ArgmaxGap(out.TagLogits.Value.Row(i))
		tags[i] = tag
		out.Gaps.Note(nn.GapTag, gap)
	}
	return tags
}

// PredictSections thresholds the section logits at 0.5 probability, noting
// each sentence's |logit|, its distance from the threshold, in out.Gaps.
func PredictSections[T tensor.Float](out *OutputOf[T]) []int {
	if out.SecLogits == nil {
		return nil
	}
	secs := make([]int, out.SecLogits.Rows())
	for i := range secs {
		x := out.SecLogits.Value.At(i, 0)
		if x >= 0 { // sigmoid(x) >= 0.5 ⟺ x >= 0
			secs[i] = 1
		}
		out.Gaps.Note(nn.GapSection, math.Abs(float64(x)))
	}
	return secs
}

// GenerateTopic decodes a topic phrase of at most maxLen tokens from a model
// by beam search at beamWidth (at least 1): one forward, a batch of one on a
// borrowed workspace. It returns nil if the model has no generator head.
func GenerateTopic(m Model, inst *Instance, beamWidth, maxLen int) []int {
	s := scratchPool.Get().(*BatchScratchOf[float64])
	defer scratchPool.Put(s)
	ids, _ := decodeTopics(forwardEval(m, []*Instance{inst}, s), beamWidth, maxLen, s)
	return ids[0]
}

// sentProbsToTokens expands per-sentence probabilities (m×1) to per-token
// rows (l×1) using the instance's sentence index, the Φ injection of
// §III-C that broadcasts the section signal onto token positions.
func sentProbsToTokens[T tensor.Float](t *ag.TapeOf[T], sentProbs *ag.NodeOf[T], inst *Instance) *ag.NodeOf[T] {
	return t.GatherRows(sentProbs, inst.SentOf)
}

// softmaxOverRows applies a softmax across the ROWS of a column vector
// (l×1), i.e. a distribution over positions. tensor softmax is row-wise
// over columns, so transpose around it.
func softmaxOverRows[T tensor.Float](t *ag.TapeOf[T], col *ag.NodeOf[T]) *ag.NodeOf[T] {
	return t.Transpose(t.SoftmaxRows(t.Transpose(col)))
}

// zeroRow returns a constant 1×dim zero row used to pad Markov-dependency
// neighbours at document boundaries. It draws from the tape arena so the
// inference fast path stays allocation-free.
func zeroRow[T tensor.Float](t *ag.TapeOf[T], dim int) *ag.NodeOf[T] {
	return t.Const(t.AllocValue(1, dim))
}

// rowSum reduces each row of a to a single column (l×1) by multiplying with
// a ones vector.
func rowSum[T tensor.Float](t *ag.TapeOf[T], a *ag.NodeOf[T]) *ag.NodeOf[T] {
	return t.MatMul(a, t.Const(onesCol(t, a.Cols())))
}

// onesCol returns an n×1 all-ones matrix from the tape arena, used to
// broadcast a 1×d row to n rows via matrix product.
func onesCol[T tensor.Float](t *ag.TapeOf[T], n int) *tensor.MatrixOf[T] {
	ones := t.AllocValue(n, 1)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	return ones
}
