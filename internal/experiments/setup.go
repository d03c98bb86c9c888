// Package experiments regenerates every table of the paper's evaluation
// (§IV): Table IV (distillation variants for topic generation), Table V
// (distillation across teacher models), Tables VI/VII (single-task baselines
// vs Joint-WB), Tables VIII/IX (joint baselines vs Joint-WB), Table X
// (simulated human evaluation), the dataset-quality study (§IV-A2) and the
// content-sensitivity study (§IV-D).
//
// A Setup is built once per run — corpus, vocabulary, pre-trained GloVe
// vectors, MLM-pre-trained MiniBERT/MiniBERTSUM weights, and the splits —
// then individual table drivers train the systems they need and return a
// rendered Table plus the raw numbers.
package experiments

import (
	"fmt"
	"math/rand"

	"webbrief/internal/corpus"
	"webbrief/internal/embed"
	"webbrief/internal/nn"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

// Scale selects an experiment size.
type Scale int

// Scales: Smoke for tests and benchmarks, Full for the reported numbers.
const (
	// ScaleSmoke is sized so every table finishes in seconds; the numbers
	// are noisy but every code path runs.
	ScaleSmoke Scale = iota
	// ScaleFull is the run EXPERIMENTS.md's tables quote (results_full.txt):
	// all 24 domains, the scaled model sizes, and enough epochs to converge.
	ScaleFull
)

// Options configures an experiment run.
type Options struct {
	Scale          Scale
	Seed           int64
	SeenDomains    int
	UnseenDomains  int
	PagesPerDomain int
	EmbDim         int // GloVe / transformer width
	Hidden         int // LSTM hidden per direction
	TeacherEpochs  int
	BaselineEpochs int
	DistillEpochs  int
	MLMSteps       int
	BeamWidth      int
	TopicLen       int
	BatchSize      int // gradient-accumulation batch for all trainers
	Workers        int // data-parallel training fan-out; 0 = GOMAXPROCS
}

// DefaultOptions returns the options for a scale.
func DefaultOptions(s Scale) Options {
	switch s {
	case ScaleFull:
		return Options{
			Scale: s, Seed: 1,
			SeenDomains: 16, UnseenDomains: 8, PagesPerDomain: 12,
			EmbDim: 16, Hidden: 16,
			TeacherEpochs: 30, BaselineEpochs: 30, DistillEpochs: 15,
			MLMSteps: 300, BeamWidth: 4, TopicLen: 4,
		}
	default:
		return Options{
			Scale: s, Seed: 1,
			SeenDomains: 3, UnseenDomains: 2, PagesPerDomain: 4,
			EmbDim: 12, Hidden: 8,
			TeacherEpochs: 4, BaselineEpochs: 4, DistillEpochs: 3,
			MLMSteps: 30, BeamWidth: 2, TopicLen: 4,
		}
	}
}

// Setup is the shared state of one experiment run.
type Setup struct {
	Opt   Options
	DS    *corpus.Dataset
	Vocab *textproc.Vocab

	// Seen-domain splits (Tables VI–IX train/test here).
	SeenTrain, SeenDev, SeenTest []*wb.Instance
	// Unseen-domain splits.
	UnseenTrain, UnseenDev, UnseenTest []*wb.Instance
	// AllTrain is the distillation corpus: train pages of all r+k topics.
	AllTrain []*wb.Instance

	gloveVectors *tensor.Matrix
	bertProto    *wb.BERTEncoder // MLM-pretrained, segments off
	bertsumProto *wb.BERTEncoder // MLM-pretrained, segments on

	cache  map[string]wb.Model // trained systems shared across tables
	encSeq int64               // distinct seed per encoder instantiation
}

// NewSetup generates the corpus, trains the shared embeddings, and
// pre-trains the MiniBERT prototypes.
func NewSetup(opt Options) (*Setup, error) {
	ds, err := corpus.Generate(corpus.Config{
		Seed:           opt.Seed,
		PagesPerDomain: opt.PagesPerDomain,
		SeenDomains:    opt.SeenDomains,
		UnseenDomains:  opt.UnseenDomains,
	})
	if err != nil {
		return nil, err
	}
	v := corpus.BuildVocab(ds.Pages)
	s := &Setup{Opt: opt, DS: ds, Vocab: v}

	seenPages := ds.PagesOf(ds.IsSeen)
	unseenPages := ds.PagesOf(func(d string) bool { return !ds.IsSeen(d) })
	sTr, sDe, sTe := corpus.Split(seenPages, opt.Seed+100)
	uTr, uDe, uTe := corpus.Split(unseenPages, opt.Seed+200)
	s.SeenTrain = wb.NewInstances(sTr, v, 0)
	s.SeenDev = wb.NewInstances(sDe, v, 0)
	s.SeenTest = wb.NewInstances(sTe, v, 0)
	s.UnseenTrain = wb.NewInstances(uTr, v, 0)
	s.UnseenDev = wb.NewInstances(uDe, v, 0)
	s.UnseenTest = wb.NewInstances(uTe, v, 0)
	s.AllTrain = append(append([]*wb.Instance{}, s.SeenTrain...), s.UnseenTrain...)

	// GloVe vectors over the full corpus.
	docs := tokenDocs(ds.Pages, v)
	gcfg := embed.DefaultGloVeConfig(opt.EmbDim)
	gcfg.Seed = opt.Seed
	if opt.Scale == ScaleSmoke {
		gcfg.Epochs = 2
	}
	s.gloveVectors = embed.TrainGloVe(docs, v.Size(), gcfg)

	// MLM-pretrained transformer prototypes.
	mlm := embed.DefaultMLMConfig()
	mlm.Steps = opt.MLMSteps
	mlm.Seed = opt.Seed
	s.bertProto = wb.NewBERTEncoder("bertProto", s.transformerConfig(), false, rand.New(rand.NewSource(opt.Seed+1)))
	embed.PretrainMLM(s.bertProto.Tr, docs, mlm)
	s.bertsumProto = wb.NewBERTEncoder("bertsumProto", s.transformerConfig(), true, rand.New(rand.NewSource(opt.Seed+2)))
	embed.PretrainMLM(s.bertsumProto.Tr, docs, mlm)
	return s, nil
}

// transformerConfig sizes MiniBERT for this run.
func (s *Setup) transformerConfig() nn.TransformerConfig {
	return nn.TransformerConfig{
		Vocab: s.Vocab.Size(), Dim: s.Opt.EmbDim, Heads: 2, Layers: 1,
		FFDim: 2 * s.Opt.EmbDim, MaxLen: 64, Segments: 2,
	}
}

// tokenDocs flattens pages to token-id documents for embedding training.
func tokenDocs(pages []*corpus.Page, v *textproc.Vocab) [][]int {
	var docs [][]int
	for _, p := range pages {
		var doc []int
		for _, sent := range p.Sentences {
			doc = append(doc, v.IDs(sent.Tokens)...)
		}
		docs = append(docs, doc)
	}
	return docs
}

// nextSeed returns a fresh deterministic seed for a new encoder or model.
func (s *Setup) nextSeed() int64 {
	s.encSeq++
	return s.Opt.Seed*1000 + s.encSeq
}

// EncKind names a document-encoder regime.
type EncKind int

// Encoder regimes of §IV-A6.
const (
	EncGloVe EncKind = iota
	EncBERT
	EncBERTSUM
)

// String returns the paper's name for the regime.
func (k EncKind) String() string {
	switch k {
	case EncGloVe:
		return "GloVe"
	case EncBERT:
		return "BERT"
	default:
		return "BERTSUM"
	}
}

// NewEncoder instantiates a fresh fine-tunable encoder of the given kind,
// initialised from the shared pre-trained weights.
func (s *Setup) NewEncoder(kind EncKind) wb.DocEncoder {
	seed := s.nextSeed()
	switch kind {
	case EncGloVe:
		return wb.NewGloVeEncoder(s.gloveVectors)
	case EncBERT:
		enc := wb.NewBERTEncoder(fmt.Sprintf("bert%d", seed), s.transformerConfig(), false, rand.New(rand.NewSource(seed)))
		nn.CopyParams(enc, s.bertProto)
		return enc
	default:
		enc := wb.NewBERTEncoder(fmt.Sprintf("bertsum%d", seed), s.transformerConfig(), true, rand.New(rand.NewSource(seed)))
		nn.CopyParams(enc, s.bertsumProto)
		return enc
	}
}

// TrainCfg returns the training configuration with the given epoch count.
func (s *Setup) TrainCfg(epochs int) wb.TrainConfig {
	tc := wb.DefaultTrainConfig()
	tc.Epochs = epochs
	tc.Seed = s.Opt.Seed
	tc.BatchSize = s.Opt.BatchSize
	tc.Workers = s.Opt.Workers
	return tc
}

// NewJointWB builds a fresh Joint-WB model (MiniBERTSUM encoder, as in the
// paper, which builds Joint-WB on BERT_base with BERTSUM document encoding).
func (s *Setup) NewJointWB() *wb.JointWB {
	cfg := wb.Config{
		Hidden: s.Opt.Hidden, Dropout: 0.2,
		BeamSize: s.Opt.BeamWidth, TopicLen: s.Opt.TopicLen, Seed: s.nextSeed(),
	}
	return wb.NewJointWB("Joint-WB", s.NewEncoder(EncBERTSUM), s.Vocab.Size(), cfg)
}

// SeenTopicIDs returns the seen-domain topic phrases in token-id form — the
// stored knowledge the identification distillation uses.
func (s *Setup) SeenTopicIDs() [][]int {
	var out [][]int
	for _, name := range s.DS.Seen {
		out = append(out, s.Vocab.IDs(corpus.DomainByName(name).Topic))
	}
	return out
}
