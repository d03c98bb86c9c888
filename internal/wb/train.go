package wb

import (
	"math"
	"math/rand"
	"runtime"
	"sync"

	"webbrief/internal/ag"
	"webbrief/internal/eval"
	"webbrief/internal/opt"
	"webbrief/internal/textproc"
)

// TrainConfig controls supervised training of any Model.
type TrainConfig struct {
	Epochs     int
	LR         float64
	Clip       float64 // max gradient norm (paper: 0.1 clipping)
	Warmup     int     // linear warmup steps (paper: 2000, scaled here)
	DecayRate  float64 // multiplicative LR decay (paper: 0.1); 0 disables
	DecayEvery int     // steps between decays; 0 disables
	BatchSize  int     // gradient-accumulation batch (paper: 16 / 4); ≤1 = per example
	// Workers fans the forward+backward passes of each batch across
	// goroutines: 0 = GOMAXPROCS, 1 = the sequential reference
	// implementation. Results are deterministic for a fixed Workers value
	// regardless of scheduling, and match the sequential reference to
	// float-reassociation error (≤1e-9 on smoke scales).
	Workers int
	Seed    int64
}

// DefaultTrainConfig returns the paper's optimizer setting scaled to the
// corpus: Adam β1=0.9 β2=0.999, gradient clipping, linear warmup.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 3, LR: 5e-3, Clip: 1.0, Warmup: 50, Seed: 1}
}

// workerCount resolves the configured fan-out.
func (tc TrainConfig) workerCount() int {
	if tc.Workers > 0 {
		return tc.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// exampleSeed derives the per-example rng seed from the base seed, epoch and
// shuffle position — never from worker identity — so dropout masks are
// identical for every Workers setting (splitmix64-style mixing).
func exampleSeed(seed int64, epoch, pos int) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(epoch)*0xBF58476D1CE4E5B9 + uint64(pos+1)*0x94D049BB133111EB
	h ^= h >> 31
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 32
	return int64(h)
}

// TrainEpochs is the data-parallel training engine shared by TrainModel,
// TrainModelEarlyStop and the distillation trainers. Each epoch it shuffles
// [0, n) with tc.Seed, partitions the order into gradient-accumulation
// batches of tc.BatchSize, and takes one optimizer step per batch. Within a
// batch, the forward+backward passes fan out across tc.Workers goroutines:
// worker w owns batch positions ≡ w (mod workers) in increasing order, each
// on its own arena tape with a private gradient shard, and the shards are
// merged into Param.Grad in worker order before the step — a fixed merge
// order, so training is bit-for-bit reproducible for a given Workers value
// no matter how goroutines are scheduled.
//
// lossFn must record the loss of example idx on tape t and return it. With
// Workers > 1 it is called from multiple goroutines concurrently and must
// treat shared state (the model, the instances) as read-only; per-example
// randomness should come from the tape rng (see Tape.SetRand), which the
// engine seeds from (tc.Seed, epoch, position).
//
// Every example's loss is scaled by the actual size of its batch — including
// a trailing partial batch — so the final Adam step of an epoch is weighted
// exactly like the others.
//
// after, if non-nil, runs at the end of each epoch with the mean training
// loss; returning false stops training early. It returns per-epoch mean
// losses, summed in shuffle-position order so the reported loss is also
// scheduling-independent.
func TrainEpochs(optim opt.Optimizer, params []*ag.Param, n int, tc TrainConfig,
	lossFn func(t *ag.Tape, idx int) *ag.Node,
	after func(epoch int, mean float64) bool) []float64 {
	if n == 0 {
		return nil
	}
	batch := tc.BatchSize
	if batch < 1 {
		batch = 1
	}
	workers := tc.workerCount()
	if workers > batch {
		workers = batch
	}

	tapes := make([]*ag.Tape, workers)
	sinks := make([]*ag.GradSink, workers)
	rngs := make([]*rand.Rand, workers)
	for w := range tapes {
		tapes[w] = ag.NewArenaTape()
		sinks[w] = ag.NewGradSink()
		tapes[w].SetSink(sinks[w])
		// The initial seed is immediately overridden per example inside
		// runSpan; derive it from the config seed anyway so no RNG in the
		// engine ever starts from a hard-coded constant.
		rngs[w] = rand.New(rand.NewSource(exampleSeed(tc.Seed, 0, w)))
		tapes[w].SetRand(rngs[w])
	}

	shuffle := rand.New(rand.NewSource(tc.Seed))
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	lossAt := make([]float64, n)

	var losses []float64
	for epoch := 0; epoch < tc.Epochs; epoch++ {
		shuffle.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		// runSpan computes loss and sharded gradients for positions
		// pos ≡ w (mod workers) within [start, end) on worker w's tape.
		runSpan := func(w, start, end int, scale float64) {
			t := tapes[w]
			for pos := start + w; pos < end; pos += workers {
				idx := order[pos]
				t.Reset()
				rngs[w].Seed(exampleSeed(tc.Seed, epoch, pos))
				loss := lossFn(t, idx)
				lossAt[pos] = loss.Value.Data[0]
				// Gradient accumulation: average the batch by scaling each
				// example's loss before Backward, then one step per batch.
				t.Backward(t.Scale(loss, scale))
			}
		}
		for start := 0; start < n; start += batch {
			end := start + batch
			if end > n {
				end = n
			}
			// Scale by the batch actually taken, so a trailing partial
			// batch is not under-weighted.
			scale := 1 / float64(end-start)
			if workers == 1 || end-start == 1 {
				runSpan(0, start, end, scale)
			} else {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						runSpan(w, start, end, scale)
					}(w)
				}
				wg.Wait()
			}
			for _, s := range sinks {
				s.MergeInto(params)
			}
			optim.Step()
		}
		var sum float64
		for _, l := range lossAt {
			sum += l
		}
		mean := sum / float64(n)
		losses = append(losses, mean)
		if after != nil && !after(epoch, mean) {
			break
		}
	}
	return losses
}

// TrainModel trains m on insts with gradient-accumulation batches fanned
// across tc.Workers goroutines and returns the mean training loss of each
// epoch. Page order is reshuffled every epoch with the config seed.
func TrainModel(m Model, insts []*Instance, tc TrainConfig) []float64 {
	optim := newOptimizer(m, tc)
	return TrainEpochs(optim, m.Params(), len(insts), tc, func(t *ag.Tape, idx int) *ag.Node {
		out := m.Forward(t, insts[idx], Train)
		return Loss(t, out, insts[idx])
	}, nil)
}

// newOptimizer builds the Adam optimizer from a training configuration:
// the paper's warmup-then-decay schedule with global-norm clipping.
func newOptimizer(m Model, tc TrainConfig) *opt.Adam {
	optim := opt.NewAdam(m.Params(), tc.LR)
	optim.Clip = tc.Clip
	if tc.Warmup > 0 || tc.DecayEvery > 0 {
		optim.Schedule = opt.WarmupDecay{
			WarmupSteps: tc.Warmup,
			DecayRate:   tc.DecayRate,
			DecayEvery:  tc.DecayEvery,
		}
	}
	return optim
}

// DevLoss computes the mean supervised loss on a development set without
// updating parameters — the convergence signal for early stopping. The
// per-instance forwards run in parallel; the sum is taken in instance order
// so the result is deterministic.
func DevLoss(m Model, insts []*Instance) float64 {
	if len(insts) == 0 {
		return 0
	}
	losses := make([]float64, len(insts))
	parallelInstances(len(insts), func(i int) {
		s := scratchPool.Get().(*BatchScratchOf[float64])
		defer scratchPool.Put(s)
		s.Tape.Reset()
		out := m.Forward(s.Tape, insts[i], Distill) // teacher forcing, no dropout
		losses[i] = Loss(s.Tape, out, insts[i]).Value.Data[0]
	})
	var sum float64
	for _, l := range losses {
		sum += l
	}
	return sum / float64(len(insts))
}

// TrainModelEarlyStop trains like TrainModel — same batching and worker
// fan-out — but evaluates the development loss after every epoch and stops
// once it has not improved for patience consecutive epochs, the paper's
// early-stopping protocol (§IV-A5: "training is early stopped once
// convergence is determined on the development dataset"). It returns the
// per-epoch training losses and the number of epochs actually run.
//
//wbcheck:ignore deadexport -- paper component: DESIGN.md §3 Extensions, `wb.TrainModelEarlyStop` (the §IV-A5 dev-set early-stopping protocol)
func TrainModelEarlyStop(m Model, train, dev []*Instance, tc TrainConfig, patience int) (losses []float64, epochs int) {
	optim := newOptimizer(m, tc)
	best := math.Inf(1)
	bad := 0
	losses = TrainEpochs(optim, m.Params(), len(train), tc, func(t *ag.Tape, idx int) *ag.Node {
		out := m.Forward(t, train[idx], Train)
		return Loss(t, out, train[idx])
	}, func(epoch int, mean float64) bool {
		dl := DevLoss(m, dev)
		if dl < best-1e-6 {
			best = dl
			bad = 0
			return true
		}
		bad++
		return bad < patience
	})
	return losses, len(losses)
}

// evalEach hands fn the Eval output of every instance, fanned out over the
// CPUs: each forward is a batch of one on a borrowed workspace, and out dies
// when fn returns. Each index must write only its own result slot.
func evalEach(m Model, insts []*Instance, fn func(i int, out *Output)) {
	parallelInstances(len(insts), func(i int) {
		s := scratchPool.Get().(*BatchScratchOf[float64])
		defer scratchPool.Put(s)
		fn(i, forwardEval(m, insts[i:i+1], s)[0])
	})
}

// EvaluateExtraction scores m's attribute extraction on insts with strict
// span P/R/F1 (§IV-A4). Models without an extraction head score zero.
func EvaluateExtraction(m Model, insts []*Instance) eval.PRF1 {
	pred := make([][]eval.Span, len(insts))
	gold := make([][]eval.Span, len(insts))
	evalEach(m, insts, func(i int, out *Output) {
		pred[i] = eval.SpansFromBIO(PredictTags(out))
		gold[i] = eval.SpansFromBIO(insts[i].Tags)
	})
	return eval.SpanPRF1(pred, gold)
}

// ExtractionCorrect returns, per instance, whether the model's extraction
// was fully correct (all spans exact) — the paired-outcome input for
// McNemar's test.
func ExtractionCorrect(m Model, insts []*Instance) []bool {
	correct := make([]bool, len(insts))
	evalEach(m, insts, func(i int, out *Output) {
		p := eval.SpansFromBIO(PredictTags(out))
		g := eval.SpansFromBIO(insts[i].Tags)
		correct[i] = eval.SpansEqual(p, g)
	})
	return correct
}

// GeneratedTopics decodes the topic phrase for each instance and returns the
// generated and gold token strings side by side.
func GeneratedTopics(m Model, insts []*Instance, v *textproc.Vocab, beamWidth, maxLen int) (gen, gold [][]string) {
	gen = make([][]string, len(insts))
	gold = make([][]string, len(insts))
	parallelInstances(len(insts), func(i int) {
		ids := GenerateTopic(m, insts[i], beamWidth, maxLen)
		gen[i] = v.Tokens(ids)
		gold[i] = insts[i].Topic
	})
	return gen, gold
}

// EvaluateTopics scores topic generation with EM and RM (§IV-A4).
func EvaluateTopics(m Model, insts []*Instance, v *textproc.Vocab, beamWidth, maxLen int) (em, rm float64) {
	gen, gold := GeneratedTopics(m, insts, v, beamWidth, maxLen)
	return eval.TopicScores(gen, gold)
}

// TopicCorrect returns per-instance exact-match outcomes for McNemar pairing.
func TopicCorrect(m Model, insts []*Instance, v *textproc.Vocab, beamWidth, maxLen int) []bool {
	gen, gold := GeneratedTopics(m, insts, v, beamWidth, maxLen)
	out := make([]bool, len(gen))
	for i := range gen {
		out[i] = eval.ExactMatch(gen[i], gold[i])
	}
	return out
}

// EvaluateSections scores informative-section prediction accuracy (%). The
// per-instance forwards run in parallel; predictions are concatenated in
// instance order, so the score matches the sequential computation exactly.
func EvaluateSections(m Model, insts []*Instance) float64 {
	preds := make([][]int, len(insts))
	evalEach(m, insts, func(i int, out *Output) {
		preds[i] = PredictSections(out)
	})
	var pred, gold []int
	for i, inst := range insts {
		if preds[i] == nil {
			return 0 // model has no section head
		}
		pred = append(pred, preds[i]...)
		gold = append(gold, inst.SentInfo...)
	}
	return eval.Accuracy(pred, gold)
}
