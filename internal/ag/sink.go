package ag

import "webbrief/internal/tensor"

// GradSinkOf is a private gradient accumulator for one training worker. When
// attached to a tape with SetSink, Backward adds parameter gradients into
// the sink's per-parameter shard instead of the shared Param.Grad, so
// several workers can run backward passes concurrently over the same model
// without synchronisation. After the batch, MergeInto folds every shard into
// Param.Grad; calling it worker-by-worker in a fixed order makes the merged
// gradient — and therefore the whole training run — independent of goroutine
// scheduling.
//
// Shard matrices are allocated once per parameter and reused across steps
// (MergeInto zeroes them), so sinks add no steady-state allocation.
type GradSinkOf[T tensor.Float] struct {
	grads map[*ParamOf[T]]*tensor.MatrixOf[T]
	order []*ParamOf[T] // insertion order, so Reset never iterates the map
}

// NewGradSink returns an empty float64 sink.
func NewGradSink() *GradSink {
	return &GradSink{grads: make(map[*Param]*tensor.Matrix)}
}

// Grad returns the sink's gradient shard for p, allocating it (zeroed) on
// first use.
func (s *GradSinkOf[T]) Grad(p *ParamOf[T]) *tensor.MatrixOf[T] {
	g, ok := s.grads[p]
	if !ok {
		g = tensor.NewOf[T](p.Value.Rows, p.Value.Cols)
		s.grads[p] = g
		s.order = append(s.order, p)
	}
	return g
}

// MergeInto adds the shards into each parameter's Grad and zeroes them for
// the next batch. Iteration follows the caller's params order (not map
// order), so merging several sinks in worker order is fully deterministic.
func (s *GradSinkOf[T]) MergeInto(params []*ParamOf[T]) {
	for _, p := range params {
		if g, ok := s.grads[p]; ok {
			p.Grad.AddInPlace(g)
			g.Zero()
		}
	}
}
