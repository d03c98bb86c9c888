// Package ag implements tape-based reverse-mode automatic differentiation
// over tensor.MatrixOf values. It is the training engine underneath every
// model in this repository: the Joint-WB teacher, the distilled students,
// and all baselines.
//
// A Tape records operations as they execute. Each operation returns a *Node
// holding the forward value and a closure that propagates gradients to its
// inputs. Calling Tape.Backward(loss) seeds d(loss)/d(loss)=1 and runs the
// closures in reverse recording order, which is a valid topological order by
// construction.
//
// Model parameters live outside any tape as *Param values; Tape.Use enters a
// parameter into the current tape so that Backward accumulates into
// Param.Grad — or, when a GradSink is attached with SetSink, into the sink's
// per-tape gradient shard. Sinks are what make data-parallel training
// deterministic: each worker's tape accumulates privately and the shards are
// merged in a fixed order.
//
// Tapes come in two allocation regimes. NewTape builds every intermediate on
// the heap; its values may outlive the tape. NewArenaTape draws nodes,
// values and gradients from reusable arenas: after Reset the same memory
// backs the next step's graph, so steady-state training does near-zero heap
// allocation per step. Nothing recorded before a Reset may be used after it.
//
// The tape is generic over the element type: TapeOf[float64] (aliased Tape,
// with Node and Param) is the training engine and the teacher's inference
// tape; the distilled student runs the same ops on a no-gradient
// TapeOf[float32] (NewInferTapeOf). Losses and their reductions accumulate
// in float64 for both element types and float64 transcendentals are the
// library's, so for float64 every op is bit-for-bit what it was before the
// tape was generic; float32 σ and tanh are tensor's own (kernels32act.go).
package ag

import (
	"fmt"
	"math"
	"math/rand"

	"webbrief/internal/tensor"
)

// NodeOf is one value in the computation graph.
type NodeOf[T tensor.Float] struct {
	Value *tensor.MatrixOf[T]
	Grad  *tensor.MatrixOf[T] // allocated lazily on first gradient contribution
	back  func()              // propagates n.Grad into parents; nil for leaves
	t     *TapeOf[T]          // owning tape, for arena-backed gradient buffers
	gen   uint64              // tape generation at recording; wbdebug use-after-Reset check
}

// Rows returns the row count of the node's value.
func (n *NodeOf[T]) Rows() int { return n.Value.Rows }

// Cols returns the column count of the node's value.
func (n *NodeOf[T]) Cols() int { return n.Value.Cols }

func (n *NodeOf[T]) grad() *tensor.MatrixOf[T] {
	debugCheckNode(n, "gradient accumulation")
	if n.Grad == nil {
		if n.t != nil {
			n.Grad = n.t.alloc(n.Value.Rows, n.Value.Cols)
		} else {
			n.Grad = tensor.NewOf[T](n.Value.Rows, n.Value.Cols)
		}
	}
	return n.Grad
}

// CheckLive panics under `-tags wbdebug` when n was recorded before its
// tape's last Reset — its memory may already back another forward's graph —
// naming op as the offender; release builds compile it away. Gradient
// accumulation and Backward check themselves; this is for code that keeps
// nodes across calls on a no-gradient tape, where nothing else would notice
// (wb.DecodeTopicBatch decoding from an earlier ExtractBriefBatch's outputs).
func (n *NodeOf[T]) CheckLive(op string) { debugCheckNode(n, op) }

// addGrad accumulates g into n's gradient buffer.
func (n *NodeOf[T]) addGrad(g *tensor.MatrixOf[T]) { n.grad().AddInPlace(g) }

// ParamOf is a trainable parameter: a persistent value with a persistent
// gradient accumulator shared across tapes. Inference-only parameters (the
// float32 student's, see CastParam) carry a nil Grad.
type ParamOf[T tensor.Float] struct {
	Name  string
	Value *tensor.MatrixOf[T]
	Grad  *tensor.MatrixOf[T]
}

// Node, Param, Tape and GradSink are the float64 instantiations every
// training-side package uses.
type (
	Node     = NodeOf[float64]
	Param    = ParamOf[float64]
	Tape     = TapeOf[float64]
	GradSink = GradSinkOf[float64]
)

// NewParam creates a named parameter around v with a zeroed gradient.
func NewParam(name string, v *tensor.Matrix) *Param {
	return &Param{Name: name, Value: v, Grad: tensor.New(v.Rows, v.Cols)}
}

// CastParam returns an inference-only copy of p in element type D: the value
// rounded to nearest, no gradient buffer. It is how a trained float64 model
// becomes its float32 student.
func CastParam[D, S tensor.Float](p *ParamOf[S]) *ParamOf[D] {
	return &ParamOf[D]{Name: p.Name, Value: tensor.Cast[D](p.Value)}
}

// ZeroGrad clears the accumulated gradient.
func (p *ParamOf[T]) ZeroGrad() { p.Grad.Zero() }

// nodeBlock is how many Node structs each tape-owned block holds. Blocks are
// never reallocated, so *Node pointers stay valid across appends.
const nodeBlock = 256

// TapeOf records operations for reverse-mode differentiation.
type TapeOf[T tensor.Float] struct {
	nodes []*NodeOf[T]

	blocks [][]NodeOf[T] // node arena; reused across Reset
	blk    int
	blkOff int
	arena  *tensor.ArenaOf[T] // nil: plain heap allocation
	sink   *GradSinkOf[T]     // nil: Use accumulates into Param.Grad
	rng    *rand.Rand         // nil: Dropout uses the caller-provided rng
	nograd bool               // inference tape: ops record no backward closures
	gen    uint64             // bumped by Reset; wbdebug use-after-Reset check
}

// NewTape returns an empty heap-allocating tape. Values recorded on it may
// outlive the tape itself.
func NewTape() *Tape { return &Tape{} }

// NewArenaTape returns a tape whose nodes, intermediate values and gradient
// buffers are drawn from a private reusable arena. Call Reset between steps
// to reuse the memory; nothing recorded before a Reset may be referenced
// after it.
func NewArenaTape() *Tape { return &Tape{arena: tensor.NewArena()} }

// NewInferTapeOf returns an arena tape in no-gradient mode: ops compute
// forward values identically but record no backward closures, so a warm
// inference forward allocates nothing. Backward panics on such a tape.
// Inference workspaces (wb.BatchScratchOf) own one tape each.
func NewInferTapeOf[T tensor.Float]() *TapeOf[T] {
	return &TapeOf[T]{arena: tensor.NewArenaOf[T](), nograd: true}
}

// NoGrad reports whether this tape skips backward-closure recording.
func (t *TapeOf[T]) NoGrad() bool { return t.nograd }

// AllocValue returns a zeroed rows×cols matrix from the tape's arena (heap
// for plain tapes). It lets callers build constant inputs — mean-pooling
// weights, zero states, ones columns — in tape-lifetime memory instead of
// leaking per-call heap matrices. The matrix obeys tape lifetime: invalid
// after Reset.
func (t *TapeOf[T]) AllocValue(rows, cols int) *tensor.MatrixOf[T] { return t.alloc(rows, cols) }

// AllocValueUninit is AllocValue without the zeroing, for destinations every
// cell of which the caller writes before anything reads it — gathered rows,
// a fused cell's output states. Accumulators (tensor.MatMulInto) and zero
// states need AllocValue; see tensor.ArenaOf.AllocUninit.
func (t *TapeOf[T]) AllocValueUninit(rows, cols int) *tensor.MatrixOf[T] {
	return t.allocUninit(rows, cols)
}

// ViewValue returns a rows×cols matrix header whose backing storage IS data
// (no copy). The header comes from the tape's arena on arena tapes, so
// batched kernels can expose row windows of a shared slab — e.g. one beam's
// hidden state inside a B-row step output — without heap headers and without
// copying. The view aliases data for its whole lifetime and, like any
// AllocValue result, is invalid after Reset.
func (t *TapeOf[T]) ViewValue(rows, cols int, data []T) *tensor.MatrixOf[T] {
	if t.arena != nil {
		return t.arena.AllocShared(rows, cols, data)
	}
	if len(data) != rows*cols {
		panic("ag: ViewValue data length does not match shape")
	}
	return &tensor.MatrixOf[T]{Rows: rows, Cols: cols, Data: data}
}

// Reset clears the tape for reuse, rewinding the node and matrix arenas.
// The attached sink and rng are kept; recorded nodes become invalid.
func (t *TapeOf[T]) Reset() {
	t.nodes = t.nodes[:0]
	t.blk, t.blkOff = 0, 0
	if t.arena != nil {
		t.arena.Reset()
	}
	debugTapeReset(t)
}

// SetSink redirects parameter-gradient accumulation on this tape into s
// (nil restores direct accumulation into Param.Grad). Parallel training
// attaches one sink per worker so Backward never touches shared state.
func (t *TapeOf[T]) SetSink(s *GradSinkOf[T]) { t.sink = s }

// SetRand overrides the rng used by Dropout on this tape (nil restores the
// caller-provided rng). The training engine seeds this per example so that
// dropout masks are a function of (seed, epoch, position) alone — identical
// regardless of how examples are scheduled across workers.
func (t *TapeOf[T]) SetRand(rng *rand.Rand) { t.rng = rng }

// Len reports the number of recorded nodes, exported for tests and
// capacity diagnostics.
func (t *TapeOf[T]) Len() int { return len(t.nodes) }

// newNode allocates a fresh node from the tape's block arena and records it.
func (t *TapeOf[T]) newNode(v *tensor.MatrixOf[T]) *NodeOf[T] {
	if t.blk == len(t.blocks) {
		t.blocks = append(t.blocks, make([]NodeOf[T], nodeBlock))
	}
	blk := t.blocks[t.blk]
	n := &blk[t.blkOff]
	t.blkOff++
	if t.blkOff == len(blk) {
		t.blk++
		t.blkOff = 0
	}
	n.Value, n.Grad, n.back, n.t = v, nil, nil, t
	debugStampNode(t, n)
	t.nodes = append(t.nodes, n)
	return n
}

// alloc returns a zeroed matrix from the tape's arena, or the heap for
// plain tapes.
func (t *TapeOf[T]) alloc(rows, cols int) *tensor.MatrixOf[T] {
	if t.arena != nil {
		return t.arena.Alloc(rows, cols)
	}
	return tensor.NewOf[T](rows, cols)
}

// allocUninit is alloc for a value every cell of which the caller writes
// before anything reads it: on arena tapes the zeroing is skipped (and under
// `-tags wbdebug` replaced by NaN poison), plain tapes still get make's zeros.
// Gradient buffers and matmul accumulators need alloc.
func (t *TapeOf[T]) allocUninit(rows, cols int) *tensor.MatrixOf[T] {
	if t.arena != nil {
		return t.arena.AllocUninit(rows, cols)
	}
	return tensor.NewOf[T](rows, cols)
}

// scalar returns a recorded 1×1 node holding v.
func (t *TapeOf[T]) scalar(v float64) *NodeOf[T] {
	m := t.alloc(1, 1)
	m.Data[0] = T(v)
	return t.newNode(m)
}

// floats returns a zeroed scratch slice from the tape's arena.
func (t *TapeOf[T]) floats(n int) []T {
	if t.arena != nil {
		return t.arena.AllocFloats(n)
	}
	return make([]T, n)
}

// Const enters a constant matrix into the graph. No gradient flows into it.
func (t *TapeOf[T]) Const(v *tensor.MatrixOf[T]) *NodeOf[T] {
	return t.newNode(v)
}

// Use enters parameter p into the graph; Backward accumulates into p.Grad,
// or into the tape's sink when one is attached.
func (t *TapeOf[T]) Use(p *ParamOf[T]) *NodeOf[T] {
	n := t.newNode(p.Value)
	if t.nograd {
		return n
	}
	n.back = func() {
		if n.Grad == nil {
			return
		}
		if t.sink != nil {
			t.sink.Grad(p).AddInPlace(n.Grad)
		} else {
			p.Grad.AddInPlace(n.Grad)
		}
	}
	return n
}

// Backward runs reverse-mode accumulation from loss, which must be a 1×1
// node recorded on this tape.
func (t *TapeOf[T]) Backward(loss *NodeOf[T]) {
	if t.nograd {
		panic("ag: Backward on a no-gradient inference tape")
	}
	if loss.Value.Rows != 1 || loss.Value.Cols != 1 {
		panic(fmt.Sprintf("ag: Backward needs scalar loss, got %dx%d", loss.Value.Rows, loss.Value.Cols))
	}
	debugCheckNode(loss, "Backward")
	loss.grad().Data[0] = 1
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.back != nil && n.Grad != nil {
			n.back()
		}
	}
}

// --- Arithmetic -----------------------------------------------------------

// Add returns a + b (same shape).
func (t *TapeOf[T]) Add(a, b *NodeOf[T]) *NodeOf[T] {
	v := t.allocUninit(a.Value.Rows, a.Value.Cols)
	tensor.AddInto(v, a.Value, b.Value)
	n := t.newNode(v)
	if t.nograd {
		return n
	}
	n.back = func() {
		a.addGrad(n.Grad)
		b.addGrad(n.Grad)
	}
	return n
}

// Mul returns the elementwise product a ⊙ b.
func (t *TapeOf[T]) Mul(a, b *NodeOf[T]) *NodeOf[T] {
	v := t.allocUninit(a.Value.Rows, a.Value.Cols)
	tensor.MulInto(v, a.Value, b.Value)
	n := t.newNode(v)
	if t.nograd {
		return n
	}
	n.back = func() {
		ga := a.grad()
		gb := b.grad()
		for i, d := range n.Grad.Data {
			ga.Data[i] += d * b.Value.Data[i]
			gb.Data[i] += d * a.Value.Data[i]
		}
	}
	return n
}

// Scale returns s*a for a fixed scalar s.
func (t *TapeOf[T]) Scale(a *NodeOf[T], s T) *NodeOf[T] {
	v := t.allocUninit(a.Value.Rows, a.Value.Cols)
	tensor.ScaleInto(v, a.Value, s)
	n := t.newNode(v)
	if t.nograd {
		return n
	}
	n.back = func() { a.grad().AddScaledInPlace(n.Grad, s) }
	return n
}

// MatMul returns a·b.
func (t *TapeOf[T]) MatMul(a, b *NodeOf[T]) *NodeOf[T] {
	v := t.alloc(a.Value.Rows, b.Value.Cols)
	tensor.MatMulInto(v, a.Value, b.Value)
	n := t.newNode(v)
	if t.nograd {
		return n
	}
	n.back = func() {
		// dA = dC·Bᵀ ; dB = Aᵀ·dC
		ga := t.alloc(a.Value.Rows, a.Value.Cols)
		tensor.MatMulTransBInto(ga, n.Grad, b.Value)
		a.addGrad(ga)
		gb := b.grad()
		tensor.MatMulTransAInto(gb, a.Value, n.Grad)
	}
	return n
}

// MatMulOnto accumulates a·b onto dst — each cell continues, in ascending k,
// the sum dst already holds — through the kernel MatMul would use, and
// enters dst as a constant. It is how a folded input projection finishes:
// dst arrives holding the token-id half of [emb|ctx]·Wx (a table row) and
// leaves holding the whole product, bit for bit the one-pass sequence.
// No-gradient tapes only: nothing is recorded for dst's earlier contents.
func (t *TapeOf[T]) MatMulOnto(dst *tensor.MatrixOf[T], a, b *NodeOf[T]) *NodeOf[T] {
	if !t.nograd {
		panic("ag: MatMulOnto on a recording tape")
	}
	tensor.MatMulInto(dst, a.Value, b.Value)
	return t.newNode(dst)
}

// MatMulTransB returns a·bᵀ.
func (t *TapeOf[T]) MatMulTransB(a, b *NodeOf[T]) *NodeOf[T] {
	v := t.allocUninit(a.Value.Rows, b.Value.Rows)
	tensor.MatMulTransBInto(v, a.Value, b.Value)
	n := t.newNode(v)
	if t.nograd {
		return n
	}
	n.back = func() {
		// C = A·Bᵀ: dA = dC·B ; dB = dCᵀ·A
		ga := a.grad()
		tensor.MatMulInto(ga, n.Grad, b.Value)
		gb := b.grad()
		tensor.MatMulTransAInto(gb, n.Grad, a.Value)
	}
	return n
}

// AddRowVector adds the 1×cols vector v to every row of a.
func (t *TapeOf[T]) AddRowVector(a, v *NodeOf[T]) *NodeOf[T] {
	val := t.allocUninit(a.Value.Rows, a.Value.Cols)
	tensor.AddRowVectorInto(val, a.Value, v.Value)
	n := t.newNode(val)
	if t.nograd {
		return n
	}
	n.back = func() {
		a.addGrad(n.Grad)
		g := v.grad()
		for i := 0; i < n.Grad.Rows; i++ {
			row := n.Grad.Row(i)
			for j, x := range row {
				g.Data[j] += x
			}
		}
	}
	return n
}

// --- Nonlinearities -------------------------------------------------------

// Tanh applies tanh elementwise.
func (t *TapeOf[T]) Tanh(a *NodeOf[T]) *NodeOf[T] {
	val := t.allocUninit(a.Value.Rows, a.Value.Cols)
	tensor.TanhInto(val, a.Value)
	n := t.newNode(val)
	if t.nograd {
		return n
	}
	n.back = func() {
		g := a.grad()
		for i, y := range val.Data {
			g.Data[i] += n.Grad.Data[i] * (1 - y*y)
		}
	}
	return n
}

// Sigmoid applies the logistic function elementwise.
func (t *TapeOf[T]) Sigmoid(a *NodeOf[T]) *NodeOf[T] {
	val := t.allocUninit(a.Value.Rows, a.Value.Cols)
	tensor.SigmoidInto(val, a.Value)
	n := t.newNode(val)
	if t.nograd {
		return n
	}
	n.back = func() {
		g := a.grad()
		for i, y := range val.Data {
			g.Data[i] += n.Grad.Data[i] * y * (1 - y)
		}
	}
	return n
}

// ReLU applies max(0,x) elementwise.
func (t *TapeOf[T]) ReLU(a *NodeOf[T]) *NodeOf[T] {
	val := t.allocUninit(a.Value.Rows, a.Value.Cols)
	tensor.ReLUInto(val, a.Value)
	n := t.newNode(val)
	if t.nograd {
		return n
	}
	n.back = func() {
		g := a.grad()
		for i := range val.Data {
			if a.Value.Data[i] > 0 {
				g.Data[i] += n.Grad.Data[i]
			}
		}
	}
	return n
}

// SoftmaxRows applies row-wise softmax.
func (t *TapeOf[T]) SoftmaxRows(a *NodeOf[T]) *NodeOf[T] {
	val := t.allocUninit(a.Value.Rows, a.Value.Cols)
	tensor.SoftmaxRowsInto(val, a.Value)
	n := t.newNode(val)
	if t.nograd {
		return n
	}
	n.back = func() {
		g := a.grad()
		for i := 0; i < val.Rows; i++ {
			y := val.Row(i)
			dy := n.Grad.Row(i)
			// dx = y ⊙ (dy - (dy·y))
			var dot T
			for j, v := range y {
				dot += dy[j] * v
			}
			gr := g.Row(i)
			for j, v := range y {
				gr[j] += v * (dy[j] - dot)
			}
		}
	}
	return n
}

// LogSoftmaxRows applies row-wise log-softmax.
func (t *TapeOf[T]) LogSoftmaxRows(a *NodeOf[T]) *NodeOf[T] {
	val := t.allocUninit(a.Value.Rows, a.Value.Cols)
	tensor.LogSoftmaxRowsInto(val, a.Value)
	n := t.newNode(val)
	if t.nograd {
		return n
	}
	n.back = func() {
		g := a.grad()
		for i := 0; i < val.Rows; i++ {
			lp := val.Row(i)
			dy := n.Grad.Row(i)
			var sum T
			for _, v := range dy {
				sum += v
			}
			gr := g.Row(i)
			for j, v := range lp {
				gr[j] += dy[j] - T(math.Exp(float64(v)))*sum
			}
		}
	}
	return n
}

// --- Shape ops --------------------------------------------------------------

// ConcatCols joins nodes horizontally.
func (t *TapeOf[T]) ConcatCols(ns ...*NodeOf[T]) *NodeOf[T] {
	vals := make([]*tensor.MatrixOf[T], len(ns))
	cols := 0
	for i, x := range ns {
		vals[i] = x.Value
		cols += x.Value.Cols
	}
	val := t.allocUninit(ns[0].Value.Rows, cols)
	tensor.ConcatColsInto(val, vals...)
	n := t.newNode(val)
	if t.nograd {
		return n
	}
	n.back = func() {
		off := 0
		for _, x := range ns {
			g := x.grad()
			for i := 0; i < g.Rows; i++ {
				src := n.Grad.Row(i)[off : off+x.Value.Cols]
				dst := g.Row(i)
				for j, v := range src {
					dst[j] += v
				}
			}
			off += x.Value.Cols
		}
	}
	return n
}

// ConcatCols2 joins exactly two nodes horizontally. It computes the same
// value as ConcatCols(a, b) but skips the variadic slice, which matters on
// the inference fast path where Bi-LSTMs concatenate once per token.
func (t *TapeOf[T]) ConcatCols2(a, b *NodeOf[T]) *NodeOf[T] {
	val := t.allocUninit(a.Value.Rows, a.Value.Cols+b.Value.Cols)
	tensor.ConcatColsInto(val, a.Value, b.Value)
	n := t.newNode(val)
	if t.nograd {
		return n
	}
	n.back = func() {
		ga, gb := a.grad(), b.grad()
		for i := 0; i < val.Rows; i++ {
			src := n.Grad.Row(i)
			dstA, dstB := ga.Row(i), gb.Row(i)
			for j, v := range src[:a.Value.Cols] {
				dstA[j] += v
			}
			for j, v := range src[a.Value.Cols:] {
				dstB[j] += v
			}
		}
	}
	return n
}

// ConcatRows stacks nodes vertically.
func (t *TapeOf[T]) ConcatRows(ns ...*NodeOf[T]) *NodeOf[T] {
	vals := make([]*tensor.MatrixOf[T], len(ns))
	rows := 0
	for i, x := range ns {
		vals[i] = x.Value
		rows += x.Value.Rows
	}
	val := t.allocUninit(rows, ns[0].Value.Cols)
	tensor.ConcatRowsInto(val, vals...)
	n := t.newNode(val)
	if t.nograd {
		return n
	}
	n.back = func() {
		off := 0
		for _, x := range ns {
			g := x.grad()
			rows := x.Value.Rows
			for i := 0; i < rows; i++ {
				src := n.Grad.Row(off + i)
				dst := g.Row(i)
				for j, v := range src {
					dst[j] += v
				}
			}
			off += rows
		}
	}
	return n
}

// SliceRows takes rows [lo, hi) of a.
func (t *TapeOf[T]) SliceRows(a *NodeOf[T], lo, hi int) *NodeOf[T] {
	if lo < 0 || hi > a.Value.Rows || lo >= hi {
		panic(fmt.Sprintf("ag: SliceRows [%d,%d) out of range for %d rows", lo, hi, a.Value.Rows))
	}
	val := t.allocUninit(hi-lo, a.Value.Cols)
	copy(val.Data, a.Value.Data[lo*a.Value.Cols:hi*a.Value.Cols])
	n := t.newNode(val)
	if t.nograd {
		return n
	}
	n.back = func() {
		g := a.grad()
		for i := lo; i < hi; i++ {
			src := n.Grad.Row(i - lo)
			dst := g.Row(i)
			for j, v := range src {
				dst[j] += v
			}
		}
	}
	return n
}

// GatherRows selects the given rows of a (rows may repeat).
func (t *TapeOf[T]) GatherRows(a *NodeOf[T], rows []int) *NodeOf[T] {
	val := t.allocUninit(len(rows), a.Value.Cols)
	for i, r := range rows {
		copy(val.Row(i), a.Value.Row(r))
	}
	n := t.newNode(val)
	if t.nograd {
		return n
	}
	n.back = func() {
		g := a.grad()
		for i, r := range rows {
			src := n.Grad.Row(i)
			dst := g.Row(r)
			for j, v := range src {
				dst[j] += v
			}
		}
	}
	return n
}

// Transpose returns aᵀ.
func (t *TapeOf[T]) Transpose(a *NodeOf[T]) *NodeOf[T] {
	val := t.allocUninit(a.Value.Cols, a.Value.Rows)
	tensor.TransposeInto(val, a.Value)
	n := t.newNode(val)
	if t.nograd {
		return n
	}
	n.back = func() {
		g := a.grad()
		dg := n.Grad
		for i := 0; i < dg.Rows; i++ {
			row := dg.Row(i)
			for j, v := range row {
				g.Data[j*dg.Rows+i] += v
			}
		}
	}
	return n
}

// --- Lookup / dropout -------------------------------------------------------

// Lookup gathers embedding rows ids from table (a Param node): the standard
// embedding-layer forward, with sparse scatter-add on backward.
func (t *TapeOf[T]) Lookup(table *NodeOf[T], ids []int) *NodeOf[T] {
	return t.GatherRows(table, ids)
}

// Dropout zeroes entries with probability p and rescales survivors by
// 1/(1-p) (inverted dropout). With p<=0 it is the identity. A tape-level
// rng set with SetRand takes precedence over the argument, which is how the
// training engine makes masks deterministic per example.
func (t *TapeOf[T]) Dropout(a *NodeOf[T], p float64, rng *rand.Rand) *NodeOf[T] {
	if p <= 0 {
		return a
	}
	if t.rng != nil {
		rng = t.rng
	}
	mask := t.alloc(a.Value.Rows, a.Value.Cols)
	scale := T(1 / (1 - p))
	for i := range mask.Data {
		if rng.Float64() >= p {
			mask.Data[i] = scale
		}
	}
	val := t.allocUninit(a.Value.Rows, a.Value.Cols)
	tensor.MulInto(val, a.Value, mask)
	n := t.newNode(val)
	if t.nograd {
		return n
	}
	n.back = func() {
		g := a.grad()
		for i, d := range n.Grad.Data {
			g.Data[i] += d * mask.Data[i]
		}
	}
	return n
}

// --- Reductions and losses ---------------------------------------------------

// MeanRows averages over rows, returning a 1×cols node. The per-column sums
// accumulate in float64 whatever T is: document-length row counts make this
// the float32 student's longest fixed-order reduction, and the widened
// accumulator keeps it within the kernel tier's error bound.
func (t *TapeOf[T]) MeanRows(a *NodeOf[T]) *NodeOf[T] {
	val := t.allocUninit(1, a.Value.Cols)
	rows, cols := a.Value.Rows, a.Value.Cols
	inv := 1 / float64(rows)
	// Eight columns at a time: each column still sums in ascending row
	// order, but a row visit reads one contiguous run instead of one cell.
	for j0 := 0; j0 < cols; j0 += 8 {
		var s [8]float64
		w := min(8, cols-j0)
		for i := 0; i < rows; i++ {
			for c, v := range a.Value.Data[i*cols+j0 : i*cols+j0+w] {
				s[c] += float64(v)
			}
		}
		for c := 0; c < w; c++ {
			val.Data[j0+c] = T(s[c] * inv)
		}
	}
	n := t.newNode(val)
	if t.nograd {
		return n
	}
	n.back = func() {
		g := a.grad()
		for i := 0; i < g.Rows; i++ {
			dst := g.Row(i)
			for j := range dst {
				dst[j] += n.Grad.Data[j] * T(inv)
			}
		}
	}
	return n
}

// CrossEntropy computes the mean negative log-likelihood of targets under
// row-wise softmax of logits. Rows of logits with target < 0 are ignored
// (padding), matching the masked-loss convention used by every model here.
func (t *TapeOf[T]) CrossEntropy(logits *NodeOf[T], targets []int) *NodeOf[T] {
	if len(targets) != logits.Value.Rows {
		panic(fmt.Sprintf("ag: CrossEntropy %d targets for %d rows", len(targets), logits.Value.Rows))
	}
	logp := t.allocUninit(logits.Value.Rows, logits.Value.Cols)
	tensor.LogSoftmaxRowsInto(logp, logits.Value)
	var loss float64
	count := 0
	for i, y := range targets {
		if y < 0 {
			continue
		}
		loss -= float64(logp.Row(i)[y])
		count++
	}
	if count == 0 {
		count = 1
	}
	inv := 1 / float64(count)
	n := t.scalar(loss * inv)
	if t.nograd {
		return n
	}
	n.back = func() {
		d := n.Grad.Data[0] * T(inv)
		g := logits.grad()
		for i, y := range targets {
			if y < 0 {
				continue
			}
			lpRow := logp.Row(i)
			gRow := g.Row(i)
			for j := range gRow {
				p := T(math.Exp(float64(lpRow[j])))
				if j == y {
					gRow[j] += d * (p - 1)
				} else {
					gRow[j] += d * p
				}
			}
		}
	}
	return n
}

// KLDiv computes sum_i p_i * log(p_i / q_i) where p is a fixed target
// distribution (teacher, rows summing to 1) and q = softmax(logits) row-wise
// (student). Gradient flows only into logits, the understanding-distillation
// convention from the paper (Eq. L_UD).
func (t *TapeOf[T]) KLDiv(p *tensor.MatrixOf[T], logits *NodeOf[T]) *NodeOf[T] {
	if !p.SameShape(logits.Value) {
		panic(fmt.Sprintf("ag: KLDiv shape mismatch %dx%d vs %dx%d", p.Rows, p.Cols, logits.Value.Rows, logits.Value.Cols))
	}
	logq := t.allocUninit(logits.Value.Rows, logits.Value.Cols)
	tensor.LogSoftmaxRowsInto(logq, logits.Value)
	var loss float64
	for i, pi := range p.Data {
		if pi > 0 {
			loss += float64(pi) * (math.Log(float64(pi)) - float64(logq.Data[i]))
		}
	}
	inv := 1 / float64(p.Rows)
	n := t.scalar(loss * inv)
	if t.nograd {
		return n
	}
	n.back = func() {
		d := n.Grad.Data[0] * T(inv)
		g := logits.grad()
		for i := 0; i < p.Rows; i++ {
			pRow := p.Row(i)
			lqRow := logq.Row(i)
			gRow := g.Row(i)
			var rowMass T
			for _, v := range pRow {
				rowMass += v
			}
			for j := range gRow {
				q := T(math.Exp(float64(lqRow[j])))
				gRow[j] += d * (rowMass*q - pRow[j])
			}
		}
	}
	return n
}

// BCELoss computes mean binary cross-entropy of sigmoid(logits) against
// 0/1 labels; labels < 0 are ignored (padding).
func (t *TapeOf[T]) BCELoss(logits *NodeOf[T], labels []int) *NodeOf[T] {
	if len(labels) != logits.Value.Rows*logits.Value.Cols {
		panic(fmt.Sprintf("ag: BCELoss %d labels for %d entries", len(labels), len(logits.Value.Data)))
	}
	var loss float64
	count := 0
	for i, y := range labels {
		if y < 0 {
			continue
		}
		x := float64(logits.Value.Data[i])
		// Numerically stable: max(x,0) - x*y + log(1+exp(-|x|)).
		loss += math.Max(x, 0) - x*float64(y) + math.Log1p(math.Exp(-math.Abs(x)))
		count++
	}
	if count == 0 {
		count = 1
	}
	inv := 1 / float64(count)
	n := t.scalar(loss * inv)
	if t.nograd {
		return n
	}
	n.back = func() {
		d := n.Grad.Data[0] * T(inv)
		g := logits.grad()
		for i, y := range labels {
			if y < 0 {
				continue
			}
			s := T(1 / (1 + math.Exp(-float64(logits.Value.Data[i]))))
			g.Data[i] += d * (s - T(y))
		}
	}
	return n
}

// AddScalars sums scalar nodes, used to combine weighted loss terms.
func (t *TapeOf[T]) AddScalars(ns ...*NodeOf[T]) *NodeOf[T] {
	var total float64
	for _, x := range ns {
		if x.Value.Rows != 1 || x.Value.Cols != 1 {
			panic("ag: AddScalars needs 1x1 nodes")
		}
		total += float64(x.Value.Data[0])
	}
	n := t.scalar(total)
	if t.nograd {
		return n
	}
	n.back = func() {
		for _, x := range ns {
			x.grad().Data[0] += n.Grad.Data[0]
		}
	}
	return n
}
