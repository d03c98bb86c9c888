package tensor

// ArenaOf is a bump allocator for matrices with identical lifetimes — the
// intermediate values and gradients of one training step. Alloc hands out
// zeroed matrices carved from large reusable slabs; Reset rewinds the arena
// so the next step reuses the same memory. Steady-state training therefore
// performs near-zero heap allocation per step: after the first step sizes
// every slab, later steps only pay a memset per allocation (which New would
// pay anyway via make) — and not even that for AllocUninit, the allocation
// for destinations whose every cell is written before it is read.
//
// An ArenaOf is not safe for concurrent use; parallel training gives each
// worker its own arena-backed tape, and each serving replica its own.
type ArenaOf[T Float] struct {
	slabs [][]T
	slab  int // index of the slab currently being filled
	off   int // fill offset within slabs[slab]

	mats   [][]MatrixOf[T]
	matBlk int
	matOff int
}

// Arena is the float64 arena of the training engine.
type Arena = ArenaOf[float64]

// arenaSlabFloats is the default slab size (64k floats: 512 KiB of float64,
// 256 KiB of float32). Requests larger than a slab get a dedicated
// exactly-sized slab.
const arenaSlabFloats = 1 << 16

// arenaMatBlock is how many Matrix headers are allocated per header block.
// Blocks are never reallocated, so *Matrix pointers stay valid for the
// arena's lifetime.
const arenaMatBlock = 512

// NewArenaOf returns an empty arena. Slabs are allocated lazily on first use.
func NewArenaOf[T Float]() *ArenaOf[T] { return &ArenaOf[T]{} }

// NewArena is NewArenaOf[float64].
func NewArena() *Arena { return NewArenaOf[float64]() }

// AllocFloats returns a zeroed slice of n floats backed by the arena. The
// slice is full-capacity-clipped so appends never bleed into neighbours.
func (a *ArenaOf[T]) AllocFloats(n int) []T {
	out := a.allocFloats(n)
	clear(out)
	return out
}

// allocFloats is AllocFloats without the zeroing: the slice holds whatever
// the arena's previous generation left there.
func (a *ArenaOf[T]) allocFloats(n int) []T {
	if n == 0 {
		return nil
	}
	for {
		if a.slab == len(a.slabs) {
			size := arenaSlabFloats
			if n > size {
				size = n
			}
			a.slabs = append(a.slabs, make([]T, size))
		}
		if s := a.slabs[a.slab]; a.off+n <= len(s) {
			out := s[a.off : a.off+n : a.off+n]
			a.off += n
			return out
		}
		a.slab++
		a.off = 0
	}
}

// Alloc returns a zeroed rows×cols matrix whose header and data both live in
// the arena. It panics on non-positive dimensions, like New.
func (a *ArenaOf[T]) Alloc(rows, cols int) *MatrixOf[T] {
	m := a.allocHeader(rows, cols)
	m.Data = a.AllocFloats(rows * cols)
	return m
}

// AllocUninit is Alloc without the zeroing, for destinations every cell of
// which is written before it is read (copies, elementwise outputs, the fused
// LSTM cell's states): the matrix holds stale arena contents until then.
// Accumulating kernels (MatMulInto, MatMulTransAInto) need Alloc. Under
// `-tags wbdebug` the storage is poisoned with NaN, so a cell the caller
// failed to write trips the kernels' finite guard.
func (a *ArenaOf[T]) AllocUninit(rows, cols int) *MatrixOf[T] {
	m := a.allocHeader(rows, cols)
	m.Data = a.allocFloats(rows * cols)
	debugPoison(m.Data)
	return m
}

// AllocShared returns a rows×cols matrix header viewing data, without
// copying. It is the arena analogue of FromSlice.
func (a *ArenaOf[T]) AllocShared(rows, cols int, data []T) *MatrixOf[T] {
	if len(data) != rows*cols {
		panic("tensor: AllocShared data length does not match shape")
	}
	m := a.allocHeader(rows, cols)
	m.Data = data
	return m
}

func (a *ArenaOf[T]) allocHeader(rows, cols int) *MatrixOf[T] {
	if rows <= 0 || cols <= 0 {
		panic("tensor: Arena.Alloc invalid shape")
	}
	if a.matBlk == len(a.mats) {
		a.mats = append(a.mats, make([]MatrixOf[T], arenaMatBlock))
	}
	blk := a.mats[a.matBlk]
	m := &blk[a.matOff]
	m.Rows, m.Cols = rows, cols
	a.matOff++
	if a.matOff == len(blk) {
		a.matBlk++
		a.matOff = 0
	}
	return m
}

// Reset rewinds the arena so all previously allocated matrices may be
// reused. The caller must ensure nothing from before the Reset is still
// referenced: old matrices will alias new ones.
func (a *ArenaOf[T]) Reset() {
	a.slab, a.off = 0, 0
	a.matBlk, a.matOff = 0, 0
}
