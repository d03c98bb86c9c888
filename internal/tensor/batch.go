package tensor

import "fmt"

// Ragged-batch gather/scatter helpers. Cross-request batching advances B
// variable-length sequences in lockstep: each timestep gathers one row from
// every still-active sequence into a dense slab, runs the ordinary B-row
// kernels over it, and scatters the result rows back out. Because every
// matmul kernel in this package computes each output row independently (see
// kernels.go), the slab rows come out bitwise identical to B separate 1-row
// calls — these helpers only move rows, they never mix them.

// GatherRowsInto copies row srcRows[i] of srcs[i] into row i of dst,
// assembling a dense len(srcs)×cols slab from one row of each source. All
// sources must share dst's column count and srcRows[i] must be a valid row
// of srcs[i]; shape violations panic before any row is written.
func GatherRowsInto[T Float](dst *MatrixOf[T], srcs []*MatrixOf[T], srcRows []int) {
	if len(srcs) != len(srcRows) {
		panic(fmt.Sprintf("tensor: GatherRowsInto %d srcs, %d rows", len(srcs), len(srcRows)))
	}
	if dst.Rows != len(srcs) {
		panic(fmt.Sprintf("tensor: GatherRowsInto dst has %d rows, want %d", dst.Rows, len(srcs)))
	}
	for i, src := range srcs {
		if src.Cols != dst.Cols {
			panic(fmt.Sprintf("tensor: GatherRowsInto src %d has %d cols, dst has %d", i, src.Cols, dst.Cols))
		}
		if r := srcRows[i]; r < 0 || r >= src.Rows {
			panic(fmt.Sprintf("tensor: GatherRowsInto row %d out of range for src %d with %d rows", r, i, src.Rows))
		}
	}
	for i, src := range srcs {
		copy(dst.Row(i), src.Row(srcRows[i]))
	}
}

// ScatterRowSpansInto copies row i of src into columns
// [colOff, colOff+src.Cols) of row dstRows[i] of dsts[i] — the inverse of
// GatherRowsInto, for destinations at least as wide as the slab: a Bi-LSTM
// writes forward states into the left half and backward states into the
// right half of each sequence's output matrix. The span must fit every
// destination's width and dstRows[i] must be a valid row of dsts[i]; shape
// violations panic before any row is written.
func ScatterRowSpansInto[T Float](dsts []*MatrixOf[T], dstRows []int, colOff int, src *MatrixOf[T]) {
	if len(dsts) != len(dstRows) {
		panic(fmt.Sprintf("tensor: ScatterRowSpansInto %d dsts, %d rows", len(dsts), len(dstRows)))
	}
	if src.Rows != len(dsts) {
		panic(fmt.Sprintf("tensor: ScatterRowSpansInto src has %d rows, want %d", src.Rows, len(dsts)))
	}
	if colOff < 0 {
		panic(fmt.Sprintf("tensor: ScatterRowSpansInto negative column offset %d", colOff))
	}
	for i, dst := range dsts {
		if colOff+src.Cols > dst.Cols {
			panic(fmt.Sprintf("tensor: ScatterRowSpansInto span [%d,%d) exceeds dst %d with %d cols", colOff, colOff+src.Cols, i, dst.Cols))
		}
		if r := dstRows[i]; r < 0 || r >= dst.Rows {
			panic(fmt.Sprintf("tensor: ScatterRowSpansInto row %d out of range for dst %d with %d rows", r, i, dst.Rows))
		}
	}
	for i, dst := range dsts {
		copy(dst.Row(dstRows[i])[colOff:colOff+src.Cols], src.Row(i))
	}
}
