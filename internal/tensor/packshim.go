package tensor

// B-panel packing is gone (every matmul body reads the right-hand matrix in
// place). What is left here is the four names bench/wbload/replay.go compiles
// against, restated over MatMulInto with no logic of their own, because
// bench/ changes only in a `benchmark` PR. Nothing else in the tree calls
// them, and the PR that does ROADMAP item 6(f) deletes this file.

// PackBuf and PackBuf32 were the caller-owned pack buffers; they hold
// nothing.
type (
	PackBuf   struct{}
	PackBuf32 struct{}
)

// MatMulPackInto is MatMulInto: dst += m·o.
func MatMulPackInto(dst, m, o *Matrix, _ *PackBuf) {
	dstShapeCheck(dst, m.Rows, o.Cols, "MatMulPackInto")
	MatMulInto(dst, m, o)
}

// MatMulPackInto32 is MatMulInto: dst += m·o.
func MatMulPackInto32(dst, m, o *Matrix32, _ *PackBuf32) {
	dstShapeCheck(dst, m.Rows, o.Cols, "MatMulPackInto32")
	MatMulInto(dst, m, o)
}
