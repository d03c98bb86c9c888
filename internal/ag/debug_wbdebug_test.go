//go:build wbdebug

package ag

import (
	"strings"
	"testing"

	"webbrief/internal/tensor"
)

func mustPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", substr)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v does not contain %q", r, substr)
		}
	}()
	f()
}

// Each lifecycle check runs for both element types: the generation stamps
// and pool-residency flag live on the generic tape, so the float32 student
// tier inherits them.

// TestUseAfterResetPanics: running Backward on a node recorded before Reset
// must trip the generation check instead of silently reading recycled arena
// memory.
func TestUseAfterResetPanics(t *testing.T) {
	t.Run("f64", testUseAfterResetPanics[float64])
	t.Run("f32", testUseAfterResetPanics[float32])
}

func testUseAfterResetPanics[T tensor.Float](t *testing.T) {
	tp := &TapeOf[T]{arena: tensor.NewArenaOf[T]()}
	x := tp.Const(tensor.NewOf[T](2, 2))
	loss := sumAll(tp, x)
	tp.Reset()
	mustPanic(t, "before Tape.Reset", func() { tp.Backward(loss) })
}

// TestStaleGradAccumulationPanics: a stale intermediate pulled into a fresh
// graph is caught at its first gradient touch.
func TestStaleGradAccumulationPanics(t *testing.T) {
	t.Run("f64", testStaleGradAccumulationPanics[float64])
	t.Run("f32", testStaleGradAccumulationPanics[float32])
}

func testStaleGradAccumulationPanics[T tensor.Float](t *testing.T) {
	tp := &TapeOf[T]{arena: tensor.NewArenaOf[T]()}
	y := tp.Tanh(tp.Const(tensor.NewOf[T](2, 2)))
	tp.Reset()
	mustPanic(t, "before Tape.Reset", func() { y.addGrad(tensor.NewOf[T](2, 2)) })
}

// TestStaleNodeOnInferTapePanics: a no-gradient tape never accumulates
// gradients, so code that keeps nodes across calls asks explicitly — the
// student's decode stage does (wb.DecodeTopicBatch).
func TestStaleNodeOnInferTapePanics(t *testing.T) {
	t.Run("f64", testStaleNodeOnInferTapePanics[float64])
	t.Run("f32", testStaleNodeOnInferTapePanics[float32])
}

func testStaleNodeOnInferTapePanics[T tensor.Float](t *testing.T) {
	tp := NewInferTapeOf[T]()
	y := tp.Tanh(tp.Const(tensor.NewOf[T](2, 2)))
	y.CheckLive("still live") // must not fire before the Reset
	tp.Reset()
	mustPanic(t, "before Tape.Reset", func() { y.CheckLive("decode") })
}
