//go:build wbdebug

package tensor

import (
	"math"
	"strings"
	"testing"
)

func mustPanicFinite(t *testing.T, kernel string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected non-finite panic from %s, got none", kernel)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, kernel) || !strings.Contains(msg, "non-finite") {
			t.Fatalf("panic %v does not name kernel %s as non-finite source", r, kernel)
		}
	}()
	f()
}

// TestFiniteGuardTrapsNaN: a NaN flowing through a destination-passing
// kernel must be reported by that kernel, under its name.
func TestFiniteGuardTrapsNaN(t *testing.T) {
	a := Full(2, 2, 1)
	b := Full(2, 2, 2)
	a.Data[3] = math.NaN()
	mustPanicFinite(t, "AddInto", func() { AddInto(New(2, 2), a, b) })
}

// TestFiniteGuardTrapsInf: overflow to +Inf is caught at the producing
// kernel (here scaling by an enormous factor).
func TestFiniteGuardTrapsInf(t *testing.T) {
	a := Full(1, 2, math.MaxFloat64)
	mustPanicFinite(t, "ScaleInto", func() { ScaleInto(New(1, 2), a, 2) })
	// The one generic guard covers the float32 tier, whose far narrower
	// range makes overflow the likelier failure: a value that is finite in
	// float64 blows up after conversion.
	a32 := Cast[float32](Full(1, 2, math.MaxFloat32))
	mustPanicFinite(t, "ScaleInto", func() { ScaleInto(New32(1, 2), a32, 2) })
}

// TestFiniteGuardPassesCleanData: ordinary finite data must flow through
// guarded kernels untouched.
func TestFiniteGuardPassesCleanData(t *testing.T) {
	a := Full(2, 3, 0.5)
	b := Full(2, 3, -0.25)
	dst := New(2, 3)
	AddInto(dst, a, b)
	if dst.Data[0] != 0.25 {
		t.Fatalf("AddInto produced %v, want 0.25", dst.Data[0])
	}
}

// TestFiniteGuardCoversLSTMCell: the fused cell guards each of its outputs.
// A NaN output-gate pre-activation reaches only the hidden state (the cell
// state never reads that gate); an infinite previous cell state reaches only
// the cell state (o·tanh(±Inf) = ±o is finite).
func TestFiniteGuardCoversLSTMCell(t *testing.T) {
	const h = 3
	run := func(poison func(in, c *Matrix32)) func() {
		return func() {
			in, c := New32(1, 4*h), New32(1, h)
			poison(in, c)
			LSTMCellInto(New32(1, h), New32(1, h), New32(1, 4*h), in, New32(1, 4*h), c)
		}
	}
	mustPanicFinite(t, "LSTMCellInto", run(func(in, c *Matrix32) { in.Data[3*h] = float32(math.NaN()) }))
	mustPanicFinite(t, "LSTMCellInto", run(func(in, c *Matrix32) { c.Data[1] = float32(math.Inf(1)) }))
	run(func(in, c *Matrix32) {})()
}

// TestUninitAllocIsPoisoned: under wbdebug, storage from AllocUninit is NaN
// until written, so a kernel handed a destination it only partly fills is
// caught by its own finite guard instead of serving last request's values.
func TestUninitAllocIsPoisoned(t *testing.T) {
	a := NewArena()
	dst := a.AllocUninit(2, 2)
	for i, v := range dst.Data {
		if !math.IsNaN(v) {
			t.Fatalf("uninitialised cell %d holds %v, want the NaN poison", i, v)
		}
	}
	// A concat that covers only the first row leaves the second poisoned.
	half := FromSlice(1, 2, dst.Data[:2])
	ConcatRowsInto(half, Full(1, 2, 1))
	mustPanicFinite(t, "AddInto", func() { AddInto(New(2, 2), dst, New(2, 2)) })
}
