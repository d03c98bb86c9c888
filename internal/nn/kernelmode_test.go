package nn

import (
	"testing"
	_ "unsafe" // go:linkname, for the kernel-mode switch below
)

// useLaneKernels is tensor's kernel-mode gate: true runs the assembly lane
// kernels, false their pure-Go bodies. Tests switch it to pin both modes;
// nothing else assigns it.
//
//go:linkname useLaneKernels webbrief/internal/tensor.useLaneKernels
var useLaneKernels bool

// eachKernelMode runs fn on the pure-Go kernel bodies and, on a host that
// has them, on the lane kernels.
func eachKernelMode(t *testing.T, fn func(t *testing.T)) {
	prev := useLaneKernels
	t.Cleanup(func() { useLaneKernels = prev })
	t.Run("go", func(t *testing.T) { useLaneKernels = false; fn(t) })
	if prev {
		t.Run("lanes", func(t *testing.T) { useLaneKernels = true; fn(t) })
	}
}

// nonFiniteProducts reports whether tensor lets a product go non-finite:
// under -tags wbdebug, MatMulInto panics on one (debug_wbdebug_test.go).
var nonFiniteProducts = true
