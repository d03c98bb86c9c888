//go:build wbdebug

package tensor

import (
	"fmt"
	"math"
)

// debugFinite panics on the first NaN or Inf in dst, naming the kernel that
// produced it and the offending cell. Every destination-passing kernel in
// into.go calls it on the way out, so under `-tags wbdebug` a numeric blowup
// is caught at the op that created it — not epochs later as a NaN loss. The
// distillation pipeline is the motivating consumer: a teacher that goes
// non-finite silently poisons every student loss downstream, and a teacher
// whose activations stay finite in float64 can overflow float32's far
// narrower range after conversion.
func debugFinite[T Float](op string, dst *MatrixOf[T]) {
	for i, v := range dst.Data {
		if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
			panic(fmt.Sprintf("tensor: %s produced non-finite %v at (%d,%d)", op, v, i/dst.Cols, i%dst.Cols))
		}
	}
}

// debugPoison fills uninitialised storage (ArenaOf.AllocUninit) with NaN, so
// a cell its owner never writes reaches debugFinite as a NaN instead of as
// a plausible stale value.
func debugPoison[T Float](data []T) {
	nan := T(math.NaN())
	for i := range data {
		data[i] = nan
	}
}
