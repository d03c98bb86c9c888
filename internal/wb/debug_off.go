//go:build !wbdebug

package wb

import "webbrief/internal/tensor"

// debugCheckFold is a no-op in release builds. Build with `-tags wbdebug` to
// re-derive a sampled row of every fold table on each folded forward.
func debugCheckFold[T tensor.Float](f *FoldedOf[T], inst *Instance) {}
