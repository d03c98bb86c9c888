//go:build !wbdebug

package ag

import "webbrief/internal/tensor"

// Release-build stubs for the wbdebug tape-lifecycle instrumentation. Every
// hook inlines to nothing, so tapes pay for the checks only under
// `go test -tags wbdebug` (see debug_on.go for what they catch).

func debugStampNode[T tensor.Float](t *TapeOf[T], n *NodeOf[T]) {}

func debugCheckNode[T tensor.Float](n *NodeOf[T], op string) {}

func debugTapeReset[T tensor.Float](t *TapeOf[T]) {}
