//go:build wbdebug

package ag

import (
	"fmt"

	"webbrief/internal/tensor"
)

// wbdebug tape-lifecycle instrumentation. Two failure modes of the arena
// regime are silent in release builds and loud here:
//
//   - use-after-Reset: a node recorded before Tape.Reset whose memory now
//     backs a different step's graph. Every node is stamped with the tape
//     generation at recording time; touching its gradient under a newer
//     generation panics.
//   - double PutTape: returning a tape to the pool twice aliases one arena
//     between two future holders — the worst kind of heisenbug. PutTape
//     tracks pool residency and panics on the second return.

func debugStampNode[T tensor.Float](t *TapeOf[T], n *NodeOf[T]) { n.gen = t.gen }

func debugCheckNode[T tensor.Float](n *NodeOf[T], op string) {
	if n.t != nil && n.gen != n.t.gen {
		panic(fmt.Sprintf("ag: %s on node recorded before Tape.Reset (node gen %d, tape gen %d)",
			op, n.gen, n.t.gen))
	}
}

func debugTapeReset[T tensor.Float](t *TapeOf[T]) { t.gen++ }

func debugTapeGot[T tensor.Float](t *TapeOf[T]) { t.pooled = false }

func debugTapePut[T tensor.Float](t *TapeOf[T]) {
	if t.pooled {
		panic("ag: double PutTape — tape is already back in the pool")
	}
	t.pooled = true
}
