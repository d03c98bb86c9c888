//go:build wbdebug

package ag

import (
	"fmt"

	"webbrief/internal/tensor"
)

// wbdebug tape-lifecycle instrumentation. One failure mode of the arena
// regime is silent in release builds and loud here: use-after-Reset, a node
// recorded before Tape.Reset whose memory now backs a different step's
// graph. Every node is stamped with the tape generation at recording time;
// touching its gradient under a newer generation panics.

func debugStampNode[T tensor.Float](t *TapeOf[T], n *NodeOf[T]) { n.gen = t.gen }

func debugCheckNode[T tensor.Float](n *NodeOf[T], op string) {
	if n.t != nil && n.gen != n.t.gen {
		panic(fmt.Sprintf("ag: %s on node recorded before Tape.Reset (node gen %d, tape gen %d)",
			op, n.gen, n.t.gen))
	}
}

func debugTapeReset[T tensor.Float](t *TapeOf[T]) { t.gen++ }
