//go:build wbdebug

package wb

import (
	"fmt"
	"strings"
	"testing"

	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
)

// TestDecodeFromStaleOutputsPanics: the Outputs ExtractBriefBatch returns die
// at the workspace's next reset. Decoding from them afterwards reads arena
// memory the next batch's graph is about to overwrite; on a no-gradient tape
// nothing downstream would notice, so DecodeTopicBatch checks — for the
// teacher and, since the tape is one generic type, the student. (Like every
// generation check, it sees a stale node until its slot is recorded again.)
func TestDecodeFromStaleOutputsPanics(t *testing.T) {
	insts, v := testData(t, 1, 2)
	m := newTestJointWB(v, 313)
	t.Run("f64", func(t *testing.T) { checkStaleDecodePanics[float64](t, m, insts, v) })
	t.Run("f32", func(t *testing.T) { checkStaleDecodePanics[float32](t, studentFromTeacher(t, m), insts, v) })
}

func checkStaleDecodePanics[T tensor.Float](t *testing.T, m ModelOf[T], insts []*Instance, v *textproc.Vocab) {
	const beam = 2
	s := NewBatchScratchOf[T](v, beam, len(insts))
	briefs, outs := ExtractBriefBatch(m, insts, v, s)
	DecodeTopicBatch(outs, v, beam, s, briefs) // live: must not fire
	s.Tape.Reset()                             // what the next extract does first
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "before Tape.Reset") {
			t.Fatalf("decoding from stale outputs: got %q, want a use-after-Reset panic", msg)
		}
	}()
	DecodeTopicBatch(outs, v, beam, s, briefs)
}

// TestStaleFoldTablePanics: FoldedOf's API cannot produce a table that
// disagrees with its weights, so reach around it — write a weight the table
// was built from — and the next folded forward must name the table.
func TestStaleFoldTablePanics(t *testing.T) {
	insts, v := testData(t, 1, 2)
	f, err := FoldForServing[float64](newTestJointWB(v, 313))
	if err != nil {
		t.Fatal(err)
	}
	s := NewBatchScratchOf[float64](v, 2, 1)
	MakeBriefBatch[float64](f, insts[:1], v, 2, s) // fresh: must not fire
	for i := range f.m.Dec.Cell.Wx.Value.Data {
		f.m.Dec.Cell.Wx.Value.Data[i] *= 2
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "stale fold table Dec") {
			t.Fatalf("forward over a stale table: got %q, want a stale-table panic", msg)
		}
	}()
	MakeBriefBatch[float64](f, insts[:1], v, 2, s)
}
