//go:build !wbdebug

// A NaN reaching the cascade's guard cannot happen in a -tags wbdebug build:
// tensor's finite guard panics on the first NaN, ejecting the replica before
// any gap is compared. So this file's test runs in every other build only.

package serve

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"webbrief/internal/ag"
	"webbrief/internal/wb"
)

// nanStudent is a student whose decode goes non-finite: it forwards like the
// real student (so the extractive half of its brief is sane) and then
// poisons the decoder's attention memory, which turns every decode logit —
// and with them the beam's keep and final gaps — into NaN.
type nanStudent struct{ wb.ModelOf[float32] }

func (s nanStudent) Forward(t *ag.TapeOf[float32], inst *wb.Instance, mode wb.Mode) *wb.OutputOf[float32] {
	out := s.ModelOf.Forward(t, inst, mode)
	out.Memory.Value.Data[0] = float32(math.NaN())
	return out
}

// TestCascadeEscalatesNaNConfidence: a NaN gap is the least certain decision
// there is, not a pass. NaN compares false against every bound, so a rule
// written gap <= bound would serve the student's garbage topic; the guard's
// !(gap > bound) escalates it instead, counted under teacher_total and
// byte-identical to the teacher-only path — even with bounds of -Inf, under
// which no finite gap escalates.
func TestCascadeEscalatesNaNConfidence(t *testing.T) {
	m, v, pages := trainedModel(t)
	const beam = 2
	m.Cfg.BeamSize = beam
	want := serialWire(t, wb.NewBriefer(m, v, beam, 0), pageHTML(pages))
	student, err := wb.ConvertJointWB(m)
	if err != nil {
		t.Fatal(err)
	}
	withBounds(t, escalateNone)
	cfg := Config{Cascade: true}
	pool, err := NewPool(folded(t, m), v, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool.models[0].tiers[0].(*tierOf[float32]).model = nanStudent{student}
	srv := NewFromPool(pool, cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for i, p := range pages {
		status, body, err := postBrief(ts.URL, p.HTML)
		if err != nil || status != http.StatusOK {
			t.Fatalf("page %d: status %d err %v", i, status, err)
		}
		if !bytes.Equal(body, want[i]) {
			t.Fatalf("page %d: a NaN-confidence briefing was not the teacher's:\n got %s\nwant %s", i, body, want[i])
		}
	}
	n := int64(len(pages))
	if got := countOf(srv.metrics.CascadeRequests, CascadeTeacher); got != n {
		t.Fatalf("teacher_total = %d, want %d: NaN confidences must escalate", got, n)
	}
	if got := countOf(srv.metrics.CascadeRequests, CascadeStudent); got != 0 {
		t.Fatalf("student_total = %d: a NaN-confidence briefing was served by the student", got)
	}
}
