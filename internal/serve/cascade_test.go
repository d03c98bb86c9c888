package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"webbrief/internal/ag"
	"webbrief/internal/corpus"
	"webbrief/internal/nn"
	"webbrief/internal/wb"
)

// cascadeServer boots a cascade server over the shared tiny trained model.
func cascadeServer(t *testing.T, cfg Config, threshold float64) (*Server, *httptest.Server, []*corpus.Page, [][]byte) {
	t.Helper()
	m, v, pages := trainedModel(t)
	const beam = 2
	m.Cfg.BeamSize = beam
	cfg.Cascade = true
	cfg.ConfidenceThreshold = threshold

	// Teacher-only reference bytes via the serial path, Encoder framing.
	want := serialWire(t, wb.NewBriefer(m, v, beam, 0), pageHTML(pages))

	srv, err := New(m, v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Warm(""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, pages, want
}

// pageHTML extracts the raw markup of each corpus page.
func pageHTML(pages []*corpus.Page) []string {
	out := make([]string, len(pages))
	for i, p := range pages {
		out[i] = p.HTML
	}
	return out
}

// TestCascadeNeverEscalates: with a negative threshold the confidence gate
// never trips, so every briefing is answered by the float32 student and the
// cascade partition reads all-student — for one client briefing page by
// page (batches of one) and for many clients whose requests coalesce into
// fused student forwards and batched beam decodes.
func TestCascadeNeverEscalates(t *testing.T) {
	srv, ts, pages, _ := cascadeServer(t, Config{Replicas: 1, BatchMax: 4}, -1)
	var solo [][]byte
	for i, p := range pages {
		status, body, err := postBrief(ts.URL, p.HTML)
		if err != nil || status != http.StatusOK {
			t.Fatalf("page %d: status %d err %v", i, status, err)
		}
		if !bytes.Contains(body, []byte(`"Topic"`)) {
			t.Fatalf("page %d: student response has no topic: %s", i, body)
		}
		solo = append(solo, body)
	}
	for i, body := range postWhileHeld(t, srv, ts.URL, pageHTML(pages)) {
		if !bytes.Equal(body, solo[i]) {
			t.Fatalf("page %d: student briefing in a coalesced batch diverges from its batch-of-one bytes:\n got %s\nwant %s",
				i, body, solo[i])
		}
	}
	m := srv.metrics
	n := int64(2 * len(pages))
	if got := totalOf(m.CascadeRequests); got != n {
		t.Fatalf("cascade_requests_total = %d, want %d", got, n)
	}
	if got := countOf(m.CascadeRequests, CascadeStudent); got != n {
		t.Fatalf("student tier answered %d, want %d", got, n)
	}
	if got := countOf(m.CascadeRequests, CascadeTeacher); got != 0 {
		t.Fatalf("teacher tier answered %d with escalation disabled", got)
	}
	if got := m.StudentLatency.Snapshot().Count; got != n {
		t.Fatalf("student latency histogram has %d observations, want %d", got, n)
	}
	if got := m.TeacherLatency.Snapshot().Count; got != 0 {
		t.Fatalf("teacher latency histogram has %d observations, want 0", got)
	}
	if got := m.CoalescedRequests.Load(); got != int64(len(pages)) {
		t.Fatalf("coalesced_requests_total = %d, want %d (the held round forms full batches)", got, len(pages))
	}
}

// TestCascadeAlwaysEscalates: a threshold above 1 escalates every briefing,
// so the wire bytes must be identical to the teacher-only serial path — the
// proof that an escalation replaces the whole brief, not just the topic.
// One client exercises the batch-of-one escalation, many clients the
// batched student forward plus the batched teacher escalation.
func TestCascadeAlwaysEscalates(t *testing.T) {
	srv, ts, pages, want := cascadeServer(t, Config{Replicas: 1, BatchMax: 4}, 2)
	for i, p := range pages {
		status, body, err := postBrief(ts.URL, p.HTML)
		if err != nil || status != http.StatusOK {
			t.Fatalf("page %d: status %d err %v", i, status, err)
		}
		if !bytes.Equal(body, want[i]) {
			t.Fatalf("page %d: escalated response diverges from teacher-only path:\n got %s\nwant %s",
				i, body, want[i])
		}
	}
	for i, body := range postWhileHeld(t, srv, ts.URL, pageHTML(pages)) {
		if !bytes.Equal(body, want[i]) {
			t.Fatalf("page %d: batched escalated response diverges from teacher-only path", i)
		}
	}
	m := srv.metrics
	n := int64(2 * len(pages))
	if got := totalOf(m.CascadeRequests); got != n {
		t.Fatalf("cascade_requests_total = %d, want %d", got, n)
	}
	if got := countOf(m.CascadeRequests, CascadeTeacher); got != n {
		t.Fatalf("teacher tier answered %d, want %d", got, n)
	}
	if got := countOf(m.CascadeRequests, CascadeStudent); got != 0 {
		t.Fatalf("student tier answered %d with forced escalation", got)
	}
	if got := m.TeacherLatency.Snapshot().Count; got != n {
		t.Fatalf("teacher latency histogram has %d observations, want %d", got, n)
	}
	if got := m.CoalescedRequests.Load(); got != int64(len(pages)) {
		t.Fatalf("coalesced_requests_total = %d, want %d (the held round forms full batches)", got, len(pages))
	}
}

// TestCascadePartitionReconciles drives a mixed workload at a live
// threshold and checks the /metrics invariants the registry promises:
// student + teacher == cascade_requests_total == OK responses, and the
// JSON snapshot mirrors the counters.
func TestCascadePartitionReconciles(t *testing.T) {
	srv, ts, pages, _ := cascadeServer(t, Config{Replicas: 2}, 0.5)
	const rounds = 3
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for _, p := range pages {
			wg.Add(1)
			go func(html string) {
				defer wg.Done()
				postBrief(ts.URL, html)
			}(p.HTML)
		}
	}
	wg.Wait()

	m := srv.metrics
	total := totalOf(m.CascadeRequests)
	student := countOf(m.CascadeRequests, CascadeStudent)
	teacher := countOf(m.CascadeRequests, CascadeTeacher)
	if student+teacher != total {
		t.Fatalf("cascade partition drifted: student %d + teacher %d != total %d", student, teacher, total)
	}
	if ok := countOf(m.Requests, OK); total != ok {
		t.Fatalf("cascade_requests_total %d != ok responses %d", total, ok)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Cascade struct {
			Enabled             bool    `json:"enabled"`
			ConfidenceThreshold float64 `json:"confidence_threshold"`
			CascadeRequests     int64   `json:"cascade_requests_total"`
			Tiers               struct {
				Student int64 `json:"student_total"`
				Teacher int64 `json:"teacher_total"`
			} `json:"tiers"`
			EscalationRate float64 `json:"escalation_rate"`
			LatencyMS      struct {
				Student struct {
					Count int64 `json:"count"`
				} `json:"student"`
				Teacher struct {
					Count int64 `json:"count"`
				} `json:"teacher"`
			} `json:"latency_ms"`
		} `json:"cascade"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	c := snap.Cascade
	if !c.Enabled || c.ConfidenceThreshold != 0.5 {
		t.Fatalf("cascade block reads enabled=%v threshold=%v", c.Enabled, c.ConfidenceThreshold)
	}
	if c.CascadeRequests != total || c.Tiers.Student != student || c.Tiers.Teacher != teacher {
		t.Fatalf("snapshot (%d, %d, %d) diverges from counters (%d, %d, %d)",
			c.CascadeRequests, c.Tiers.Student, c.Tiers.Teacher, total, student, teacher)
	}
	if total > 0 {
		wantRate := float64(teacher) / float64(total)
		if diff := c.EscalationRate - wantRate; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("escalation_rate %v, want %v", c.EscalationRate, wantRate)
		}
	}
	if c.LatencyMS.Student.Count != total || c.LatencyMS.Teacher.Count != teacher {
		t.Fatalf("tier histogram counts (%d, %d), want (%d, %d)",
			c.LatencyMS.Student.Count, c.LatencyMS.Teacher.Count, total, teacher)
	}
}

// TestCascadeRequiresGloVe: New with Cascade on a transformer-encoder model
// must refuse at construction, not mangle weights at serve time.
func TestCascadeRequiresGloVe(t *testing.T) {
	_, v, _ := trainedModel(t)
	// A transformer-encoder model with the same vocab: conversion must fail.
	tc := nn.TransformerConfig{Vocab: v.Size(), Dim: 12, Heads: 2, Layers: 1, FFDim: 24, MaxLen: 32, Segments: 2}
	enc := wb.NewBERTEncoder("bert", tc, false, rand.New(rand.NewSource(4)))
	bm := wb.NewJointWB("bert-serve", enc, v.Size(), wb.DefaultConfig())
	if _, err := New(bm, v, Config{Cascade: true, Replicas: 1}); err == nil {
		t.Fatal("cascade server built over a transformer-encoder model")
	}
}

// nanStudent is a student whose decode goes non-finite: it forwards like the
// real student (so the extractive half of its brief is sane) and then
// poisons the decoder's attention memory, which turns every decode logit —
// and with them both confidence fields — into NaN.
type nanStudent struct{ wb.ModelOf[float32] }

func (s nanStudent) Forward(t *ag.TapeOf[float32], inst *wb.Instance, mode wb.Mode) *wb.OutputOf[float32] {
	out := s.ModelOf.Forward(t, inst, mode)
	out.Memory.Value.Data[0] = float32(math.NaN())
	return out
}

// TestCascadeEscalatesNaNConfidence: a NaN confidence is the least
// confident answer there is, not a pass. NaN compares false against every
// threshold, so a score that let it through would serve the student's
// garbage topic; the briefing must escalate instead, counted under
// teacher_total and byte-identical to the teacher-only path.
func TestCascadeEscalatesNaNConfidence(t *testing.T) {
	m, v, pages := trainedModel(t)
	const beam, threshold = 2, 0.03
	m.Cfg.BeamSize = beam
	want := serialWire(t, wb.NewBriefer(m, v, beam, 0), pageHTML(pages))
	student, err := wb.ConvertJointWB(m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cascade: true, ConfidenceThreshold: threshold}
	pool, err := NewPool(m, v, 1, cfg)
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
