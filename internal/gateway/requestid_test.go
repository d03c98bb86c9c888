package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"webbrief/internal/httpwire"
	"webbrief/internal/httpwire/httpwiretest"
	"webbrief/internal/serve"
	"webbrief/internal/wb"
)

// stubReplica briefs every page with one fixed topic.
type stubReplica struct{}

func (stubReplica) EncodeBatch(insts []*wb.Instance) []*wb.Brief {
	briefs := make([]*wb.Brief, len(insts))
	for i := range briefs {
		briefs[i] = &wb.Brief{Topic: []string{"ok"}}
	}
	return briefs
}

func (stubReplica) DecodeBatch([]*wb.Instance, []*wb.Brief) []wb.TierDecision { return nil }

// syncBuffer is an access log several handlers write to.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// linesWithID decodes the access log and returns its lines carrying id.
func (b *syncBuffer) linesWithID(t *testing.T, id string) []map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(b.buf.Bytes()))
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("access log line %q: %v", sc.Text(), err)
		}
		if line["id"] == id {
			out = append(out, line)
		}
	}
	return out
}

// TestRequestIDFollowsFailover: a briefing whose home backend answers 503
// fails over to the other. Both are wbserve handlers served on httpwire,
// and both access logs carry one line with the request ID the client got
// back — the 503 attempt and the 200 — so the two attempts join on it.
func TestRequestIDFollowsFailover(t *testing.T) {
	logs := map[string]*syncBuffer{}
	var names []string
	servers := map[string]*serve.Server{}
	for i := 0; i < 2; i++ {
		log := &syncBuffer{}
		srv := serve.NewFromPool(serve.PoolOf(stubReplica{}), serve.Config{AccessLog: log, ProbeInterval: time.Hour})
		front := httpwiretest.NewFront(t, srv)
		name := strings.TrimPrefix(front.URL, "http://")
		logs[name], servers[name] = log, srv
		names = append(names, name)
	}
	g, err := New(Config{Backends: names, BreakerThreshold: 3, BreakerCooldown: time.Hour, ProbeInterval: time.Hour, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { beginShutdown(t, g) })
	ts := httpwiretest.NewFront(t, g)

	home := g.Ring().Backends()[0]
	servers[home].BeginShutdown() // draining: every /brief is a 503
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/brief?src="+domainOwnedBy(t, g.Ring(), home), strings.NewReader("<p>x</p>"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get(httpwire.RequestIDHeader)
	if resp.StatusCode != http.StatusOK || len(id) != 16 {
		t.Fatalf("client got %d with request ID %q, want a 200 and a minted 16-digit ID", resp.StatusCode, id)
	}
	for _, name := range names {
		want := http.StatusOK
		if name == home {
			want = http.StatusServiceUnavailable
		}
		lines := logs[name].linesWithID(t, id)
		if len(lines) != 1 || lines[0]["status"] != float64(want) {
			t.Fatalf("backend %s logged %v for request %s, want one line with status %d", name, lines, id, want)
		}
	}
}

// TestRequestIDHonouredOrMinted: an inbound ID of 1–64 head-safe bytes is
// relayed and echoed as it came; anything else is replaced by a minted one,
// refusals included.
func TestRequestIDHonouredOrMinted(t *testing.T) {
	_, ts, _ := newTestGateway(t, 1, nil)
	for _, tc := range []struct {
		name, inbound, method string
		honoured              bool
	}{
		{"client ID", "trace-42", http.MethodPost, true},
		{"64 bytes", strings.Repeat("a", 64), http.MethodPost, true},
		{"65 bytes", strings.Repeat("a", 65), http.MethodPost, false},
		{"space inside", "two words", http.MethodPost, false},
		{"none", "", http.MethodPost, false},
		{"on a refusal", "refused-1", http.MethodGet, true},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+"/brief", strings.NewReader("<p>x</p>"))
		if tc.inbound != "" {
			req.Header.Set(httpwire.RequestIDHeader, tc.inbound)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get(httpwire.RequestIDHeader)
		if tc.honoured && got != tc.inbound || !tc.honoured && (got == tc.inbound || len(got) != 16) {
			t.Errorf("%s: inbound %q came back as %q (honoured=%v)", tc.name, tc.inbound, got, tc.honoured)
		}
	}
}
