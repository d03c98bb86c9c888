package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"

	"webbrief/internal/gateway"
	"webbrief/internal/serve"
	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

// oracleSample is how many distinct requests per workload are compared
// byte-for-byte against the in-process reference server.
const oracleSample = 32

// handlerSpanRequest is the first request id of the whole-handler spans,
// clear of the replayed requests' ids (their sequence indices).
const handlerSpanRequest = 1_000_000

// checkBriefing reports whether a 200 body is a briefing: the JSON of a
// wb.Brief, nothing else, with the per-sentence section flags every
// briefable page has.
func checkBriefing(body []byte) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var b wb.Brief
	if err := dec.Decode(&b); err != nil {
		return fmt.Errorf("not a briefing: %v", err)
	}
	if len(b.Sections) == 0 {
		return fmt.Errorf("briefing has no section flags")
	}
	return nil
}

// answered is one distinct request the servers answered with a 200.
type answered struct {
	index int // sequence index of a unique request, universe page otherwise
	req   request
	body  []byte
}

// distinct lists every distinct request answered so far: each posted page
// once, and each unique request.
func (c *client) distinct() []answered {
	var out []answered
	for p := range c.first {
		if b := c.first[p].Load(); b != nil {
			pg := c.seq.pages[p]
			out = append(out, answered{p, request{page: p, path: pg.path, body: pg.html}, *b})
		}
	}
	for _, u := range c.unique {
		out = append(out, answered{u.index, c.seq.at(u.index), u.body})
	}
	return out
}

// servedBody returns the 200 body the servers gave for request index's
// bytes, or nil if they were never asked.
func (c *client) servedBody(index int, req request) []byte {
	if req.page >= 0 {
		if b := c.first[req.page].Load(); b != nil {
			return *b
		}
		return nil
	}
	for _, u := range c.unique {
		if u.index == index {
			return u.body
		}
	}
	return nil
}

// verify is the off-clock half of the correctness oracle. Every distinct
// 200 must parse as a briefing, and a seeded sample of them must equal,
// byte for byte, what an in-process reference serve.Server with the same
// model flags and no cache answers. With a tracer, each reference call is
// also recorded as a whole-handler span (and, for a fleet workload, once
// more through an in-process gateway.Gateway over two reference servers).
// Failures are counted on the client like the inline ones.
func (c *client) verify(w workload, seed int64, m *wb.JointWB, v *textproc.Vocab, tr *tracer) error {
	all := c.distinct()
	for _, a := range all {
		if err := checkBriefing(a.body); err != nil {
			c.fail(a.index, "%v", err)
		}
	}

	ref, err := serve.New(m, v, w.referenceConfig())
	if err != nil {
		return fmt.Errorf("reference server: %w", err)
	}
	defer ref.BeginShutdown()
	type namedHandler struct {
		name string
		h    http.Handler
	}
	handlers := []namedHandler{{"serve.handler", ref}}
	if tr != nil && w.fleet {
		a, b := httptest.NewServer(ref), httptest.NewServer(ref)
		defer a.Close()
		defer b.Close()
		g, err := gateway.New(gateway.Config{Backends: []string{a.Listener.Addr().String(), b.Listener.Addr().String()}})
		if err != nil {
			return fmt.Errorf("reference gateway: %w", err)
		}
		defer g.BeginShutdown()
		handlers = append(handlers, namedHandler{"gateway.handler", g})
	}

	rng := rand.New(rand.NewSource(seed ^ saltSample))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if len(all) > oracleSample {
		all = all[:oracleSample]
	}
	for k, a := range all {
		for _, nh := range handlers {
			rec := httptest.NewRecorder()
			hr := httptest.NewRequest(http.MethodPost, a.req.path, strings.NewReader(a.req.body))
			id := -1
			if tr != nil {
				id = tr.begin(handlerSpanRequest+k, -1, nh.name, tr.now())
			}
			nh.h.ServeHTTP(rec, hr)
			if tr != nil {
				tr.end(id, tr.now())
			}
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), a.body) {
				c.fail(a.index, "server answered %s but the reference %s answers %d %s",
					bytes.TrimSpace(a.body), nh.name, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
			}
		}
	}
	return nil
}
