package main

import (
	"strings"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	// Request 0: root 0..100 with children 10..40 (holding 20..30) and 40..90.
	// Request 1: a second root 200..260 with one child 200..250.
	spans := []span{
		{ID: 0, Parent: -1, Request: 0, Name: "replay", Start: 0, End: 100},
		{ID: 1, Parent: 0, Request: 0, Name: "parse", Start: 10, End: 40},
		{ID: 2, Parent: 1, Request: 0, Name: "tokenize", Start: 20, End: 30},
		{ID: 3, Parent: 0, Request: 0, Name: "encode", Start: 40, End: 90},
		{ID: 4, Parent: -1, Request: 1, Name: "replay", Start: 200, End: 260},
		{ID: 5, Parent: 4, Request: 1, Name: "encode", Start: 200, End: 250},
		{ID: 6, Parent: -1, Request: 2, Name: "serve.handler", Start: 300, End: 400},
	}
	byName, rootSelf, rootTotal, err := selfTimes(spans, "replay")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]layerStat{
		"replay":        {2, 20 + 10}, // 100-30-50 and 60-50
		"parse":         {1, 20},      // 30 minus its 10 ns child
		"tokenize":      {1, 10},
		"encode":        {2, 50 + 50},
		"serve.handler": {1, 100},
	}
	for name, w := range want {
		if byName[name] != w {
			t.Errorf("%s = %+v, want %+v", name, byName[name], w)
		}
	}
	// Only roots named "replay" count towards the unattributed share.
	if rootSelf != 30 || rootTotal != 160 {
		t.Errorf("root self %d of %d, want 30 of 160", rootSelf, rootTotal)
	}
}

func TestSelfTimesRejectsBrokenPartition(t *testing.T) {
	root := span{ID: 0, Parent: -1, Request: 0, Name: "replay", Start: 0, End: 100}
	cases := map[string][]span{
		"ends before it starts": {{ID: 0, Parent: -1, Name: "replay", Start: 10, End: 5}},
		"not nested":            {root, {ID: 1, Parent: 0, Name: "late", Start: 90, End: 110}},
		"beside its siblings":   {root, {ID: 1, Parent: 0, Name: "a", Start: 0, End: 60}, {ID: 2, Parent: 0, Name: "b", Start: 50, End: 70}},
		"precedes its parent":   {{ID: 0, Parent: 1, Name: "child", Start: 0, End: 1}, root},
	}
	for wantMsg, spans := range cases {
		if _, _, _, err := selfTimes(spans, "replay"); err == nil || !strings.Contains(err.Error(), wantMsg) {
			t.Errorf("%s: err = %v", wantMsg, err)
		}
	}
	// A child filed under another request breaks the per-request identity.
	other := []span{root, {ID: 1, Parent: 0, Request: 7, Name: "stray", Start: 10, End: 20}}
	if _, _, _, err := selfTimes(other, "replay"); err == nil {
		t.Error("a child of another request passed the partition check")
	}
}

func TestTracerSharesInstants(t *testing.T) {
	tr := newTracer()
	root := tr.begin(3, -1, "replay", 5)
	a := tr.begin(3, root, "a", 5)
	tr.end(a, 9)
	b := tr.begin(3, root, "b", 9)
	tr.end(b, 12)
	tr.end(root, 13)
	byName, rootSelf, rootTotal, err := selfTimes(tr.spans, "replay")
	if err != nil {
		t.Fatal(err)
	}
	if byName["a"].selfNS != 4 || byName["b"].selfNS != 3 || rootSelf != 1 || rootTotal != 8 {
		t.Errorf("a %d b %d root self %d of %d", byName["a"].selfNS, byName["b"].selfNS, rootSelf, rootTotal)
	}
}
