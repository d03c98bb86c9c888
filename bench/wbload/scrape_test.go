package main

import (
	"encoding/json"
	"testing"
)

func TestFlattenAndDelta(t *testing.T) {
	parse := func(s string) counters {
		var doc any
		if err := json.Unmarshal([]byte(s), &doc); err != nil {
			t.Fatal(err)
		}
		out := counters{}
		flatten("", doc, out)
		return out
	}
	before := parse(`{"requests_total": 10, "cache": {"enabled": true, "outcomes": {"cache_hits_total": 4}},
		"backends": [{"name": "a", "requests_total": 7}, {"name": "b", "requests_total": 3}]}`)
	after := parse(`{"requests_total": 25, "cache": {"enabled": true, "outcomes": {"cache_hits_total": 9}},
		"backends": [{"name": "a", "requests_total": 20}, {"name": "b", "requests_total": 5}]}`)
	d := after.sub(before)
	for key, want := range map[string]float64{
		"requests_total":                  15,
		"cache.outcomes.cache_hits_total": 5,
		"backends.0.requests_total":       13,
		"backends.1.requests_total":       2,
	} {
		if got := d.get(key); got != want {
			t.Errorf("Δ%s = %v, want %v", key, got, want)
		}
	}
	if _, ok := d["cache.enabled"]; ok {
		t.Error("a boolean was kept as a counter")
	}
	sum := counters{}
	sum.add(before)
	sum.add(after)
	if got := sum.get("requests_total"); got != 35 {
		t.Errorf("summed requests_total = %v, want 35", got)
	}
	defer func() {
		if r := recover(); r != missingCounter("no.such.key") {
			t.Errorf("a missing counter panicked with %v", r)
		}
	}()
	d.get("no.such.key")
}
