package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval of the traced replay. Spans of one request
// share Request; Parent is the span that caused this one (-1 for a root).
// Times are nanoseconds since the trace began.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
}

// tracer records spans in memory from one goroutine; they are written out
// when the benchmark ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// now reads the trace clock.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span at instant at and returns its id. Taking the instant
// as an argument lets consecutive stages share one clock read: where one
// ends the next begins, so no time falls between them.
func (t *tracer) begin(request, parent int, name string, at int64) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name, Start: at})
	return id
}

// end closes the span at instant at.
func (t *tracer) end(id int, at int64) { t.spans[id].End = at }

// layerStat is the self time a trace attributes to one span name.
type layerStat struct {
	count  int
	selfNS int64
}

// selfTimes computes each span's self time — its duration minus the part
// of that interval its children cover — and sums it by name. rootSelf and
// rootTotal are the same sums over root spans named rootName only: what the
// trace could not attribute to a layer, and the time it had to attribute.
//
// It also enforces the latency partition. Summed over one request's tree,
// self times telescope to the root span's duration whatever the spans say;
// what makes that sum a partition of the request's time is that no self
// time is negative, which holds when every span ends after it starts, lies
// inside its parent and does not overlap a sibling. On one goroutine those
// hold unless the recording is broken, and a span that breaks one is
// reported as an error.
func selfTimes(spans []span, rootName string) (byName map[string]layerStat, rootSelf, rootTotal int64, err error) {
	self := make([]int64, len(spans))
	lastChildEnd := make([]int64, len(spans)) // children arrive in start order
	for i, s := range spans {
		if s.End < s.Start {
			return nil, 0, 0, fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		self[i] += s.End - s.Start
		lastChildEnd[i] = s.Start
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			return nil, 0, 0, fmt.Errorf("span %d (%s) precedes its parent", s.ID, s.Name)
		}
		p := spans[s.Parent]
		if s.Request != p.Request || s.Start < lastChildEnd[s.Parent] || s.End > p.End {
			return nil, 0, 0, fmt.Errorf("span %d (%s) is not nested in span %d (%s) beside its siblings", s.ID, s.Name, p.ID, p.Name)
		}
		lastChildEnd[s.Parent] = s.End
		self[s.Parent] -= s.End - s.Start
	}
	byName = map[string]layerStat{}
	for i, s := range spans {
		st := byName[s.Name]
		st.count++
		st.selfNS += self[i]
		byName[s.Name] = st
		if s.Parent < 0 && s.Name == rootName {
			rootSelf += self[i]
			rootTotal += s.End - s.Start
		}
	}
	return byName, rootSelf, rootTotal, nil
}

// write stores the trace as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
