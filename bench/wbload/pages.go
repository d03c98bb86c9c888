package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"webbrief/internal/corpus"
)

// universeSize is the number of distinct pages every workload draws from
// (fleet-mixed's Zipf popularity ranks all of them).
const universeSize = 2000

// routeKeysPerDomain spreads each corpus domain over this many ?src= hosts,
// so the gateway ring sees 24 × 8 = 192 distinct route keys.
const routeKeysPerDomain = 8

// page is one member of the page universe: the HTML a client posts and the
// source attribution it posts it under.
type page struct {
	html   string
	path   string   // "/brief?src=https://s<k>.<domain>.example/p"
	words  []string // the domain's content vocabulary, for unique sentences
	tokens int      // visible word tokens, the size encode/decode time is linear in
}

// buildUniverse generates the seeded page universe: corpus pages over all
// 24 domains, three plain pages to one corpus.ConcatPages pair so the token
// count varies. Only the HTML reaches the program under test; the seed
// never does.
func buildUniverse(seed int64) ([]page, error) {
	domains := corpus.Domains()
	perDomain := (universeSize + len(domains) - 1) / len(domains)
	ds, err := corpus.Generate(corpus.Config{Seed: seed, PagesPerDomain: perDomain, SeenDomains: len(domains)})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	// Interleave domains so every prefix of the universe covers all of them.
	order := rng.Perm(len(ds.Pages))
	words := make(map[string][]string, len(domains))
	for _, d := range domains {
		words[d.Name] = d.Words
	}
	pages := make([]page, universeSize)
	for i := range pages {
		p := ds.Pages[order[i]]
		html := p.HTML
		if i%4 == 3 {
			p = corpus.ConcatPages(p, ds.Pages[order[(i+1)%len(order)]], 0.5)
			html = renderSentences(p)
		}
		n := 0
		for _, s := range p.Sentences {
			n += len(s.Tokens)
		}
		pages[i] = page{
			html:   html,
			path:   fmt.Sprintf("/brief?src=https://s%d.%s.example/p", rng.Intn(routeKeysPerDomain), p.Domain),
			words:  words[p.Domain],
			tokens: n,
		}
	}
	return pages, nil
}

// renderSentences serialises a page that has sentences but no markup (a
// ConcatPages pair) with one block element per sentence, the shape
// corpus pages have.
func renderSentences(p *corpus.Page) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<!DOCTYPE html>\n<html>\n<head>\n<title>%s</title>\n</head>\n<body>\n<main>\n", strings.Join(p.Topic, " "))
	for _, s := range p.Sentences {
		fmt.Fprintf(&b, "  <p>%s</p>\n", strings.Join(s.Tokens, " "))
	}
	b.WriteString("</main>\n</body>\n</html>\n")
	return b.String()
}

// splitmix64 is the per-index hash behind unique sentences: request i's
// sentence is a pure function of (seed, i), so a sequence can be replayed
// from any index without carrying generator state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// request is one POST of a workload's sequence.
type request struct {
	page int    // universe index, the identity for "same bytes ⇒ same response"
	path string // URL path and query
	body string
	due  time.Duration // open loop: offset from the start of the run
}

// sequence is a workload's seeded request stream. Request i is a pure
// function of (seed, i): order picks its page, and unique workloads append
// one visible sentence no other request has, so its content hash is new.
type sequence struct {
	seed   int64
	pages  []page
	order  []int32         // page of request i is order[i % len(order)]
	unique bool            // append a per-request sentence
	due    []time.Duration // open loop arrival offsets, one per request; nil = closed loop
}

// at returns request i.
func (s *sequence) at(i int) request {
	pi := int(s.order[i%len(s.order)])
	p := &s.pages[pi]
	r := request{page: pi, path: p.path, body: p.html}
	if s.unique {
		h := splitmix64(uint64(s.seed)<<20 ^ uint64(i))
		var b strings.Builder
		b.Grow(len(p.html) + 64)
		cut := strings.LastIndex(p.html, "</main>")
		b.WriteString(p.html[:cut])
		b.WriteString("  <p>visitor")
		for k := 0; k < 4; k++ {
			b.WriteByte(' ')
			b.WriteString(p.words[h%uint64(len(p.words))])
			h = splitmix64(h)
		}
		fmt.Fprintf(&b, " ref %d</p>\n", i)
		b.WriteString(p.html[cut:])
		r.body = b.String()
		r.page = -1 - i // unique content: no other request shares its bytes
	}
	if s.due != nil {
		r.due = s.due[i]
	}
	return r
}

// closedOrderLen bounds the stored page order of a closed-loop sequence;
// longer runs wrap around it.
const closedOrderLen = 1 << 16

// uniformOrder draws n page indices uniformly from the first span pages.
func uniformOrder(rng *rand.Rand, span, n int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(rng.Intn(span))
	}
	return order
}

// zipfOrder returns n page indices with Zipf(s) popularity over the first
// span pages (rank r is page r, weight (r+1)^-s; the universe is already
// seeded-shuffled, so which pages are popular changes with the seed). The
// draw is stratified: rank r appears n·p_r times, rounded by largest
// remainder, and only the order is random. Every seed therefore asks for the
// same number of distinct pages the same number of times, which takes the
// sampling noise of the hit ratio out of the run-to-run spread.
func zipfOrder(rng *rand.Rand, s float64, span, n int) []int32 {
	weights := make([]float64, span)
	total := 0.0
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -s)
		total += weights[r]
	}
	order := make([]int32, 0, n)
	type remainder struct {
		rank int
		frac float64
	}
	rems := make([]remainder, span)
	for r, w := range weights {
		exact := float64(n) * w / total
		whole := int(exact)
		for k := 0; k < whole; k++ {
			order = append(order, int32(r))
		}
		rems[r] = remainder{r, exact - float64(whole)}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for _, rem := range rems[:n-len(order)] {
		order = append(order, int32(rem.rank))
	}
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	return order
}

// poissonArrivals returns the arrival offsets of a Poisson process over
// [0, window) conditioned on its count: n sorted uniform instants, so every
// run of one length offers the same number of requests.
func poissonArrivals(rng *rand.Rand, n int, window time.Duration) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(due, func(a, b int) bool { return due[a] < due[b] })
	return due
}

// tokensPerRequestMean is the mean visible token count of the pages behind
// the sequence's first n requests.
func (s *sequence) tokensPerRequestMean(n int) float64 {
	if n == 0 {
		return 0
	}
	sum := 0
	for i := 0; i < n; i++ {
		sum += s.pages[s.order[i%len(s.order)]].tokens
	}
	return float64(sum) / float64(n)
}
