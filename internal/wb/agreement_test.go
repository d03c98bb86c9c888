package wb

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webbrief/internal/corpus"
	"webbrief/internal/nn"
	"webbrief/internal/textproc"
)

// kindAgreement is one row of the tier-agreement table: for one decision
// kind over a page set, how many decisions both tiers took, the largest
// |float32 gap − float64 gap| among them and the thinnest float32 gap.
type kindAgreement struct {
	kind     nn.GapKind
	n        int
	maxDelta float64
	thinnest float64
}

// agreementTable is what one page set gives on one kernel mode: a row per
// decision kind, and how many pages the guard escalates.
type agreementTable struct {
	rows      [len(nn.Gaps{})]kindAgreement
	pages     int
	escalated int
}

// tracedBrief is one page briefed on one tier as a batch of one: the brief's
// JSON, its per-kind gap minima and every decision's gap, per kind, in the
// order the tier took them.
type tracedBrief struct {
	js   []byte
	gaps nn.Gaps
	all  [len(nn.Gaps{})][]float64
}

// traceBrief briefs inst on m with s, recording every decision through
// nn.TraceGaps.
func traceBrief[T float32 | float64](m ModelOf[T], inst *Instance, v *textproc.Vocab, beam int, s *BatchScratchOf[T]) tracedBrief {
	var tb tracedBrief
	restore := nn.TraceGaps(func(k nn.GapKind, gap float64) { tb.all[k] = append(tb.all[k], gap) })
	briefs, outs := ExtractBriefBatch(m, []*Instance{inst}, v, s)
	DecodeTopicBatch(outs, v, beam, s, briefs)
	restore()
	tb.gaps = outs[0].Gaps
	js, err := json.Marshal(briefs[0])
	if err != nil {
		panic(err)
	}
	tb.js = js
	return tb
}

// tierAgreement briefs every page on both folded tiers and tabulates the
// decisions decision by decision. It fails t when the guard lets a page
// through (its float32 gaps all above bounds) whose two briefs differ, or
// whose two tiers took a different number of decisions of some kind. A page
// the guard escalates may differ; its kinds that did not decide alike are
// left out of the table.
func tierAgreement(t *testing.T, teacher ModelOf[float64], student ModelOf[float32], insts []*Instance, v *textproc.Vocab, beam int, bounds nn.Gaps) agreementTable {
	t.Helper()
	var tab agreementTable
	for k := range tab.rows {
		tab.rows[k] = kindAgreement{kind: nn.GapKind(k), thinnest: math.Inf(1)}
	}
	ts, ss := NewBatchScratchOf[float64](v, beam, 1), NewBatchScratchOf[float32](v, beam, 1)
	for i, inst := range insts {
		want := traceBrief(teacher, inst, v, beam, ts)
		got := traceBrief(student, inst, v, beam, ss)
		escalate := got.gaps.Within(bounds)
		tab.pages++
		if escalate {
			tab.escalated++
		} else if string(got.js) != string(want.js) {
			t.Errorf("page %d: the guard serves the student's brief %s, the teacher's is %s (gaps %v)", i, got.js, want.js, got.gaps)
		}
		for k := range tab.rows {
			g, w := got.all[k], want.all[k]
			if len(g) != len(w) {
				if !escalate {
					t.Errorf("page %d: %d %s decisions on the student, %d on the teacher, not escalated", i, len(g), nn.GapKind(k), len(w))
				}
				continue
			}
			r := &tab.rows[k]
			for j := range g {
				r.n++
				r.maxDelta = max(r.maxDelta, math.Abs(g[j]-w[j]))
				r.thinnest = min(r.thinnest, g[j])
			}
		}
	}
	return tab
}

// check holds every row's largest gap difference to half its kind's bound,
// and logs the table.
func (tab agreementTable) check(t *testing.T, bounds nn.Gaps) {
	t.Helper()
	for _, r := range tab.rows {
		t.Logf("%-8s %8d decisions  max |Δgap| %.3g  thinnest f32 gap %.3g  bound %.3g", r.kind, r.n, r.maxDelta, r.thinnest, bounds[r.kind])
		if !(r.maxDelta <= bounds[r.kind]/2) {
			t.Errorf("%s: max |float32 gap − float64 gap| %.3g exceeds half its bound %.3g", r.kind, r.maxDelta, bounds[r.kind])
		}
	}
	t.Logf("escalated %d of %d pages (%.2f %%)", tab.escalated, tab.pages, 100*float64(tab.escalated)/float64(tab.pages))
}

// TestTierAgreement is the tier-agreement table, one row per decision kind:
// every decision of every page, briefed on the folded float32 student and the
// folded float64 teacher as batches of one in each kernel mode, must have
// float32 and float64 gaps closer than half its kind's bound in
// studentBounds, and every page the guard does not escalate must get the
// same brief from both tiers. The golden rows run the golden model on the
// golden pages. The bench-bundle rows run the bench bundle over bench/wbload's
// page universe of a seed, each page with and without a visitor sentence;
// they need the bundle bench/run.sh trains into .bench_build/bin and run only
// when -run names them:
//
//	go test -v -run 'TestTierAgreement/bench-bundle/seed=1$' ./internal/wb
func TestTierAgreement(t *testing.T) {
	t.Run("golden", func(t *testing.T) {
		m, v := goldenModel(t)
		insts := goldenPages(t, v)
		for mode, set := range kernelModes(t) {
			t.Run("kernels="+mode, func(t *testing.T) {
				set()
				teacher, student := foldBoth(t, m)
				tierAgreement(t, teacher, student, insts, v, m.Cfg.BeamSize, studentBounds).check(t, studentBounds)
			})
		}
	})
	t.Run("bench-bundle", func(t *testing.T) {
		m, v := benchBundle(t)
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				pages, err := universePages(seed)
				if err != nil {
					t.Fatal(err)
				}
				for mode, set := range kernelModes(t) {
					set()
					teacher, student := foldBoth(t, m)
					for _, visitor := range []bool{false, true} {
						t.Run(fmt.Sprintf("kernels=%s/visitor=%v", mode, visitor), func(t *testing.T) {
							insts := make([]*Instance, len(pages))
							for i, p := range pages {
								html := p.html
								if visitor {
									html = withVisitor(p, seed, i)
								}
								insts[i] = InstanceFromHTML(html, v, MaxPageTokens)
							}
							tierAgreement(t, teacher, student, insts, v, m.Cfg.BeamSize, studentBounds).check(t, studentBounds)
						})
					}
				}
			})
		}
	})
}

// goldenModel decodes testdata's golden model.
func goldenModel(t *testing.T) (*JointWB, *textproc.Vocab) {
	t.Helper()
	disk, err := os.ReadFile(filepath.Join("testdata", "model-golden.snap"))
	if err != nil {
		t.Fatal(err)
	}
	m, v, err := DecodeSnapshot(disk)
	if err != nil {
		t.Fatal(err)
	}
	return m, v
}

// foldBoth folds m for serving at both element types, in the current kernel
// mode.
func foldBoth(t *testing.T, m *JointWB) (*FoldedOf[float64], *FoldedOf[float32]) {
	t.Helper()
	teacher, err := FoldForServing[float64](m)
	if err != nil {
		t.Fatal(err)
	}
	student, err := FoldForServing[float32](m)
	if err != nil {
		t.Fatal(err)
	}
	return teacher, student
}

// benchBundleSHA is the bundle bench/run.sh trains (scripts/check.sh's
// training byte-identity stage pins the same digest).
const benchBundleSHA = "7502e8455762540e80a9b3cf8f823aa3ce097f5973a4b6677e65b31a846e2ce2"

// benchBundle loads the bench bundle from .bench_build/bin. It skips unless
// -run names the bench-bundle rows, and fails when they are named but no
// bundle there has the pinned digest.
func benchBundle(t *testing.T) (*JointWB, *textproc.Vocab) {
	t.Helper()
	if f := flag.Lookup("test.run"); f == nil || !strings.Contains(f.Value.String(), "bench-bundle") {
		t.Skip("the bench-bundle rows run only when -run names them (scripts/check.sh's tier agreement stage)")
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", ".bench_build", "bin", "bundle-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		disk, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(disk); hex.EncodeToString(sum[:]) != benchBundleSHA {
			continue
		}
		m, v, err := DecodeSnapshot(disk)
		if err != nil {
			t.Fatal(err)
		}
		return m, v
	}
	t.Fatalf("no bundle with sha256 %s under .bench_build/bin: run bash bench/run.sh --workload direct-miss-teacher --seconds 1 --trace 0 first", benchBundleSHA)
	return nil, nil
}

// universePage is one page of bench/wbload's universe: its markup and its
// domain's content words.
type universePage struct {
	html  string
	words []string
}

// universePages regenerates bench/wbload's page universe of a seed (its
// buildUniverse): 2000 corpus pages over all 24 domains, interleaved, every
// fourth one a corpus.ConcatPages pair with the next.
func universePages(seed int64) ([]universePage, error) {
	const size = 2000
	domains := corpus.Domains()
	ds, err := corpus.Generate(corpus.Config{Seed: seed, PagesPerDomain: (size + len(domains) - 1) / len(domains), SeenDomains: len(domains)})
	if err != nil {
		return nil, err
	}
	words := map[string][]string{}
	for _, d := range domains {
		words[d.Name] = d.Words
	}
	order := rand.New(rand.NewSource(seed)).Perm(len(ds.Pages))
	pages := make([]universePage, size)
	for i := range pages {
		p := ds.Pages[order[i]]
		html := p.HTML
		if i%4 == 3 {
			p = corpus.ConcatPages(p, ds.Pages[order[(i+1)%len(order)]], 0.5)
			var b strings.Builder
			fmt.Fprintf(&b, "<!DOCTYPE html>\n<html>\n<head>\n<title>%s</title>\n</head>\n<body>\n<main>\n", strings.Join(p.Topic, " "))
			for _, s := range p.Sentences {
				fmt.Fprintf(&b, "  <p>%s</p>\n", strings.Join(s.Tokens, " "))
			}
			b.WriteString("</main>\n</body>\n</html>\n")
			html = b.String()
		}
		pages[i] = universePage{html: html, words: words[p.Domain]}
	}
	return pages, nil
}

// withVisitor appends the sentence bench/wbload's unique workloads give
// request i of a seed: "visitor", four of the domain's words and "ref i".
func withVisitor(p universePage, seed int64, i int) string {
	h := splitmix64(uint64(seed)<<20 ^ uint64(i))
	var b strings.Builder
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
	return b.String()
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
