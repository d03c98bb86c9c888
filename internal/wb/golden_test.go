package wb

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	_ "unsafe" // go:linkname, for the kernel-mode switch below

	"webbrief/internal/corpus"
	"webbrief/internal/nn"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/serving-golden.txt")

// useLaneKernels is tensor's kernel-mode gate: true runs the assembly lane
// kernels, false their pure-Go bodies. Tests switch it to pin both modes;
// nothing else assigns it.
//
//go:linkname useLaneKernels webbrief/internal/tensor.useLaneKernels
var useLaneKernels bool

// kernelModes lists the kernel modes this host can run, each with a setter
// that switches to it for the rest of the test.
func kernelModes(t *testing.T) map[string]func() {
	prev := useLaneKernels
	t.Cleanup(func() { useLaneKernels = prev })
	modes := map[string]func(){"go": func() { useLaneKernels = false }}
	if prev {
		modes["lanes"] = func() { useLaneKernels = true }
	}
	return modes
}

// goldenThreshold is the cascade cutoff the golden applies to the student's
// confidence score. The golden model is barely trained, so its scores all
// sit under 0.003; this cutoff splits the golden pages between both tiers.
const goldenThreshold = 3e-4

// goldenPages is the fixed page set the serving golden briefs: pages of the
// two domains the golden model was trained on and of two it never saw, all
// from a corpus seed it was not trained on, then eight corpus.ConcatPages
// pairs of a seen page with an unseen one.
func goldenPages(t *testing.T, v *textproc.Vocab) []*Instance {
	ds, err := corpus.Generate(corpus.Config{Seed: 11, PagesPerDomain: 4, SeenDomains: 2, UnseenDomains: 2})
	if err != nil {
		t.Fatal(err)
	}
	pages := slices.Clone(ds.Pages)
	for i := 0; i < 8; i++ {
		pages = append(pages, corpus.ConcatPages(ds.Pages[i], ds.Pages[15-i], 0.5))
	}
	return NewInstances(pages, v, 0)
}

// briefDigest hashes what a client and the cascade see of a batch of
// briefings: every brief's JSON, the tier that answered it and the bits of
// the confidence that decided the tier.
func briefDigest(briefs []*Brief, tiers []int, confs []nn.Confidence) string {
	h := sha256.New()
	for i, b := range briefs {
		js, err := json.Marshal(b)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(h, "%s|%d|%x|%x\n", js, tiers[i], math.Float64bits(confs[i].Margin), math.Float64bits(confs[i].Posterior))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// briefBatches briefs insts through MakeBriefBatch in consecutive batches of
// size on one workspace, at beam width beam.
func briefBatches[T tensor.Float](m ModelOf[T], insts []*Instance, v *textproc.Vocab, beam, size int) ([]*Brief, []nn.Confidence) {
	s := NewBatchScratchOf[T](v, beam, size)
	var briefs []*Brief
	var confs []nn.Confidence
	for lo := 0; lo < len(insts); lo += size {
		b, c := MakeBriefBatch(m, insts[lo:min(lo+size, len(insts))], v, beam, s)
		briefs, confs = append(briefs, b...), append(confs, c...)
	}
	return briefs, confs
}

// libmMode names the path math.Exp takes: "fma" for libm's FMA body, "nofma"
// for the other (no FMA on the CPU, or GODEBUG=cpu.fma=off). The two round
// exp(-19.99993) differently.
func libmMode() string {
	if math.Float64bits(math.Exp(math.Float64frombits(0xc033fffb69984a0e))) == 0x3e21b4d78fba075d {
		return "fma"
	}
	return "nofma"
}

// TestServingGolden pins the serving path's bits: the committed golden model,
// folded for serving at float64 (the teacher) and float32 (the cascade's
// student), briefs a fixed page set as batches of 1 and of 8, and the digest
// of every brief, tier and confidence bit must match testdata's. Both digests
// are per libm path, because σ, tanh and the softmax exponentials are
// math.Exp's bits (README, "Determinism contract"); the float32 digest is
// also per kernel mode, because its lanes fuse each multiply-add and its
// pure-Go body rounds twice, while the float64 digest is one value in both.
// Regenerate with -update only for a change that is meant to move bits.
func TestServingGolden(t *testing.T) {
	disk, err := os.ReadFile(filepath.Join("testdata", "model-golden.snap"))
	if err != nil {
		t.Fatal(err)
	}
	m, v, err := DecodeSnapshot(disk)
	if err != nil {
		t.Fatal(err)
	}
	insts, beam := goldenPages(t, v), m.Cfg.BeamSize

	got := map[string]string{}
	for mode, set := range kernelModes(t) {
		set() // before folding: the tables are products too
		teacher, err := FoldForServing[float64](m)
		if err != nil {
			t.Fatal(err)
		}
		student, err := FoldForServing[float32](m)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{1, 8} {
			tb, tc := briefBatches[float64](teacher, insts, v, beam, size)
			got[fmt.Sprintf("teacher libm=%s batch=%d", libmMode(), size)] = briefDigest(tb, make([]int, len(tb)), tc)

			sb, sc := briefBatches[float32](student, insts, v, beam, size)
			tiers := make([]int, len(sb))
			final := slices.Clone(sb)
			for i, c := range sc {
				if c.Score() < goldenThreshold {
					tiers[i], final[i] = 1, tb[i]
				}
			}
			if !slices.Contains(tiers, 0) || !slices.Contains(tiers, 1) {
				t.Fatalf("%s: tiers %v: the golden threshold must split the pages between both tiers", mode, tiers)
			}
			got[fmt.Sprintf("cascade kernels=%s libm=%s batch=%d", mode, libmMode(), size)] = briefDigest(final, tiers, sc)
		}
	}

	path := filepath.Join("testdata", "serving-golden.txt")
	want := readGolden(t, path)
	if *updateGolden {
		for k, d := range got {
			want[k] = d
		}
		writeGolden(t, path, want)
		return
	}
	for _, k := range sortedKeys(got) {
		switch w, ok := want[k]; {
		case !ok:
			t.Errorf("%s: no golden digest (run with -update to record it)", k)
		case got[k] != w:
			t.Errorf("%s: digest %s, golden %s", k, got[k], w)
		}
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// readGolden reads "<key>\t<digest>" lines; a missing file is empty.
func readGolden(t *testing.T, path string) map[string]string {
	out := map[string]string{}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return out
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, d, ok := strings.Cut(sc.Text(), "\t"); ok {
			out[k] = d
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func writeGolden(t *testing.T, path string, digests map[string]string) {
	var b strings.Builder
	for _, k := range sortedKeys(digests) {
		fmt.Fprintf(&b, "%s\t%s\n", k, digests[k])
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
