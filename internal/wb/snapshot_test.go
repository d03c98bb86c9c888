package wb

import (
	"bytes"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"webbrief/internal/nn"
	"webbrief/internal/snapshot"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
)

var updateSnap = flag.Bool("update-snap", false, "rewrite the golden model snapshot")

// trainedTestModel builds a small deterministic trained model shared by
// the snapshot tests.
func trainedTestModel(t testing.TB) (*JointWB, *textproc.Vocab, []*Instance) {
	t.Helper()
	insts, v := testData(t, 2, 2)
	m := newTestJointWB(v, 42)
	tc := DefaultTrainConfig()
	tc.Epochs = 2
	TrainModel(m, insts, tc)
	return m, v, insts
}

// TestSnapshotRoundTrip: a snapshotted model decodes to identical
// parameters (bit-exact) and identical predictions. The decoder draws no
// initial values and decodes each slab into its parameter's storage, so a
// slab that missed its parameter leaves zeros that fail the bit comparison;
// and no decoded parameter, the encoder table included, carries a gradient
// buffer: a decoded model is an inference model.
func TestSnapshotRoundTrip(t *testing.T) {
	m, v, insts := trainedTestModel(t)
	data, err := EncodeSnapshot(m, v)
	if err != nil {
		t.Fatal(err)
	}
	m2, v2, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Size() != v.Size() {
		t.Fatalf("vocab size %d vs %d", v2.Size(), v.Size())
	}
	for i := 0; i < v.Size(); i++ {
		if v2.Token(i) != v.Token(i) {
			t.Fatalf("vocab token %d: %q vs %q", i, v2.Token(i), v.Token(i))
		}
	}
	assertSameParams(t, m, m2)
	for _, p := range m2.Params() {
		if p.Grad != nil {
			t.Fatalf("decoded param %s carries a %dx%d gradient buffer", p.Name, p.Grad.Rows, p.Grad.Cols)
		}
	}
	for _, inst := range insts[:2] {
		got := GenerateTopic(m2, inst, 1, 4)
		want := GenerateTopic(m, inst, 1, 4)
		if len(got) != len(want) {
			t.Fatalf("decode mismatch: %v vs %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("decode mismatch: %v vs %v", got, want)
			}
		}
	}
}

// assertSameParams compares two models parameter-by-parameter, bit-exact.
func assertSameParams(t *testing.T, a, b *JointWB) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("param count %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		va, vb := pa[i].Value, pb[i].Value
		if va.Rows != vb.Rows || va.Cols != vb.Cols {
			t.Fatalf("param %d shape %dx%d vs %dx%d", i, va.Rows, va.Cols, vb.Rows, vb.Cols)
		}
		for j := range va.Data {
			if math.Float64bits(va.Data[j]) != math.Float64bits(vb.Data[j]) {
				t.Fatalf("param %d (%s) value %d not bit-exact: %x vs %x",
					i, pa[i].Name, j, va.Data[j], vb.Data[j])
			}
		}
	}
}

// TestLoadModel: the one loader every binary boots through accepts the
// snapshot format, current and version 1, and answers everything without
// the snapshot magic — a gob bundle from an older wbtrain included — with
// the classified removal error that names the way out.
func TestLoadModel(t *testing.T) {
	m, v, _ := trainedTestModel(t)
	var fresh bytes.Buffer
	if err := SaveSnapshot(&fresh, m, v); err != nil {
		t.Fatal(err)
	}
	goldenV1, err := os.ReadFile(filepath.Join("testdata", "model-golden-v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	const removal = "gob bundles were removed — retrain with `wbtrain`"
	for _, tc := range []struct {
		name    string
		data    []byte
		wantErr string // "" = must load and equal m
	}{
		{"fresh v2 snapshot", fresh.Bytes(), ""},
		{"golden v1 snapshot", goldenV1, ""},
		{"empty input", nil, removal},
		{"truncated snapshot", fresh.Bytes()[:fresh.Len()/2], "snapshot:"},
		{"non-snapshot bytes", []byte("\x3a\xff\x81\x03\x01\x01\x0cbundleHeader"), removal},
	} {
		got, _, err := LoadModel(bytes.NewReader(tc.data))
		if tc.wantErr == "" {
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			assertSameParams(t, m, got)
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestDrawlessModelShapes: the model DecodeSnapshot allocates (newJointWB
// with draw unset) has NewJointWB's parameters, in order, by name and shape,
// every weight zero — nothing was drawn for the params section to overwrite
// (biases are constants, not draws: the LSTMs' forget gates start at 1) —
// and no gradient buffer: nothing trains a decoded model.
func TestDrawlessModelShapes(t *testing.T) {
	_, v := testData(t, 1, 1)
	drawn := newTestJointWB(v, 7)
	bare := newJointWB("jwb", smallGloVeEncoder(v, 16, 7), v.Size(), drawn.Cfg, false)
	pd, pb := drawn.Params(), bare.Params()
	if len(pd) != len(pb) {
		t.Fatalf("%d parameters without drawing, %d drawn", len(pb), len(pd))
	}
	for i, p := range pb[1:] { // [0] is the encoder table, built by the caller
		q := pd[i+1]
		if p.Name != q.Name || p.Value.Rows != q.Value.Rows || p.Value.Cols != q.Value.Cols {
			t.Fatalf("param %d: %s %dx%d without drawing, %s %dx%d drawn",
				i+1, p.Name, p.Value.Rows, p.Value.Cols, q.Name, q.Value.Rows, q.Value.Cols)
		}
		if p.Grad != nil {
			t.Fatalf("param %s: a model built with no rng carries a gradient buffer", p.Name)
		}
		if strings.HasSuffix(p.Name, ".B") {
			continue
		}
		for _, x := range p.Value.Data {
			if x != 0 {
				t.Fatalf("param %s holds %v: a model built with no rng drew values", p.Name, x)
			}
		}
	}
}

// TestEncodeSnapshotRefusesNoMarkov: the format has no field for the
// NoMarkov ablation, so writing such a model must fail with an error that
// names the flag, not succeed with bytes DecodeSnapshot then rejects.
func TestEncodeSnapshotRefusesNoMarkov(t *testing.T) {
	_, v := testData(t, 1, 1)
	m := newTestJointWB(v, 7)
	m.Sec.NoMarkov = true
	if _, err := EncodeSnapshot(m, v); err == nil || !strings.Contains(err.Error(), "NoMarkov") {
		t.Fatalf("EncodeSnapshot of a NoMarkov model: error %v, want one naming NoMarkov", err)
	}
}

// TestSnapshotTrainingOnlyOptions: the meta section records neither
// Config.Dropout nor Config.Seed, because neither reaches an Eval forward:
// dropout runs only in Train mode, and the seed only draws the initial
// parameters, which the params section replaces. A model with the encoded
// parameters briefs bit for bit as the decoded one (dropout 0, seed 1)
// does, at every dropout rate and seed, on both tiers: folded and served in
// batches, and on the per-instance heap-tape Forward that wb.Briefer runs.
func TestSnapshotTrainingOnlyOptions(t *testing.T) {
	m, v, insts := trainedTestModel(t)
	data, err := EncodeSnapshot(m, v)
	if err != nil {
		t.Fatal(err)
	}
	decoded, _, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Cfg.Dropout != 0 || decoded.Cfg.Seed != 1 {
		t.Fatalf("decoded model has dropout %v, seed %d; DecodeSnapshot documents 0 and 1", decoded.Cfg.Dropout, decoded.Cfg.Seed)
	}
	digests := func(m *JointWB) [4]string {
		teacher, err := FoldForServing[float64](m)
		if err != nil {
			t.Fatal(err)
		}
		student, err := FoldForServing[float32](m)
		if err != nil {
			t.Fatal(err)
		}
		beam, tiers, unscored := m.Cfg.BeamSize, make([]int, len(insts)), make([]nn.Confidence, len(insts))
		tb, tc, tg := briefBatches[float64](teacher, insts, v, beam, 1)
		sb, sc, sg := briefBatches[float32](student, insts, v, beam, 1)
		var th, sh []*Brief
		for _, inst := range insts {
			th = append(th, heapTapeBrief[float64](teacher, inst, v, beam))
			sh = append(sh, heapTapeBrief[float32](student, inst, v, beam))
		}
		return [4]string{briefDigest(tb, tiers, tc, tg), briefDigest(sb, tiers, sc, sg),
			briefDigest(th, tiers, unscored, nil), briefDigest(sh, tiers, unscored, nil)}
	}
	want := digests(decoded)
	for _, dropout := range []float64{0, 0.2, 0.5} {
		for _, seed := range []int64{1, 7} {
			cfg := decoded.Cfg
			cfg.Dropout, cfg.Seed = dropout, seed
			enc := NewGloVeEncoder(tensor.New(v.Size(), m.Enc.Dim()))
			variant := NewJointWB("Joint-WB", enc, v.Size(), cfg)
			for i, p := range variant.Params() {
				copy(p.Value.Data, decoded.Params()[i].Value.Data)
			}
			if got := digests(variant); got != want {
				t.Errorf("dropout %v seed %d: briefs %v, decoded model's %v", dropout, seed, got, want)
			}
		}
	}
}

// TestSnapshotBeamSize: the beam width is part of the bundle, and every
// binary decodes at it. A bundle is outside input, so decoding refuses a
// width of 0 or one past maxSnapshotBeam, and encoding refuses to write one.
func TestSnapshotBeamSize(t *testing.T) {
	_, v := testData(t, 1, 1)
	m := newTestJointWB(v, 7)
	for _, beam := range []int{1, 4, maxSnapshotBeam} {
		m.Cfg.BeamSize = beam
		data, err := EncodeSnapshot(m, v)
		if err != nil {
			t.Fatalf("beam %d: %v", beam, err)
		}
		m2, _, err := DecodeSnapshot(data)
		if err != nil || m2.Cfg.BeamSize != beam {
			t.Fatalf("beam %d: decoded %v, err %v", beam, m2.Cfg.BeamSize, err)
		}
	}
	m.Cfg.BeamSize = 8
	good, err := EncodeSnapshot(m, v)
	if err != nil {
		t.Fatal(err)
	}
	for _, beam := range []int{0, maxSnapshotBeam + 1} {
		m.Cfg.BeamSize = beam
		if _, err := EncodeSnapshot(m, v); err == nil || !strings.Contains(err.Error(), "beam size") {
			t.Fatalf("EncodeSnapshot at beam %d: error %v, want one naming the beam size", beam, err)
		}
		if _, _, err := DecodeSnapshot(withMeta(t, good, metaBeam, uint64(beam))); err == nil || !strings.Contains(err.Error(), "beam size") {
			t.Fatalf("DecodeSnapshot at beam %d: error %v, want one naming the beam size", beam, err)
		}
	}
}

// TestSnapshotTopicLen: the topic length is part of the bundle too, and a
// briefing decodes that many steps at most. Decoding refuses a length of 0
// (every briefing on such a model would panic in its first decode step),
// one past maxSnapshotTopicLen and one past int range, and encoding refuses
// to write the first two.
func TestSnapshotTopicLen(t *testing.T) {
	_, v := testData(t, 1, 1)
	m := newTestJointWB(v, 7)
	for _, l := range []int{1, 4, maxSnapshotTopicLen} {
		m.Cfg.TopicLen = l
		data, err := EncodeSnapshot(m, v)
		if err != nil {
			t.Fatalf("topic length %d: %v", l, err)
		}
		m2, _, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatalf("topic length %d: %v", l, err)
		}
		if m2.Cfg.TopicLen != l {
			t.Fatalf("topic length %d: decoded %d", l, m2.Cfg.TopicLen)
		}
	}
	m.Cfg.TopicLen = 4
	good, err := EncodeSnapshot(m, v)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []uint64{0, maxSnapshotTopicLen + 1, math.MaxInt + 1} {
		if l <= math.MaxInt {
			m.Cfg.TopicLen = int(l)
			if _, err := EncodeSnapshot(m, v); err == nil || !strings.Contains(err.Error(), "topic length") {
				t.Fatalf("EncodeSnapshot at topic length %d: error %v, want one naming the topic length", l, err)
			}
		}
		if _, _, err := DecodeSnapshot(withMeta(t, good, metaTopicLen, l)); err == nil || !strings.Contains(err.Error(), "topic length") {
			t.Fatalf("DecodeSnapshot at topic length %d: error %v, want one naming the topic length", l, err)
		}
	}
}

// TestSnapshotWidths: decoding refuses an embedding width or hidden size of
// 0, or one whose weights could not fit in the params section, before it
// allocates the model, so none of these panics or exhausts memory. Before
// the check, widths of 0 panicked in tensor.New, an embedding width of 2^62
// in makeslice, and a hidden size of 2^31 ended the process out of memory.
// Encoding refuses the hidden sizes too; no encoder holds such an embedding.
func TestSnapshotWidths(t *testing.T) {
	_, v := testData(t, 1, 1)
	m := newTestJointWB(v, 7)
	good, err := EncodeSnapshot(m, v)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field int
		x     uint64
	}{
		{metaEmbDim, 0},
		{metaEmbDim, 1 << 62},
		{metaHidden, 0},
		{metaHidden, 1 << 31},
	} {
		if _, _, err := DecodeSnapshot(withMeta(t, good, tc.field, tc.x)); err == nil || !strings.Contains(err.Error(), "hidden size") {
			t.Errorf("DecodeSnapshot with meta field %d = %d: error %v, want one naming the widths", tc.field, tc.x, err)
		}
		if tc.field == metaHidden {
			m2 := *m
			m2.Cfg.Hidden = int(tc.x)
			if _, err := EncodeSnapshot(&m2, v); err == nil || !strings.Contains(err.Error(), "hidden size") {
				t.Errorf("EncodeSnapshot at hidden size %d: error %v, want one naming the widths", tc.x, err)
			}
		}
	}
}

// The meta section's leading numbers — embedding width, hidden size, topic
// length, beam width — as withMeta indexes them.
const (
	metaEmbDim   = 0
	metaHidden   = 1
	metaTopicLen = 2
	metaBeam     = 3
	metaNumbers  = 4
)

// withMeta rewrites one of the numbers an encoded bundle's meta records,
// and nothing else.
func withMeta(t testing.TB, data []byte, field int, x uint64) []byte {
	t.Helper()
	s, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	meta, _ := s.Section(snapMetaSection)
	params, _ := s.Section(snapParamsSection)
	r := snapshot.NewReader(meta)
	var out snapshot.Buffer
	for i := range metaNumbers {
		v, err := r.Uvarint()
		if err != nil {
			t.Fatal(err)
		}
		if i == field {
			v = x
		}
		out.Uvarint(v)
	}
	tokens, err := r.Strings()
	if err != nil {
		t.Fatal(err)
	}
	out.Strings(tokens)
	b := snapshot.NewBuilder()
	if err := b.Add(snapMetaSection, out.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(snapParamsSection, params); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// withParams replaces an encoded bundle's params section with params, in a
// well-formed container: the checksums hold, so only the model decoder can
// refuse it.
func withParams(t testing.TB, data, params []byte) []byte {
	t.Helper()
	s, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	meta, _ := s.Section(snapMetaSection)
	b := snapshot.NewBuilder()
	if err := b.Add(snapMetaSection, meta); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(snapParamsSection, params); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// slabParams is m's params section as EncodeSnapshot writes it, except that
// the first parameter's slab holds delta values more than its shape (fewer,
// for a negative delta) while its rows and columns stay the shape's.
func slabParams(m *JointWB, delta int) []byte {
	var b snapshot.Buffer
	ps := m.Params()
	b.Uvarint(uint64(len(ps)))
	for i, p := range ps {
		b.String(p.Name)
		b.Uvarint(uint64(p.Value.Rows))
		b.Uvarint(uint64(p.Value.Cols))
		vals := p.Value.Data
		if i == 0 {
			vals = append(vals[:len(vals):len(vals)], make([]float64, max(delta, 0))...)
			vals = vals[:len(vals)+min(delta, 0)]
		}
		b.Float64s(vals)
	}
	return b.Bytes()
}

// TestDecodeSnapshotRejectsCorruption: wb-level decoding inherits the
// container's corruption detection and adds its own shape validation: a
// slab one value short of its parameter's shape or one value long, and a
// params section that ends inside a slab, are refused inside a well-formed
// container.
func TestDecodeSnapshotRejectsCorruption(t *testing.T) {
	m, v, _ := trainedTestModel(t)
	data, err := EncodeSnapshot(m, v)
	if err != nil {
		t.Fatal(err)
	}
	exact := slabParams(m, 0)
	for _, tc := range []struct {
		name, wantErr string
		params        []byte
	}{
		{"slab one value short", "destination holds", slabParams(m, -1)},
		{"slab one value long", "destination holds", slabParams(m, 1)},
		{"params cut inside the last slab", "exceeds", exact[:len(exact)-4]},
	} {
		if _, _, err := DecodeSnapshot(withParams(t, data, tc.params)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
	if !bytes.Equal(withParams(t, data, exact), data) {
		t.Fatal("slabParams(m, 0) is not the params section EncodeSnapshot writes")
	}
	for _, i := range []int{0, 7, len(data) / 2, len(data) - 5} {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x10
		if _, _, err := DecodeSnapshot(mut); err == nil {
			t.Fatalf("bit flip at %d accepted", i)
		}
	}
	if _, _, err := DecodeSnapshot(data[:len(data)/2]); err == nil {
		t.Fatal("truncation accepted")
	}

	// Structurally valid container with wrong sections.
	b := snapshot.NewBuilder()
	b.Add("wrong/section", []byte("x"))
	if _, _, err := DecodeSnapshot(b.Bytes()); err == nil {
		t.Fatal("missing sections accepted")
	}
}

// TestGoldenModelSnapshot pins the model bundle bytes: a committed
// snapshot of a deterministic trained model must decode forever.
// Regenerate with -update-snap after deliberate format changes.
func TestGoldenModelSnapshot(t *testing.T) {
	golden := filepath.Join("testdata", "model-golden.snap")
	m, v, insts := trainedTestModel(t)
	data, err := EncodeSnapshot(m, v)
	if err != nil {
		t.Fatal(err)
	}
	if *updateSnap {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	disk, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-snap to regenerate)", err)
	}
	if !bytes.Equal(disk, data) {
		t.Fatal("golden model snapshot drifted; deliberate format changes need -update-snap")
	}
	m2, _, err := DecodeSnapshot(disk)
	if err != nil {
		t.Fatal(err)
	}
	got := GenerateTopic(m2, insts[0], 1, 4)
	want := GenerateTopic(m, insts[0], 1, 4)
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("golden model predicts %v, want %v", got, want)
		}
	}
}

// TestGoldenModelSnapshotV1 pins backward compatibility: the committed
// version-1 model bundle (written before the container gained float32
// slabs) must keep decoding to the same model forever.
func TestGoldenModelSnapshotV1(t *testing.T) {
	disk, err := os.ReadFile(filepath.Join("testdata", "model-golden-v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	mv1, _, err := DecodeSnapshot(disk)
	if err != nil {
		t.Fatalf("version-1 model snapshot rejected: %v", err)
	}
	m, _, insts := trainedTestModel(t)
	assertSameParams(t, m, mv1)
	got := GenerateTopic(mv1, insts[0], 1, 4)
	want := GenerateTopic(m, insts[0], 1, 4)
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("v1 golden model predicts %v, want %v", got, want)
		}
	}
}

// TestLoadModelFromFile: a bundle loads identically from an *os.File and
// from a plain io.Reader, and the file is read into one buffer of its own
// size — a load from the file allocates at most that many bytes beyond
// decoding the same bytes in memory. (io.ReadAll's doubling allocates about
// twice the bundle again.)
func TestLoadModelFromFile(t *testing.T) {
	path := filepath.Join("testdata", "model-golden.snap")
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fromFile := func() (*JointWB, *textproc.Vocab) {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		m, v, err := LoadModel(f)
		if err != nil {
			t.Fatal(err)
		}
		return m, v
	}
	mf, vf := fromFile()
	mr, vr, err := LoadModel(struct{ io.Reader }{bytes.NewReader(disk)})
	if err != nil {
		t.Fatal(err)
	}
	assertSameParams(t, mf, mr)
	if mf.Cfg != mr.Cfg || !reflect.DeepEqual(vf, vr) {
		t.Fatalf("file load %+v, reader load %+v: config or vocabulary differ", mf.Cfg, mr.Cfg)
	}

	// allocated is the fewest bytes fn allocated over a few runs.
	allocated := func(fn func()) uint64 {
		least := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fn()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	decode := allocated(func() {
		if _, _, err := DecodeSnapshot(disk); err != nil {
			t.Fatal(err)
		}
	})
	load := allocated(func() { fromFile() })
	if limit := decode + uint64(len(disk)) + 8<<10; load > limit {
		t.Fatalf("loading the %d-byte bundle from its file allocates %d bytes, decoding it %d: want at most %d", len(disk), load, decode, limit)
	}
}

// FuzzDecodeSnapshot: the wb-level decoder must never panic on arbitrary
// bytes — corrupt models fail closed at startup. The seeds include slabs
// one value short and one long of their parameter, and a params section cut
// inside a slab, so the slab decoder's refusals are in the corpus.
func FuzzDecodeSnapshot(f *testing.F) {
	insts, v := testData(f, 1, 1)
	_ = insts
	m := newTestJointWB(v, 7)
	data, err := EncodeSnapshot(m, v)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte("WBSNAP"))
	f.Add(withMeta(f, data, metaBeam, 0))
	f.Add(withMeta(f, data, metaBeam, maxSnapshotBeam+1))
	f.Add(withMeta(f, data, metaTopicLen, 0))
	f.Add(withMeta(f, data, metaTopicLen, math.MaxInt+1))
	f.Add(withMeta(f, data, metaEmbDim, 0))
	f.Add(withMeta(f, data, metaEmbDim, 1<<62))
	f.Add(withMeta(f, data, metaHidden, 0))
	f.Add(withMeta(f, data, metaHidden, 1<<31))
	f.Add(withParams(f, data, slabParams(m, -1)))
	f.Add(withParams(f, data, slabParams(m, 1)))
	exact := slabParams(m, 0)
	f.Add(withParams(f, data, exact[:len(exact)-4]))
	f.Fuzz(func(t *testing.T, b []byte) {
		DecodeSnapshot(b)
	})
}

// BenchmarkColdBoot times decoding a model from snapshot bytes — the
// wbserve startup and replica-clone path.
func BenchmarkColdBoot(b *testing.B) {
	_, v := testData(b, 2, 2)
	m := newTestJointWB(v, 42)
	snapData, err := EncodeSnapshot(m, v)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(snapData)))
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeSnapshot(snapData); err != nil {
			b.Fatal(err)
		}
	}
}

// TestServingLoadMemory pins what a -cascade serving load of the golden
// model costs, read with runtime.MemStats after two GCs: LoadServing's
// teacher from the bundle's file, as wbserve loads it, and StudentOf's
// student. Decoding allocates the weights once and no gradient buffer. The
// whole load allocates the bundle's bytes, both tiers' weights (8 and 4 bytes
// a value) and their fold tables — no copy of the decoded model — and keeps
// all of it but the bundle's bytes live. Each bound allows a quarter of the
// float64 weights again as slack, for the vocabulary, the model's structs and
// the decode's bookkeeping; a gradient buffer or a copy of the teacher is
// four times that.
func TestServingLoadMemory(t *testing.T) {
	path := filepath.Join("testdata", "model-golden.snap")
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	settled := func() runtime.MemStats {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms
	}

	before := settled()
	m, _, err := DecodeSnapshot(disk)
	if err != nil {
		t.Fatal(err)
	}
	var decoded runtime.MemStats
	runtime.ReadMemStats(&decoded)
	var values uint64
	for _, p := range m.Params() {
		values += uint64(len(p.Value.Data))
	}
	weights, slack := 8*values, 2*values
	if got := decoded.TotalAlloc - before.TotalAlloc; got < weights || got > weights+slack {
		t.Fatalf("decoding %d weights allocates %d bytes: want the %d-byte weights once, at most %d in all", values, got, weights, weights+slack)
	}
	m = nil

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	before = settled()
	teacher, v, err := LoadServing(f)
	if err != nil {
		t.Fatal(err)
	}
	student, err := StudentOf(teacher)
	if err != nil {
		t.Fatal(err)
	}
	after := settled()
	held := weights + weights/2 + uint64(teacher.Tables().Bytes()+student.Tables().Bytes())
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(disk))+held+slack; got > limit {
		t.Fatalf("a -cascade serving load allocates %d bytes: want at most %d (%d-byte bundle, %d bytes of both tiers' weights and tables, %d slack)", got, limit, len(disk), held, slack)
	}
	if got, limit := after.HeapAlloc-before.HeapAlloc, held+slack; got > limit {
		t.Fatalf("a -cascade serving load holds %d bytes live: want at most %d (%d bytes of both tiers' weights and tables, %d slack)", got, limit, held, slack)
	}
	runtime.KeepAlive(disk) // held throughout, so its bytes are in neither delta
	runtime.KeepAlive(teacher)
	runtime.KeepAlive(student)
	runtime.KeepAlive(v)
}
