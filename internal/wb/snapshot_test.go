package wb

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webbrief/internal/snapshot"
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
// parameters (bit-exact) and identical predictions.
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

// TestLoadModelAuto: the one loader every binary boots through accepts the
// snapshot format, current and version 1, and answers everything without
// the snapshot magic — a gob bundle from an older wbtrain included — with
// the classified removal error that names the way out.
func TestLoadModelAuto(t *testing.T) {
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
		got, _, err := LoadModelAuto(bytes.NewReader(tc.data))
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

// TestDecodeSnapshotRejectsCorruption: wb-level decoding inherits the
// container's corruption detection and adds its own shape validation.
func TestDecodeSnapshotRejectsCorruption(t *testing.T) {
	m, v, _ := trainedTestModel(t)
	data, err := EncodeSnapshot(m, v)
	if err != nil {
		t.Fatal(err)
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

// FuzzDecodeSnapshot: the wb-level decoder must never panic on arbitrary
// bytes — corrupt models fail closed at startup.
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

// BenchmarkFoldForServing: pool boot's model work — one encode, one decode
// and the fold tables, whatever the replica count.
func BenchmarkFoldForServing(b *testing.B) {
	_, v := testData(b, 2, 2)
	m := newTestJointWB(v, 42)
	for i := 0; i < b.N; i++ {
		if _, err := FoldForServing(m, v); err != nil {
			b.Fatal(err)
		}
	}
}
