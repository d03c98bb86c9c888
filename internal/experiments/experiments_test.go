package experiments

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/smoke-tables.golden.txt")

// smokeSetup builds one shared smoke-scale setup for all tests in this
// package (building it is the expensive part).
var smoke *Setup

func getSmoke(t testing.TB) *Setup {
	t.Helper()
	if smoke != nil {
		return smoke
	}
	s, err := NewSetup(DefaultOptions(ScaleSmoke))
	if err != nil {
		t.Fatal(err)
	}
	smoke = s
	return s
}

func TestSetupSplits(t *testing.T) {
	s := getSmoke(t)
	opt := s.Opt
	wantSeen := opt.SeenDomains * opt.PagesPerDomain
	gotSeen := len(s.SeenTrain) + len(s.SeenDev) + len(s.SeenTest)
	if gotSeen != wantSeen {
		t.Fatalf("seen split covers %d pages, want %d", gotSeen, wantSeen)
	}
	wantUnseen := opt.UnseenDomains * opt.PagesPerDomain
	gotUnseen := len(s.UnseenTrain) + len(s.UnseenDev) + len(s.UnseenTest)
	if gotUnseen != wantUnseen {
		t.Fatalf("unseen split covers %d pages, want %d", gotUnseen, wantUnseen)
	}
	if len(s.AllTrain) != len(s.SeenTrain)+len(s.UnseenTrain) {
		t.Fatal("AllTrain must be the union of train splits")
	}
	if len(s.SeenTrain) == 0 || len(s.SeenTest) == 0 || len(s.UnseenTest) == 0 {
		t.Fatal("degenerate split")
	}
}

func TestSeenTopicIDs(t *testing.T) {
	s := getSmoke(t)
	topics := s.SeenTopicIDs()
	if len(topics) != s.Opt.SeenDomains {
		t.Fatalf("got %d seen topics, want %d", len(topics), s.Opt.SeenDomains)
	}
	for _, tp := range topics {
		if len(tp) == 0 {
			t.Fatal("empty topic")
		}
		for _, id := range tp {
			if id <= 0 {
				t.Fatal("topic token missing from vocab")
			}
		}
	}
}

func TestEncoderFactoryIndependence(t *testing.T) {
	s := getSmoke(t)
	a := s.NewEncoder(EncGloVe)
	b := s.NewEncoder(EncGloVe)
	// Two encoders must not share parameter storage (each model fine-tunes
	// its own copy).
	ap, bp := a.Params()[0], b.Params()[0]
	orig := bp.Value.Data[0]
	ap.Value.Data[0] += 42
	if bp.Value.Data[0] != orig {
		t.Fatal("GloVe encoders share storage")
	}
	// BERT encoders start from the shared pre-trained weights.
	c := s.NewEncoder(EncBERT)
	d := s.NewEncoder(EncBERT)
	if c.Params()[0].Value.Data[0] != d.Params()[0].Value.Data[0] {
		t.Fatal("BERT encoders should start identical (cloned pretrained weights)")
	}
}

func TestRunUnknownID(t *testing.T) {
	s := getSmoke(t)
	if _, err := s.Run("nope"); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestAllIDsRunnable(t *testing.T) {
	ids := AllIDs()
	if len(ids) != 12 {
		t.Fatalf("expected 12 experiments, got %d", len(ids))
	}
}

// TestAllTablesSmoke runs every experiment at smoke scale and checks the
// structural properties of each table. This is the integration test for the
// whole reproduction stack (corpus → models → distillation → metrics). It
// runs them as `wbexp -scale smoke` does — on a setup of its own, in AllIDs
// order, since each model's seed is drawn from the setup in turn — and pins
// the rendered tables, byte for byte, to testdata/smoke-tables.golden.txt:
// a change to training, the corpus, evaluation or numerics that moves any
// cell fails here. -update rewrites the file, for a change meant to move
// cells.
func TestAllTablesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline test")
	}
	s, err := NewSetup(DefaultOptions(ScaleSmoke))
	if err != nil {
		t.Fatal(err)
	}

	t4, rows4 := s.Table4()
	if len(rows4) != 4 || rows4[0].Method != "No Distill" || rows4[3].Method != "Dual-Distill" {
		t.Fatalf("Table IV rows: %+v", rows4)
	}
	for _, r := range rows4 {
		if r.UnseenRM < r.UnseenEM || r.SeenRM < r.SeenEM {
			t.Fatalf("RM must dominate EM: %+v", r)
		}
	}
	checkRendered(t, t4, "Dual-Distill")

	t5, data5 := s.Table5()
	if len(data5) != 3 {
		t.Fatalf("Table V teachers: %d", len(data5))
	}
	if _, ok := data5["BERT-Single"]["Tri-Distill"]; ok {
		t.Fatal("Tri-Distill must be undefined for single-task teachers")
	}
	if !data5["Joint-WB"]["Tri-Distill"].Valid {
		t.Fatal("Tri-Distill missing for Joint-WB teacher")
	}
	checkRendered(t, t5, "Pip-Distill")

	t6, rows6 := s.Table6()
	if len(rows6) != 6 {
		t.Fatalf("Table VI rows: %d", len(rows6))
	}
	for _, r := range rows6 {
		if r.Scores.F1 < 0 || r.Scores.F1 > 100 {
			t.Fatalf("F1 out of range: %+v", r)
		}
	}
	checkRendered(t, t6, "Joint-WB")

	t7, rows7 := s.Table7()
	if len(rows7) != 5 {
		t.Fatalf("Table VII rows: %d", len(rows7))
	}
	checkRendered(t, t7, "GloVe→[Bi-LSTM, LSTM]")

	t8, rows8 := s.Table8()
	if len(rows8) != 7 || rows8[6].System != "Joint-WB" {
		t.Fatalf("Table VIII rows: %+v", rows8)
	}
	checkRendered(t, t8, "Ave-Extractor")

	t9, rows9 := s.Table9()
	if len(rows9) != 7 {
		t.Fatalf("Table IX rows: %d", len(rows9))
	}
	checkRendered(t, t9, "Pip-Extractor+Pip-Generator")

	t10, rows10 := s.Table10()
	if len(rows10) != 8 {
		t.Fatalf("Table X rows: %d", len(rows10))
	}
	for _, r := range rows10 {
		if r.SeenScore < 0 || r.SeenScore > 2 || r.UnseenScore < 0 || r.UnseenScore > 2 {
			t.Fatalf("score out of 0–2 range: %+v", r)
		}
	}
	checkRendered(t, t10, "Tri-Distill (our proposed)")

	tq, dq := s.DatasetQuality()
	if dq.Pages == 0 || dq.KappaTopic < 0.55 {
		t.Fatalf("dataset quality: %+v", dq)
	}
	checkRendered(t, tq, "topic suitability")

	ts, rowsS := s.Sensitivity()
	if len(rowsS) != 9 { // 3 models × 3 proportions
		t.Fatalf("sensitivity rows: %d", len(rowsS))
	}
	for _, r := range rowsS {
		sum := r.FollowsFirst + r.FollowsSecond + r.FollowsNeither
		if sum < 99.9 || sum > 100.1 {
			t.Fatalf("sensitivity fractions do not partition: %+v", r)
		}
	}
	checkRendered(t, ts, "Dual-Distill")

	var got bytes.Buffer
	for _, tab := range []*Table{t4, t5, t6, t7, t8, t9, t10, tq, ts} {
		got.WriteString(tab.String() + "\n")
	}
	for _, id := range AllIDs()[9:] { // names, hier and ablation: TestExtensionsSmoke checks their structure
		tab, err := s.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString(tab.String() + "\n")
	}
	const golden = "testdata/smoke-tables.golden.txt"
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("smoke tables moved from %s (rerun with -update if the change is meant to move them):\n%s", golden, got.Bytes())
	}
}

func checkRendered(t *testing.T, tab *Table, mustContain string) {
	t.Helper()
	out := tab.String()
	if !strings.Contains(out, mustContain) {
		t.Fatalf("table %s rendering missing %q:\n%s", tab.ID, mustContain, out)
	}
	if !strings.Contains(out, "Table "+tab.ID) {
		t.Fatalf("table header missing:\n%s", out)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "T", Caption: "c", Header: []string{"A", "Blong"}}
	tab.Add("x", "1.00")
	tab.Add("longer", "2.00")
	out := tab.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("rendering lines: %q", lines)
	}
	// Columns aligned: header and rows share prefix width.
	if len(lines[1]) == 0 || len(lines[3]) == 0 {
		t.Fatal("empty lines")
	}
}

func TestExtensionsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	s := getSmoke(t)
	tn, dn := s.AttrNames()
	if dn.SeenAccuracy < 0 || dn.SeenAccuracy > 100 || dn.UnseenAccuracy < 0 || dn.UnseenAccuracy > 100 {
		t.Fatalf("names accuracy out of range: %+v", dn)
	}
	checkRendered(t, tn, "Unseen domains")

	th, dh := s.Hierarchy()
	for _, f1 := range []float64{dh.CombinedL1, dh.CombinedL2, dh.IndependentL1, dh.IndependentL2} {
		if f1 < 0 || f1 > 100 {
			t.Fatalf("hier F1 out of range: %+v", dh)
		}
	}
	checkRendered(t, th, "combined signal")

	ta, da := s.Ablations()
	if da.MarkovSectionAcc <= 0 || da.IndepSectionAcc <= 0 {
		t.Fatalf("ablation section accuracies: %+v", da)
	}
	if len(da.SoftWeightEM) != 3 || len(da.BeamEM) != 4 {
		t.Fatalf("ablation sweep sizes: %+v", da)
	}
	checkRendered(t, ta, "Markov dependency")
}
