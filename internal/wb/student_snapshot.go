package wb

import (
	"fmt"
	"io"

	"webbrief/internal/nn"
	"webbrief/internal/snapshot"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
)

// Snapshot section names for a float32 student bundle. Distinct from the
// teacher's jointwb/* sections so a loader (and wbsnap inspect) can tell
// the two apart from the directory alone.
const (
	snapStudentMetaSection   = "jointwb32/meta"
	snapStudentParamsSection = "jointwb32/params"
)

// studentParam is one named float32 weight matrix in the student's
// deterministic serialisation order.
type studentParam struct {
	name string
	m    *tensor.Matrix32
}

// studentParams enumerates every student weight in a fixed order shared by the
// encoder and decoder. Both section-predictor paths are serialised (the
// conversion materialises both), so NoMarkov round-trips regardless of
// which path is active.
func studentParams(m *JointWB32) []studentParam {
	ps := []studentParam{{"glove.table", m.Enc.(*GloVeEncoderOf[float32]).Emb.Table.Value}}
	appendLSTM := func(prefix string, l *nn.LSTMOf[float32]) {
		ps = append(ps,
			studentParam{prefix + ".wx", l.Wx.Value},
			studentParam{prefix + ".wh", l.Wh.Value},
			studentParam{prefix + ".b", l.B.Value},
		)
	}
	appendLSTM("ext.fwd", m.ExtLSTM.Fwd)
	appendLSTM("ext.bwd", m.ExtLSTM.Bwd)
	appendLSTM("gen.fwd", m.GenLSTM.Fwd)
	appendLSTM("gen.bwd", m.GenLSTM.Bwd)
	ps = append(ps,
		studentParam{"sec.w1", m.Sec.W1.W.Value},
		studentParam{"sec.w2", m.Sec.W2.W.Value},
		studentParam{"sec.indep.w", m.Sec.Indep.W.Value},
		studentParam{"sec.indep.b", m.Sec.Indep.B.Value},
		studentParam{"dec.emb", m.Dec.Emb.Table.Value},
	)
	appendLSTM("dec.cell", m.Dec.Cell)
	ps = append(ps,
		studentParam{"dec.att", m.Dec.Att.W.Value},
		studentParam{"dec.out.w", m.Dec.Out.W.Value},
		studentParam{"dec.out.b", m.Dec.Out.B.Value},
		studentParam{"mem1.w", m.MemPr1.W.Value}, studentParam{"mem1.b", m.MemPr1.B.Value},
		studentParam{"mem2.w", m.MemPr2.W.Value}, studentParam{"mem2.b", m.MemPr2.B.Value},
		studentParam{"wce.w", m.WCE.W.Value}, studentParam{"wce.b", m.WCE.B.Value},
		studentParam{"wq.w", m.WQ.W.Value}, studentParam{"wq.b", m.WQ.B.Value},
		studentParam{"attE.w", m.AttE.W.Value},
		studentParam{"tag.w", m.TagW.W.Value}, studentParam{"tag.b", m.TagW.B.Value},
		studentParam{"wcg.w", m.WCG.W.Value}, studentParam{"wcg.b", m.WCG.B.Value},
		studentParam{"we.w", m.WE.W.Value}, studentParam{"we.b", m.WE.B.Value},
		studentParam{"attG.w", m.AttG.W.Value}, studentParam{"attG.b", m.AttG.B.Value},
	)
	return ps
}

// EncodeStudentSnapshot serialises a float32 student and its vocabulary
// into a version-2 snapshot container with float32 parameter slabs — half
// the bytes of the teacher bundle, and what wbserve's cascade tier loads.
func EncodeStudentSnapshot(m *JointWB32, v *textproc.Vocab) ([]byte, error) {
	if _, ok := m.Enc.(*GloVeEncoderOf[float32]); !ok {
		return nil, fmt.Errorf("wb: EncodeStudentSnapshot supports GloVe-encoder students, got %T", m.Enc)
	}
	var meta snapshot.Buffer
	meta.Uvarint(uint64(m.Enc.Dim()))
	meta.Uvarint(uint64(m.Cfg.Hidden))
	meta.Uvarint(uint64(m.Cfg.TopicLen))
	meta.Uvarint(uint64(m.Cfg.BeamSize))
	noMarkov := uint64(0)
	if m.Sec.NoMarkov {
		noMarkov = 1
	}
	meta.Uvarint(noMarkov)
	tokens := make([]string, v.Size())
	for i := range tokens {
		tokens[i] = v.Token(i)
	}
	meta.Strings(tokens)

	var params snapshot.Buffer
	ps := studentParams(m)
	params.Uvarint(uint64(len(ps)))
	for _, p := range ps {
		params.String(p.name)
		params.Uvarint(uint64(p.m.Rows))
		params.Uvarint(uint64(p.m.Cols))
		params.Float32s(p.m.Data)
	}

	b := snapshot.NewBuilder()
	if err := b.Add(snapStudentMetaSection, meta.Bytes()); err != nil {
		return nil, err
	}
	if err := b.Add(snapStudentParamsSection, params.Bytes()); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// DecodeStudentSnapshot reconstructs a float32 student from
// EncodeStudentSnapshot output. The model skeleton is rebuilt from the
// metadata through the same constructors the live conversion uses, so every
// shape in the params section is validated against a freshly sized matrix.
func DecodeStudentSnapshot(data []byte) (*JointWB32, *textproc.Vocab, error) {
	s, err := snapshot.Decode(data)
	if err != nil {
		return nil, nil, err
	}
	metaPayload, ok := s.Section(snapStudentMetaSection)
	if !ok {
		return nil, nil, fmt.Errorf("wb: snapshot has no %q section", snapStudentMetaSection)
	}
	meta := snapshot.NewReader(metaPayload)
	var fields [5]uint64
	for i, what := range []string{"embDim", "hidden", "topicLen", "beamSize", "noMarkov"} {
		if fields[i], err = meta.Uvarint(); err != nil {
			return nil, nil, fmt.Errorf("wb: student snapshot meta %s: %w", what, err)
		}
	}
	tokens, err := meta.Strings()
	if err != nil {
		return nil, nil, fmt.Errorf("wb: student snapshot vocab: %w", err)
	}
	v := textproc.NewVocab()
	for _, tok := range tokens {
		v.Add(tok)
	}
	if v.Size() != len(tokens) {
		return nil, nil, fmt.Errorf("wb: student snapshot vocabulary has duplicates")
	}

	// Rebuild the skeleton via the teacher constructor + conversion: the
	// float64 scaffold is discarded, but it guarantees the student's shapes
	// can never drift from the live ConvertJointWB path.
	enc := NewGloVeEncoder(tensor.New(v.Size(), int(fields[0])))
	cfg := Config{Hidden: int(fields[1]), TopicLen: int(fields[2]), BeamSize: int(fields[3]), Seed: 1}
	scaffold := NewJointWB("Joint-WB", enc, v.Size(), cfg)
	scaffold.Sec.NoMarkov = fields[4] != 0
	m, err := ConvertJointWB(scaffold)
	if err != nil {
		return nil, nil, err
	}

	paramsPayload, ok := s.Section(snapStudentParamsSection)
	if !ok {
		return nil, nil, fmt.Errorf("wb: snapshot has no %q section", snapStudentParamsSection)
	}
	r := snapshot.NewReader(paramsPayload)
	count, err := r.Uvarint()
	if err != nil {
		return nil, nil, fmt.Errorf("wb: student snapshot params: %w", err)
	}
	ps := studentParams(m)
	if count != uint64(len(ps)) {
		return nil, nil, fmt.Errorf("wb: student parameter count mismatch: snapshot has %d, model has %d", count, len(ps))
	}
	for i, p := range ps {
		name, err := r.String()
		if err != nil {
			return nil, nil, fmt.Errorf("wb: student snapshot param %d: %w", i, err)
		}
		if name != p.name {
			return nil, nil, fmt.Errorf("wb: student snapshot param %d is %q, want %q", i, name, p.name)
		}
		rows, err := r.Uvarint()
		if err != nil {
			return nil, nil, fmt.Errorf("wb: student snapshot param %d (%s): %w", i, name, err)
		}
		cols, err := r.Uvarint()
		if err != nil {
			return nil, nil, fmt.Errorf("wb: student snapshot param %d (%s): %w", i, name, err)
		}
		if int(rows) != p.m.Rows || int(cols) != p.m.Cols {
			return nil, nil, fmt.Errorf("wb: student shape mismatch at %d (%s): snapshot %dx%d, model %dx%d",
				i, name, rows, cols, p.m.Rows, p.m.Cols)
		}
		data, err := r.Float32s()
		if err != nil {
			return nil, nil, fmt.Errorf("wb: student snapshot param %d (%s): %w", i, name, err)
		}
		if len(data) != p.m.Rows*p.m.Cols {
			return nil, nil, fmt.Errorf("wb: student param %d (%s) has %d values, shape needs %d",
				i, name, len(data), p.m.Rows*p.m.Cols)
		}
		copy(p.m.Data, data)
	}
	if r.Remaining() != 0 {
		return nil, nil, fmt.Errorf("wb: student snapshot params section has %d trailing bytes", r.Remaining())
	}
	return m, v, nil
}

// SaveStudentSnapshot writes a student snapshot to w.
func SaveStudentSnapshot(w io.Writer, m *JointWB32, v *textproc.Vocab) error {
	data, err := EncodeStudentSnapshot(m, v)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// LoadStudentSnapshot reads a student snapshot written by
// SaveStudentSnapshot.
func LoadStudentSnapshot(r io.Reader) (*JointWB32, *textproc.Vocab, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("wb: read student snapshot: %w", err)
	}
	return DecodeStudentSnapshot(data)
}
