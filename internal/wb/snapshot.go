package wb

import (
	"errors"
	"fmt"
	"io"

	"webbrief/internal/snapshot"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
)

// Snapshot section names for a Joint-WB model bundle.
const (
	snapMetaSection   = "jointwb/meta"
	snapParamsSection = "jointwb/params"
)

// EncodeSnapshot serialises a GloVe-encoder Joint-WB model and its
// vocabulary into the binary snapshot container, the one model file
// format. Parameter values are stored as little-endian float64 bit
// patterns, so a decoded model briefs byte-identically to the original.
// The meta section has no field for the NoMarkov ablation, so such a
// model is refused here rather than written as bytes DecodeSnapshot
// rejects with a shape mismatch.
func EncodeSnapshot(m *JointWB, v *textproc.Vocab) ([]byte, error) {
	enc, ok := m.Enc.(*GloVeEncoder)
	if !ok {
		return nil, fmt.Errorf("wb: EncodeSnapshot supports GloVe-encoder models, got %T", m.Enc)
	}
	if m.Sec.NoMarkov {
		return nil, errors.New("wb: EncodeSnapshot: the snapshot format does not record Sec.NoMarkov; an ablated model cannot be saved or cloned")
	}
	var meta snapshot.Buffer
	meta.Uvarint(uint64(enc.Dim()))
	meta.Uvarint(uint64(m.Cfg.Hidden))
	meta.Uvarint(uint64(m.Cfg.TopicLen))
	meta.Uvarint(uint64(m.Cfg.BeamSize))
	tokens := make([]string, v.Size())
	for i := range tokens {
		tokens[i] = v.Token(i)
	}
	meta.Strings(tokens)

	var params snapshot.Buffer
	ps := m.Params()
	params.Uvarint(uint64(len(ps)))
	for _, p := range ps {
		params.String(p.Name)
		params.Uvarint(uint64(p.Value.Rows))
		params.Uvarint(uint64(p.Value.Cols))
		params.Float64s(p.Value.Data)
	}

	b := snapshot.NewBuilder()
	if err := b.Add(snapMetaSection, meta.Bytes()); err != nil {
		return nil, err
	}
	if err := b.Add(snapParamsSection, params.Bytes()); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// DecodeSnapshot reconstructs a model from EncodeSnapshot output. All
// lengths and shapes are validated against the model the metadata
// describes, so corrupted input errors rather than panicking.
func DecodeSnapshot(data []byte) (*JointWB, *textproc.Vocab, error) {
	s, err := snapshot.Decode(data)
	if err != nil {
		return nil, nil, err
	}
	metaPayload, ok := s.Section(snapMetaSection)
	if !ok {
		return nil, nil, fmt.Errorf("wb: snapshot has no %q section", snapMetaSection)
	}
	meta := snapshot.NewReader(metaPayload)
	embDim, err := meta.Uvarint()
	if err != nil {
		return nil, nil, fmt.Errorf("wb: snapshot meta: %w", err)
	}
	hidden, err := meta.Uvarint()
	if err != nil {
		return nil, nil, fmt.Errorf("wb: snapshot meta: %w", err)
	}
	topicLen, err := meta.Uvarint()
	if err != nil {
		return nil, nil, fmt.Errorf("wb: snapshot meta: %w", err)
	}
	beamSize, err := meta.Uvarint()
	if err != nil {
		return nil, nil, fmt.Errorf("wb: snapshot meta: %w", err)
	}
	tokens, err := meta.Strings()
	if err != nil {
		return nil, nil, fmt.Errorf("wb: snapshot vocab: %w", err)
	}
	v := textproc.NewVocab()
	for _, tok := range tokens {
		v.Add(tok)
	}
	if v.Size() != len(tokens) {
		return nil, nil, fmt.Errorf("wb: snapshot vocabulary has duplicates")
	}

	enc := NewGloVeEncoder(tensor.New(v.Size(), int(embDim)))
	cfg := Config{Hidden: int(hidden), TopicLen: int(topicLen), BeamSize: int(beamSize), Seed: 1}
	m := NewJointWB("Joint-WB", enc, v.Size(), cfg)

	paramsPayload, ok := s.Section(snapParamsSection)
	if !ok {
		return nil, nil, fmt.Errorf("wb: snapshot has no %q section", snapParamsSection)
	}
	r := snapshot.NewReader(paramsPayload)
	count, err := r.Uvarint()
	if err != nil {
		return nil, nil, fmt.Errorf("wb: snapshot params: %w", err)
	}
	ps := m.Params()
	if count != uint64(len(ps)) {
		return nil, nil, fmt.Errorf("wb: parameter count mismatch: snapshot has %d, model has %d", count, len(ps))
	}
	for i, p := range ps {
		name, err := r.String()
		if err != nil {
			return nil, nil, fmt.Errorf("wb: snapshot param %d: %w", i, err)
		}
		rows, err := r.Uvarint()
		if err != nil {
			return nil, nil, fmt.Errorf("wb: snapshot param %d (%s): %w", i, name, err)
		}
		cols, err := r.Uvarint()
		if err != nil {
			return nil, nil, fmt.Errorf("wb: snapshot param %d (%s): %w", i, name, err)
		}
		if int(rows) != p.Value.Rows || int(cols) != p.Value.Cols {
			return nil, nil, fmt.Errorf("wb: shape mismatch at %d (%s): snapshot %dx%d, model %dx%d",
				i, p.Name, rows, cols, p.Value.Rows, p.Value.Cols)
		}
		data, err := r.Float64s()
		if err != nil {
			return nil, nil, fmt.Errorf("wb: snapshot param %d (%s): %w", i, name, err)
		}
		if len(data) != p.Value.Rows*p.Value.Cols {
			return nil, nil, fmt.Errorf("wb: param %d (%s) has %d values, shape needs %d",
				i, name, len(data), p.Value.Rows*p.Value.Cols)
		}
		copy(p.Value.Data, data)
	}
	if r.Remaining() != 0 {
		return nil, nil, fmt.Errorf("wb: snapshot params section has %d trailing bytes", r.Remaining())
	}
	return m, v, nil
}

// SaveSnapshot writes a model snapshot to w.
func SaveSnapshot(w io.Writer, m *JointWB, v *textproc.Vocab) error {
	data, err := EncodeSnapshot(m, v)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// LoadModelAuto is the only model loader: wbrief, wbserve (boot and
// reload), wbsnap -info and bench/wbload all read bundles through it.
// There is one file format, the checksummed snapshot SaveSnapshot writes;
// input without the snapshot magic gets the classified removal error.
// The name is kept because bench/wbload calls it and bench/ changes only
// in a benchmark PR.
func LoadModelAuto(r io.Reader) (*JointWB, *textproc.Vocab, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("wb: read model: %w", err)
	}
	if !snapshot.SniffMagic(data) {
		return nil, nil, errors.New("wb: not a snapshot bundle; gob bundles were removed — retrain with `wbtrain`, which is deterministic: same flags, same weights")
	}
	return DecodeSnapshot(data)
}
