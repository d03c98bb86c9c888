package wb

import (
	"errors"
	"fmt"
	"io"
	"io/fs"

	"webbrief/internal/nn"
	"webbrief/internal/snapshot"
	"webbrief/internal/textproc"
)

// Snapshot section names for a Joint-WB model bundle.
const (
	snapMetaSection   = "jointwb/meta"
	snapParamsSection = "jointwb/params"
)

// maxSnapshotBeam is the widest beam a bundle may record. The beam width is
// part of the model — every binary decodes at it — and a bundle is outside
// input, so its width is checked like any shape: at least 1, and at most
// this, which leaves room above the paper's 200.
const maxSnapshotBeam = 1024

// maxSnapshotTopicLen is the longest topic a bundle may record, checked the
// same way: at least 1 (a decode of no steps has no state to brief from),
// and at most this, far above the paper's depth of 4.
const maxSnapshotTopicLen = 64

// EncodeSnapshot serialises a GloVe-encoder Joint-WB model and its
// vocabulary into the binary snapshot container, the one model file
// format. Parameter values are stored as little-endian float64 bit
// patterns, so a decoded model briefs byte-identically to the original.
// The meta section has no field for the NoMarkov ablation, so such a
// model is refused here rather than written as bytes DecodeSnapshot
// rejects with a shape mismatch; so are a beam size, a topic length and
// widths DecodeSnapshot refuses.
func EncodeSnapshot(m *JointWB, v *textproc.Vocab) ([]byte, error) {
	enc, ok := m.Enc.(*GloVeEncoder)
	if !ok {
		return nil, fmt.Errorf("wb: EncodeSnapshot supports GloVe-encoder models, got %T", m.Enc)
	}
	if m.Sec.NoMarkov {
		return nil, errors.New("wb: EncodeSnapshot: the snapshot format does not record Sec.NoMarkov; an ablated model cannot be saved")
	}
	if b := m.Cfg.BeamSize; b < 1 || b > maxSnapshotBeam {
		return nil, fmt.Errorf("wb: EncodeSnapshot: beam size %d, want 1..%d", b, maxSnapshotBeam)
	}
	if l := m.Cfg.TopicLen; l < 1 || l > maxSnapshotTopicLen {
		return nil, fmt.Errorf("wb: EncodeSnapshot: topic length %d, want 1..%d", l, maxSnapshotTopicLen)
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
	if err := checkWidths(uint64(v.Size()), uint64(enc.Dim()), uint64(m.Cfg.Hidden), len(params.Bytes())); err != nil {
		return nil, fmt.Errorf("wb: EncodeSnapshot: %w", err)
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
// describes, so corrupted input errors rather than panicking. The result is
// an inference model: allocated at the described shapes with no initial
// draws and no gradient buffers, each slab decoded straight into its
// parameter's storage. The meta section records no Config.Dropout or
// Config.Seed, both training-only (the seed only draws the initial
// parameters), so the model, at dropout 0 and seed 1, briefs exactly as the
// encoded one did.
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
	if topicLen < 1 || topicLen > maxSnapshotTopicLen {
		return nil, nil, fmt.Errorf("wb: snapshot topic length %d, want 1..%d", topicLen, maxSnapshotTopicLen)
	}
	beamSize, err := meta.Uvarint()
	if err != nil {
		return nil, nil, fmt.Errorf("wb: snapshot meta: %w", err)
	}
	if beamSize < 1 || beamSize > maxSnapshotBeam {
		return nil, nil, fmt.Errorf("wb: snapshot beam size %d, want 1..%d", beamSize, maxSnapshotBeam)
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
	paramsPayload, ok := s.Section(snapParamsSection)
	if !ok {
		return nil, nil, fmt.Errorf("wb: snapshot has no %q section", snapParamsSection)
	}
	if err := checkWidths(uint64(v.Size()), embDim, hidden, len(paramsPayload)); err != nil {
		return nil, nil, fmt.Errorf("wb: snapshot: %w", err)
	}

	enc := &GloVeEncoder{Emb: nn.NewEmbedding("glove", v.Size(), int(embDim), nil)}
	cfg := Config{Hidden: int(hidden), TopicLen: int(topicLen), BeamSize: int(beamSize), Seed: 1}
	m := newJointWB("Joint-WB", enc, v.Size(), cfg, false)

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
		if err := r.Float64sInto(p.Value.Data); err != nil {
			return nil, nil, fmt.Errorf("wb: snapshot param %d (%s): %w", i, name, err)
		}
	}
	if r.Remaining() != 0 {
		return nil, nil, fmt.Errorf("wb: snapshot params section has %d trailing bytes", r.Remaining())
	}
	return m, v, nil
}

// checkWidths refuses an embedding width or hidden size that no params
// section of n bytes can hold: 0, or one whose embedding table
// (vocab×embDim), LSTM input weights (embDim×4h) or recurrent weights
// (h×4h) would need more than n/8 float64s. DecodeSnapshot runs it before
// NewJointWB allocates, so a corrupt width errors rather than panicking or
// exhausting memory; EncodeSnapshot runs it so it never writes widths that
// decoding refuses.
func checkWidths(vocab, embDim, hidden uint64, n int) error {
	if embDim == 0 || hidden == 0 {
		return fmt.Errorf("embedding width %d, hidden size %d: want both >= 1", embDim, hidden)
	}
	floats := uint64(n) / 8
	// Past the first two comparisons both widths are at most 2^61, so 4*hidden
	// cannot overflow.
	if embDim > floats || hidden > floats ||
		vocab > floats/embDim || embDim > floats/(4*hidden) || hidden > floats/(4*hidden) {
		return fmt.Errorf("embedding width %d, hidden size %d: weights larger than the %d-byte params section", embDim, hidden, n)
	}
	return nil
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

// LoadModelAuto is bench/wbload's name for LoadModel, kept until a benchmark
// change renames that call.
func LoadModelAuto(r io.Reader) (*JointWB, *textproc.Vocab, error) { return LoadModel(r) }

// LoadModel is the model loader: wbrief, wbsnap -info and bench/wbload read
// bundles through it, and wbserve through LoadServing, which wraps it. There
// is one file format, the checksummed snapshot SaveSnapshot writes; input
// without the snapshot magic gets the classified removal error.
func LoadModel(r io.Reader) (*JointWB, *textproc.Vocab, error) {
	data, err := readBundle(r)
	if err != nil {
		return nil, nil, fmt.Errorf("wb: read model: %w", err)
	}
	if !snapshot.SniffMagic(data) {
		return nil, nil, errors.New("wb: not a snapshot bundle; gob bundles were removed — retrain with `wbtrain`, which is deterministic: same flags, same weights")
	}
	return DecodeSnapshot(data)
}

// LoadServing is wbserve's load, boot and reload: LoadModel, folded over the
// decoded model itself, which never leaves this function — no copy.
func LoadServing(r io.Reader) (*FoldedOf[float64], *textproc.Vocab, error) {
	m, v, err := LoadModel(r)
	if err != nil {
		return nil, nil, err
	}
	return foldOver(m), v, nil
}

// readBundle reads r to EOF. A reader that reports its size — an *os.File
// over a regular file — is read into one buffer allocated at that size (one
// byte more, for the read that meets EOF); io.ReadAll's doubling would
// allocate and copy the bundle several times over. Any other reader is read
// as io.ReadAll reads it.
func readBundle(r io.Reader) ([]byte, error) {
	f, ok := r.(interface{ Stat() (fs.FileInfo, error) })
	if !ok {
		return io.ReadAll(r)
	}
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		return io.ReadAll(r)
	}
	data := make([]byte, 0, fi.Size()+1)
	for {
		n, err := r.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		switch {
		case err == io.EOF:
			return data, nil
		case err != nil:
			return nil, err
		case len(data) == cap(data): // the file grew since Stat
			data = append(data, 0)[:len(data)]
		}
	}
}
