package wb

import (
	"fmt"

	"webbrief/internal/textproc"
)

// CloneManyForServing deep-copies a trained GloVe-encoder Joint-WB model n
// times so the clones and the original can run eval-mode forwards
// concurrently without sharing any mutable state — the copying step of
// FoldForServing, which serve.Pool builds its replicas with. The copies go through the snapshot codec
// round-trip, so each is exactly the model a restart would load: float64
// bit patterns are preserved, making a clone's briefings byte-identical to
// the original's. The model is encoded once and decoded n times, not
// encoded per clone.
//
// The embedding table — by far the largest parameter — is shared with the
// original rather than copied: eval-mode forwards only ever read parameter
// values (no dropout, no gradients), so concurrent replicas can safely
// alias it. Everything else (LSTMs, decoder, attention heads) is private to
// each clone.
//
// Clones are for inference only. Training a clone — or the original while
// clones are serving — writes the shared embedding and races; callers that
// need to retrain must build a fresh model and a fresh pool.
func CloneManyForServing(m *JointWB, v *textproc.Vocab, n int) ([]*JointWB, error) {
	if n < 1 {
		return nil, fmt.Errorf("wb: clone count %d", n)
	}
	data, err := EncodeSnapshot(m, v)
	if err != nil {
		return nil, fmt.Errorf("wb: clone: %w", err)
	}
	orig := m.Enc.(*GloVeEncoder) // EncodeSnapshot succeeded, so Enc is GloVe
	clones := make([]*JointWB, n)
	for i := range clones {
		clone, _, err := DecodeSnapshot(data)
		if err != nil {
			return nil, fmt.Errorf("wb: clone: %w", err)
		}
		clone.Enc.(*GloVeEncoder).Emb.Table.Value = orig.Emb.Table.Value
		clones[i] = clone
	}
	return clones, nil
}
