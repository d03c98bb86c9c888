package wb

import (
	"fmt"

	"webbrief/internal/nn"
	"webbrief/internal/tensor"
)

// ConvertJointWB lowers a trained Joint-WB teacher to its float32 student:
// the same model type one element type down, every parameter rounded to
// nearest float32 exactly once and carrying no gradient buffer. Only the
// GloVe encoder regime is supported — the transformer encoders are
// float64-only — so callers must be ready to fall back to the teacher when
// the conversion is refused.
func ConvertJointWB(m *JointWB) (*JointWB32, error) { return convertJointWB[float32](m) }

// convertJointWB copies m into element type D, parameter by parameter: at
// float32 the student, at float64 an exact deep copy (the cast is the
// identity on every bit pattern) that shares no storage with m.
func convertJointWB[D tensor.Float](m *JointWB) (*JointWBOf[D], error) {
	g, ok := m.Enc.(*GloVeEncoder)
	if !ok {
		return nil, fmt.Errorf("wb: serving copy requires a GloVe encoder, have %T", m.Enc)
	}
	return &JointWBOf[D]{
		Cfg:     m.Cfg,
		Enc:     &GloVeEncoderOf[D]{Emb: nn.CastEmbedding[D](g.Emb)},
		ExtLSTM: nn.CastBiLSTM[D](m.ExtLSTM),
		GenLSTM: nn.CastBiLSTM[D](m.GenLSTM),
		Sec: &SectionPredictorOf[D]{
			W1:       nn.CastBilinear[D](m.Sec.W1),
			W2:       nn.CastBilinear[D](m.Sec.W2),
			Indep:    nn.CastLinear[D](m.Sec.Indep),
			NoMarkov: m.Sec.NoMarkov,
		},
		Dec:    nn.CastAttnDecoder[D](m.Dec),
		MemPr1: nn.CastLinear[D](m.MemPr1),
		MemPr2: nn.CastLinear[D](m.MemPr2),
		WCE:    nn.CastLinear[D](m.WCE),
		WQ:     nn.CastLinear[D](m.WQ),
		AttE:   nn.CastBilinear[D](m.AttE),
		TagW:   nn.CastLinear[D](m.TagW),
		WCG:    nn.CastLinear[D](m.WCG),
		WE:     nn.CastLinear[D](m.WE),
		AttG:   nn.CastLinear[D](m.AttG),
	}, nil
}
