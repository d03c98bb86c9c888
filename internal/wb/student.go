package wb

import (
	"fmt"

	"webbrief/internal/nn"
)

// ConvertJointWB lowers a trained Joint-WB teacher to its float32 student:
// the same model type one element type down, every parameter rounded to
// nearest float32 exactly once and carrying no gradient buffer. Only the
// GloVe encoder regime is supported — the transformer encoders are
// float64-only — so callers must be ready to fall back to the teacher when
// the conversion is refused.
func ConvertJointWB(m *JointWB) (*JointWB32, error) {
	g, ok := m.Enc.(*GloVeEncoder)
	if !ok {
		return nil, fmt.Errorf("wb: float32 student requires a GloVe encoder, have %T", m.Enc)
	}
	return &JointWB32{
		Cfg:     m.Cfg,
		Enc:     &GloVeEncoderOf[float32]{Emb: nn.CastEmbedding[float32](g.Emb)},
		ExtLSTM: nn.CastBiLSTM[float32](m.ExtLSTM),
		GenLSTM: nn.CastBiLSTM[float32](m.GenLSTM),
		Sec: &SectionPredictorOf[float32]{
			W1:       nn.CastBilinear[float32](m.Sec.W1),
			W2:       nn.CastBilinear[float32](m.Sec.W2),
			Indep:    nn.CastLinear[float32](m.Sec.Indep),
			NoMarkov: m.Sec.NoMarkov,
		},
		Dec:    nn.CastAttnDecoder[float32](m.Dec),
		MemPr1: nn.CastLinear[float32](m.MemPr1),
		MemPr2: nn.CastLinear[float32](m.MemPr2),
		WCE:    nn.CastLinear[float32](m.WCE),
		WQ:     nn.CastLinear[float32](m.WQ),
		AttE:   nn.CastBilinear[float32](m.AttE),
		TagW:   nn.CastLinear[float32](m.TagW),
		WCG:    nn.CastLinear[float32](m.WCG),
		WE:     nn.CastLinear[float32](m.WE),
		AttG:   nn.CastLinear[float32](m.AttG),
	}, nil
}
