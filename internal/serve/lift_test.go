package serve

import "webbrief/internal/wb"

// instanceReplica is what the stub replicas of this package's tests
// implement: the pipeline stages for one instance at a time.
type instanceReplica interface {
	Encode(inst *wb.Instance) *wb.Brief
	Decode(inst *wb.Instance, b *wb.Brief)
}

// lifted is a stub lifted to the Replica contract: a batch encodes member by
// member, then decodes member by member, and reports no tier decisions.
type lifted struct{ instanceReplica }

// lift makes a per-instance stub a pool member.
func lift(r instanceReplica) Replica { return lifted{r} }

func (l lifted) EncodeBatch(insts []*wb.Instance) []*wb.Brief {
	briefs := make([]*wb.Brief, len(insts))
	for i, inst := range insts {
		briefs[i] = l.Encode(inst)
	}
	return briefs
}

func (l lifted) DecodeBatch(insts []*wb.Instance, briefs []*wb.Brief) []wb.TierDecision {
	for i, inst := range insts {
		l.Decode(inst, briefs[i])
	}
	return nil
}
