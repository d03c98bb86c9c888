package fault

import (
	"time"

	"webbrief/internal/wb"
)

// PipelineReplica is the serve-side replica contract, restated structurally
// so this package needs no import of internal/serve (whose chaos tests
// import this package). serve.Replica and *Replica here are interchangeable.
type PipelineReplica interface {
	EncodeBatch(insts []*wb.Instance) []*wb.Brief
	DecodeBatch(insts []*wb.Instance, briefs []*wb.Brief) []wb.TierDecision
}

// Replica wraps a serving replica with the faults a Schedule draws: one draw
// per batch, taken at EncodeBatch. A batch is one fused forward on one
// exclusively checked-out replica — the unit that faults — so the schedule's
// rate is the share of batches that fault whatever their size, and a faulted
// batch costs every member of it. The kinds map onto replica pathologies:
//
//	Error:   EncodeBatch panics before the inner replica runs — the
//	         "briefing engine hit a bug" failure the serve layer must
//	         recover, eject and retry around;
//	Timeout: EncodeBatch wedges for TimeoutHang before completing — the
//	         stall the watchdog must detect and eject, with the replica
//	         coming back probe-able once the wedge resolves;
//	Slow:    EncodeBatch is late by the drawn delay but correct;
//	Garbage: DecodeBatch panics after EncodeBatch succeeded — state
//	         corrupted mid-pipeline.
//
// Everything the inner replica returns — the briefs and the tier decisions
// — passes through untouched.
type Replica struct {
	Inner PipelineReplica
	Sched *Schedule
	// Sleep is the blocking seam (nil = time.Sleep).
	Sleep func(time.Duration)

	pending Fault // the draw of the batch in flight
}

// NewReplica wraps inner with faults drawn from sched.
func NewReplica(inner PipelineReplica, sched *Schedule) *Replica {
	return &Replica{Inner: inner, Sched: sched}
}

func (r *Replica) sleep(d time.Duration) {
	if r.Sleep != nil {
		r.Sleep(d)
		return
	}
	time.Sleep(d)
}

// EncodeBatch draws the batch's fault and applies Error (panic), Timeout
// (wedge) and Slow (delay).
func (r *Replica) EncodeBatch(insts []*wb.Instance) []*wb.Brief {
	r.pending = r.Sched.Next()
	switch r.pending.Kind {
	case Error:
		panic("fault: injected replica panic in EncodeBatch")
	case Timeout:
		r.sleep(r.Sched.cfg.TimeoutHang)
	case Slow:
		r.sleep(r.pending.Delay)
	}
	return r.Inner.EncodeBatch(insts)
}

// DecodeBatch applies the Garbage fault (panic after a clean EncodeBatch).
func (r *Replica) DecodeBatch(insts []*wb.Instance, briefs []*wb.Brief) []wb.TierDecision {
	if r.pending.Kind == Garbage {
		panic("fault: injected replica panic in DecodeBatch")
	}
	return r.Inner.DecodeBatch(insts, briefs)
}
