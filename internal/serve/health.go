package serve

import (
	"time"

	"webbrief/internal/wb"
)

// probeHTML is the page re-admission probes brief on an ejected replica:
// small, but with enough visible text to run both stages of a real model
// replica.
const probeHTML = `<html><head><title>probe</title></head><body>
<h1>Re-admission probe</h1>
<p>This synthetic page checks an ejected replica end to end.</p>
</body></html>`

// pipelineOutcome summarises how the scheduler answered one admitted request.
// Exactly one field is meaningful: faulted (every replica it ran on panicked
// or stalled, and the retry budget is spent), ctxErr (deadline or cancel by
// the time its batch decoded), or brief (success).
type pipelineOutcome struct {
	brief   *wb.Brief
	ctxErr  error
	faulted bool
}

// recoverPanic runs fn, converting a panic into a returned value.
func recoverPanic(fn func()) (panicked any) {
	defer func() { panicked = recover() }()
	fn()
	return nil
}

// runStage runs one pipeline stage on rep, absorbing the two replica
// pathologies the chaos suite injects:
//
//   - a panic is recovered, counted, and ejects the replica;
//   - with Config.StallTimeout set, a stage that exceeds it is declared
//     wedged: the replica is ejected immediately (capacity degrades, the
//     request moves on), and when the wedged stage eventually resolves the
//     replica enters re-admission probing instead of rotation.
//
// It reports whether the stage completed cleanly; on false the replica
// has been ejected and must not be Put back. pool is the pool rep was
// checked out of — the caller's request-scoped snapshot, so ejection and
// re-admission target the replica's own generation even across a hot
// reload.
func (s *Server) runStage(pool *Pool, rep Replica, fn func()) bool {
	if s.cfg.StallTimeout <= 0 {
		if p := recoverPanic(fn); p != nil {
			s.metrics.Panics.Add(1)
			s.ejectAndProbe(pool, rep)
			return false
		}
		return true
	}
	done := make(chan any, 1)
	go func() { done <- recoverPanic(fn) }()
	timer := time.NewTimer(s.cfg.StallTimeout)
	defer timer.Stop()
	select {
	case p := <-done:
		if p != nil {
			s.metrics.Panics.Add(1)
			s.ejectAndProbe(pool, rep)
			return false
		}
		return true
	case <-timer.C:
		s.metrics.Stalls.Add(1)
		pool.Eject(rep)
		// The wedged goroutine still owns the replica's scratch state;
		// only once it resolves may probing (and re-admission) begin. If
		// it never resolves, the replica is lost capacity — degraded, but
		// never poisoning another request.
		go func() {
			if p := <-done; p != nil {
				s.metrics.Panics.Add(1)
			}
			s.probeLoop(pool, rep)
		}()
		return false
	}
}

// ejectAndProbe takes rep out of rotation and starts its re-admission
// prober.
func (s *Server) ejectAndProbe(pool *Pool, rep Replica) {
	pool.Eject(rep)
	go s.probeLoop(pool, rep)
}

// probeLoop periodically briefs the probe page on an ejected replica and
// readmits it after ProbeSuccesses consecutive clean runs — into the pool
// it was ejected from, which after a hot reload may be a retired
// generation (the readmission is then harmless and the loop exits). It
// exits on shutdown; an ejected replica then simply stays out of rotation.
func (s *Server) probeLoop(pool *Pool, rep Replica) {
	pool.BeginProbe(rep)
	_, sents := renderPage(probeHTML)
	insts := []*wb.Instance{pool.instance(sents)}
	ticker := time.NewTicker(s.cfg.ProbeInterval)
	defer ticker.Stop()
	consecutive := 0
	for {
		select {
		case <-s.shutdownCh:
			return
		case <-ticker.C:
		}
		// One probe: both model stages on the probe page's instance.
		if recoverPanic(func() { rep.DecodeBatch(insts, rep.EncodeBatch(insts)) }) == nil {
			consecutive++
		} else {
			consecutive = 0
		}
		if consecutive >= s.cfg.ProbeSuccesses {
			pool.Readmit(rep)
			return
		}
	}
}

// observeCascade folds a batch's tier decisions into the cascade counters
// and histograms: the first tier is the student, any later one the teacher.
// Called only on a cascade server and only after a clean decode stage: a
// faulted briefing never counts toward either tier.
func (s *Server) observeCascade(decisions []wb.TierDecision) {
	m := s.metrics
	for _, d := range decisions {
		m.CascadeRequests.Begin()
		m.StudentLatency.Observe(d.Spent[0])
		if d.Tier > 0 {
			m.CascadeRequests.End(CascadeTeacher)
			m.TeacherLatency.Observe(d.Spent[d.Tier])
		} else {
			m.CascadeRequests.End(CascadeStudent)
		}
	}
}
