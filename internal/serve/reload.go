package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

// This file is the zero-downtime hot model reload path: build a complete
// shadow pool from a freshly loaded bundle, warm it off-path exactly like a
// cold boot (Pool.Warm grows every workspace to steady state), then
// atomically swap it in under the live handler. No request is ever dropped
// or torn across the swap:
//
//   - the scheduler snapshots the pool pointer once per batch, so every
//     retry and every stage of one briefing runs on replicas of a single
//     generation;
//   - batches in flight on the old pool finish on the old pool and Put
//     their replicas back there; once the last one returns, nothing
//     references the retired pool and it is garbage collected;
//   - batches formed after the swap check out of the new pool.
//
// The generation counter (1 at boot, +1 per completed reload) is exported
// at /metrics and in the reload response, so fleet drivers (cmd/wbgate) can
// observe which model generation each backend serves. It also namespaces
// the briefing cache (cache.go): swapPool stores the pool before it bumps
// the generation, so a request that read generation g briefs on generation
// g or newer, and an answer computed by an old model can never be cached
// under a newer generation's keys.

// ReloadSource loads a fresh model bundle for Reload — typically a re-read
// of the -model file (cmd/wbserve), or a test's in-memory bundle.
type ReloadSource func() (*wb.JointWB, *textproc.Vocab, error)

// SetReloadSource registers the loader behind ReloadFromSource and the
// /admin/reload endpoint. Without one, reload requests are refused.
func (s *Server) SetReloadSource(fn ReloadSource) {
	s.reloadMu.Lock()
	s.reloadSource = fn
	s.reloadMu.Unlock()
}

// Reload hot-swaps the serving model: it builds a shadow pool of the same
// size as the live one from m/v, warms it off-path, and atomically swaps it
// in. Briefings in flight finish on the old generation; new admissions brief
// on the new one. It returns the new generation number. Concurrent reloads
// serialise on an internal mutex.
func (s *Server) Reload(m *wb.JointWB, v *textproc.Vocab) (int64, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	//wbcheck:ignore lockhold -- holding reloadMu across build+warm is the point: reloads serialise on it, and no request-path code ever takes it (the hot path reads s.pool atomically)
	pool, err := s.shadowPool(m, v)
	if err != nil {
		return 0, err
	}
	return s.swapPool(pool)
}

// shadowPool builds a pool of the live pool's size from m/v — a reload never
// changes capacity mid-flight — and grows its workspaces to steady state
// off-path: the same warmup a cold boot runs, so the first post-swap request
// already rides the allocation-free path.
func (s *Server) shadowPool(m *wb.JointWB, v *textproc.Vocab) (*Pool, error) {
	pool, err := NewPool(m, v, s.pool.Load().Size(), s.cfg)
	if err != nil {
		return nil, fmt.Errorf("serve: reload: %w", err)
	}
	if err := pool.Warm(WarmupHTML(0)); err != nil {
		return nil, fmt.Errorf("serve: reload warm: %w", err)
	}
	return pool, nil
}

// ReloadFromSource reloads via the registered ReloadSource.
func (s *Server) ReloadFromSource() (int64, error) {
	s.reloadMu.Lock()
	src := s.reloadSource
	s.reloadMu.Unlock()
	if src == nil {
		return 0, fmt.Errorf("serve: no reload source configured")
	}
	m, v, err := src()
	if err != nil {
		return 0, fmt.Errorf("serve: reload source: %w", err)
	}
	return s.Reload(m, v)
}

// swapPool atomically swaps a pre-built (and, for real models, pre-warmed)
// pool in and bumps the generation, in that order (the cache namespace
// depends on it, see the file comment) — the tail of Reload, and the seam
// the hot-reload equivalence suite drives directly. The new pool must match
// the live pool's size: the admission ceiling (batchSlots) was sized off it
// at construction and is not resized mid-flight.
func (s *Server) swapPool(p *Pool) (int64, error) {
	if live := s.pool.Load(); p.Size() != live.Size() {
		return 0, fmt.Errorf("serve: reload pool has %d replicas, live pool %d — reloads must keep capacity", p.Size(), live.Size())
	}
	if p.Idle() != p.Size() {
		return 0, fmt.Errorf("serve: reload pool not fully idle (%d of %d)", p.Idle(), p.Size())
	}
	s.pool.Store(p)
	gen := s.generation.Add(1)
	s.reloads.Add(1)
	// The old pool is retired implicitly: in-flight requests that snapshot
	// it finish and Put their replicas back, after which nothing references
	// it. Probe loops for old-pool ejections readmit into the retired pool
	// (harmless) and exit.
	return gen, nil
}

// handleReload is the admin reload endpoint: POST /admin/reload loads a
// fresh bundle through the registered ReloadSource, warms a shadow pool and
// swaps it in, responding with the new generation. 409 when no source is
// configured, 500 when the load or warm fails (the live pool keeps
// serving), 405 for non-POSTs. It deliberately touches none of the /brief
// outcome counters: admin traffic is not briefing traffic.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST to reload the model", http.StatusMethodNotAllowed)
		return
	}
	gen, err := s.ReloadFromSource()
	if err != nil {
		code := http.StatusInternalServerError
		if s.reloadSourceUnset(err) {
			code = http.StatusConflict
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Generation int64 `json:"generation"`
		Replicas   int   `json:"replicas"`
	}{gen, s.pool.Load().Size()})
}

// reloadSourceUnset distinguishes "nothing to reload from" (a configuration
// state, 409) from a failed load (500).
func (s *Server) reloadSourceUnset(err error) bool {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	return s.reloadSource == nil && err != nil
}
