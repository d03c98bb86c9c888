package httpwire

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// stubTier answers every request and records BeginShutdown.
type stubTier struct{ draining atomic.Bool }

func (s *stubTier) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	io.WriteString(w, "ok")
}

func (s *stubTier) BeginShutdown() { s.draining.Store(true) }

// TestRunReloadBesideDrain: run serves the tier, runs reload on SIGHUP, and
// on SIGTERM begins the tier's shutdown and drains without waiting for a
// reload still under way.
func TestRunReloadBesideDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	tier := &stubTier{}
	reloading, release := make(chan struct{}), make(chan struct{})
	reload := func() {
		reloading <- struct{}{}
		<-release
	}
	stop, hup := make(chan os.Signal, 1), make(chan os.Signal, 1)
	ran := make(chan error, 1)
	go func() { ran <- run(ln, tier, reload, time.Second, stop, hup) }()
	defer func() {
		close(release)
		close(hup)
	}()

	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d before any signal", resp.StatusCode)
	}

	hup <- syscall.SIGHUP
	<-reloading
	stop <- syscall.SIGTERM
	select {
	case err := <-ran:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the drain waited for the reload")
	}
	if !tier.draining.Load() {
		t.Fatal("run drained without BeginShutdown")
	}
	if _, err := net.Dial("tcp", addr); err == nil {
		t.Fatal("listener still accepts after the drain")
	}
}

// TestRunServeError: a listener that fails ends run with its error, with no
// signal sent.
func TestRunServeError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	hup := make(chan os.Signal)
	defer close(hup)
	err = run(ln, &stubTier{}, func() {}, time.Second, make(chan os.Signal), hup)
	if err == nil || errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("run over a closed listener: %v, want its accept error", err)
	}
}
