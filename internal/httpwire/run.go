package httpwire

import (
	"context"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Tier is what Run serves: a handler that can be told to stop admitting
// work before its in-flight requests drain.
type Tier interface {
	http.Handler
	BeginShutdown()
}

// Run is the serving end of both binaries' main. It listens on addr, logs
// banner, and serves t on a Server until SIGINT or SIGTERM. Each SIGHUP runs
// reload, on a goroutine of its own so that a stop signal never waits for a
// reload to finish. On the stop signal Run calls t.BeginShutdown and drains
// the Server for at most drain. It returns nil once drained, or the error
// that kept it from listening or serving.
func Run(addr, banner string, t Tier, reload func(), drain time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	log.Print(banner)
	return run(ln, t, reload, drain, stop, hup)
}

// run is Run past the listen, with the signals as channels.
func run(ln net.Listener, t Tier, reload func(), drain time.Duration, stop, hup <-chan os.Signal) error {
	// The reload listener lives for the whole process: hup is never closed,
	// and a reload under way when the drain ends is cut off by the exit.
	go func() {
		for range hup {
			reload()
		}
	}()

	srv := &Server{Handler: t}
	errc := make(chan error, 1)
	// The accept loop lives until the Shutdown below closes the listener; the
	// buffered errc send never leaks it.
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-stop:
	}

	log.Printf("draining (max %v)...", drain)
	t.BeginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain cut off after %v: %v", drain, err)
	}
	log.Printf("drained, bye")
	return nil
}

// ServeDebug listens on addr and serves net/http's DefaultServeMux on a
// Server of its own for the rest of the process: the runtime profiles under
// /debug/pprof/ in a binary that imports net/http/pprof, as wbserve and
// wbgate do. It returns the address it listens on.
func ServeDebug(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &Server{Handler: http.DefaultServeMux}
	go srv.Serve(ln) // for the life of the process: nothing shuts it down
	return ln.Addr().String(), nil
}
