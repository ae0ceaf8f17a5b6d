// Package httpd is the one graceful-shutdown path shared by every HTTP
// frontend in the repository (`ppmsim -http`, `fedd -http`): serve a
// handler on a listener until a context is canceled — typically by
// SIGINT/SIGTERM via SignalContext — then drain in-flight requests within
// a bounded timeout instead of dropping them (or serving forever, as
// ppmsim's original serve-until-interrupted loop did).
package httpd

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// DefaultDrainTimeout bounds the graceful drain when callers pass 0.
const DefaultDrainTimeout = 5 * time.Second

// Server is an http.Server wired to the shared shutdown path. Use New,
// then Start to serve in the background, then WaitShutdown to block until
// the controlling context ends.
type Server struct {
	srv  *http.Server
	errc chan error
}

// New wraps a handler.
func New(h http.Handler) *Server {
	return &Server{srv: &http.Server{Handler: h}, errc: make(chan error, 1)}
}

// Start serves on ln in a background goroutine. The listener is owned by
// the server from here on: WaitShutdown closes it.
func (s *Server) Start(ln net.Listener) {
	go func() {
		err := s.srv.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		s.errc <- err
	}()
}

// WaitShutdown blocks until ctx is canceled (or the serve loop fails on
// its own), then shuts the server down gracefully: the listener closes
// immediately, in-flight requests get up to drain (DefaultDrainTimeout if
// 0) to complete, and stragglers are cut off after that. It returns the
// serve error, or the drain error when requests outlived the timeout.
func (s *Server) WaitShutdown(ctx context.Context, drain time.Duration) error {
	select {
	case err := <-s.errc:
		return err // serve loop died before any shutdown request
	case <-ctx.Done():
	}
	if drain <= 0 {
		drain = DefaultDrainTimeout
	}
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := s.srv.Shutdown(dctx)
	if serveErr := <-s.errc; serveErr != nil {
		return serveErr
	}
	if err != nil {
		s.srv.Close() // cut off the stragglers that outlived the drain
	}
	return err
}

// Serve is the one-call form: Start plus WaitShutdown.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration) error {
	s := New(h)
	s.Start(ln)
	return s.WaitShutdown(ctx, drain)
}

// SignalContext returns a context canceled on SIGINT or SIGTERM — the
// process-level trigger both ppmsim and fedd hang their shutdown on.
// Call stop to release the signal registration (a second signal after
// cancellation then kills the process with the default disposition).
func SignalContext() (ctx context.Context, stop context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}
