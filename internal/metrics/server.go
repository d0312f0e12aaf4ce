package metrics

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns the HTTP mux the live endpoint serves:
//
//	/metrics       Prometheus text exposition of the registry
//	/healthz       liveness probe ("ok")
//	/debug/pprof/  the standard Go profiling handlers
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			// The connection is already half-written; nothing to do but drop.
			return
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ReadHeaderTimeout is how long the metrics server, and spg-serve's
// inference server, wait for a request's headers before dropping it.
const ReadHeaderTimeout = 5 * time.Second

// Server is a running metrics endpoint.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Serve binds addr (host:port; port 0 picks a free port) and serves the
// registry's Handler until Close. It returns as soon as the listener is
// bound, so Addr is immediately valid.
func Serve(addr string, r *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	s := &Server{
		srv: &http.Server{Handler: Handler(r), ReadHeaderTimeout: ReadHeaderTimeout},
		ln:  ln,
	}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound address, e.g. "127.0.0.1:9090".
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the scrape URL, e.g. "http://127.0.0.1:9090/metrics".
func (s *Server) URL() string { return "http://" + s.Addr() + "/metrics" }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }
