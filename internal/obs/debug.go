package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// publishOnce guards expvar registration: expvar.Publish panics on
// duplicate names, and a process may open and close the debug endpoint
// more than once (tests do).
var publishOnce sync.Once

// publishVars exposes the Default registry through expvar, alongside the
// stock cmdline/memstats vars, so /debug/vars is the one-stop live view.
func publishVars() {
	expvar.Publish("dosn_counters", expvar.Func(func() any { return Default.Counters() }))
	expvar.Publish("dosn_timers", expvar.Func(func() any { return Default.Timers() }))
}

// DebugServer is the opt-in debug HTTP endpoint (-debug-addr): net/http/pprof
// handlers plus expvar with the obs registry published. It serves on its own
// mux — nothing leaks onto http.DefaultServeMux's server (this process never
// starts one, but belt and braces).
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeDebug starts the debug endpoint on addr ("127.0.0.1:6060";
// ":0" picks a free port — read it back with Addr). The server runs until
// Close.
func ServeDebug(addr string) (*DebugServer, error) {
	publishOnce.Do(publishVars)
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "dosn debug endpoint\n\n/debug/pprof/\n/debug/vars\n")
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug endpoint: %w", err)
	}
	d := &DebugServer{ln: ln, srv: &http.Server{Handler: mux}}
	go func() {
		// Serve returns ErrServerClosed (or a listener error) once Close
		// runs; the endpoint is best-effort diagnostics either way.
		_ = d.srv.Serve(ln)
	}()
	return d, nil
}

// Addr returns the bound listen address (useful with ":0").
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the endpoint.
func (d *DebugServer) Close() error { return d.srv.Close() }
