package obs

import (
	"errors"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"repro/internal/obs/trace"
)

// publishOnce guards the one-time expvar publication of the obs snapshot.
var publishOnce sync.Once

// publishExpvar exposes the snapshot as the expvar "obs" variable, so
// /debug/vars carries the metrics alongside cmdline and memstats.
func publishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("obs", expvar.Func(func() any { return Take() }))
	})
}

// Handler returns an http.Handler serving the debug surface:
//
//	/debug/obs           the obs snapshot as JSON
//	/metrics             the snapshot in Prometheus text exposition format
//	/debug/vars          expvar (including the snapshot under "obs")
//	/debug/pprof/        the standard pprof profiles
//	/debug/trace/export  the default flight recorder's ring as OTLP/JSON
//	                     resource spans (?format=jsonl and ?format=chrome
//	                     select the other exporters); finqd overrides this
//	                     route with its own recorder's export
func Handler() http.Handler {
	publishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(Take().JSON())
	})
	mux.HandleFunc("/debug/trace/export", func(w http.ResponseWriter, r *http.Request) {
		err := trace.WriteExport(w, trace.Default(), "finq", r.URL.Query().Get("format"))
		if errors.Is(err, trace.ErrUnknownFormat) {
			http.Error(w, "unknown format (want otlp, jsonl, or chrome)", http.StatusBadRequest)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		Take().WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug starts the debug server on addr in a background goroutine and
// returns the bound address (useful with a ":0" addr). The listener stays
// up for the life of the process; CLIs call this from a -debug-addr flag.
func ServeDebug(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go http.Serve(ln, Handler())
	return ln.Addr().String(), nil
}
