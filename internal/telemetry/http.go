package telemetry

import (
	"net/http"
	"net/http/pprof"
)

// Handler returns an http.Handler exposing the registry and the
// process's profiles:
//
//	GET /metrics        Prometheus text exposition format
//	GET /statz          the same samples as indented JSON
//	GET /healthz        "ok" (liveness)
//	GET /debug/pprof/   net/http/pprof: the index, heap, goroutine and
//	                    the other runtime profiles by name, profile (CPU)
//	                    and trace (runtime/trace)
//
// Mount it on a mux or serve it directly; every other path returns 404.
// The CPU profile and the trace run only while requested; the heap
// profile reports the runtime's allocation sampling (MemProfileRate).
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/statz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
