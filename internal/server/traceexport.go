package server

import (
	"errors"
	"net/http"

	"repro/internal/obs/trace"
)

// handleTraceExport serves GET /debug/trace/export: the server's flight-
// recorder ring (the complete retained record, slow-op log included) in a
// choice of formats selected by ?format=:
//
//	otlp    (default) OTLP/JSON resource spans — identity-carrying spans
//	        under this service's resource, ingestible by any OTLP backend
//	jsonl   the flight-recorder JSONL dump with a metadata header line
//	        (process name + epoch), the input `finq trace stitch` merges
//	chrome  the Chrome trace-event array, loadable in Perfetto directly
//
// The export is a read: it does not arm, disarm, or reset the recorder,
// so it can be polled while a run is still recording.
func (s *Server) handleTraceExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	format := r.URL.Query().Get("format")
	if err := trace.WriteExport(w, s.rec, s.cfg.ServiceName, format); errors.Is(err, trace.ErrUnknownFormat) {
		writeError(w, http.StatusBadRequest,
			"unknown format %q (want otlp, jsonl, or chrome)", format)
	}
}
