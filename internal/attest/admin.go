package attest

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"

	"pufatt/internal/telemetry"
)

// This file exposes the attestation stack's operational surface over HTTP:
// Prometheus metrics, expvar-style JSON, recent attestation traces, and the
// runtime profiler. The endpoint is strictly opt-in — nothing listens until
// StartAdmin is called — and is meant for a loopback or management network,
// not the attestation data path.

// adminContentJSON is the Content-Type of every JSON admin route.
const adminContentJSON = "application/json; charset=utf-8"

// adminGet wraps an admin handler: GET and HEAD pass with the given
// Content-Type set up front; every other method is 405 with an Allow
// header. The admin surface is read-only by construction — a mutating verb
// reaching it is a client bug worth a loud, typed answer.
func adminGet(contentType string, fn func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", contentType)
		fn(w, r)
	}
}

// AdminMux returns an http.ServeMux serving the telemetry admin surface:
//
//	/metrics          Prometheus text exposition (format 0.0.4)
//	/metrics/history  windowed time-series history as JSON; range queries
//	                  via ?metric=&start=&end=&step=
//	/alerts           SLO burn-rate alert statuses as JSON
//	/debug/vars       expvar-style JSON of every registered metric
//	/debug/traces     recent attestation span trees as JSON
//	/debug/journal    the flight recorder's retained protocol events as JSON
//	/debug/profiles   the profile ring's sidecar index as JSON, newest
//	                  first; ?n= limits the entry count
//	/devices          per-device health snapshots (SLO judgements) as JSON
//	/healthz          fleet-wide health summary; HTTP 503 when any device is
//	                  suspect, 200 otherwise
//	/debug/pprof/     the standard runtime profiler endpoints
//
// All telemetry routes are GET/HEAD only (405 otherwise). A nil Telemetry
// means the package default (the one the attestation hot paths record
// into).
func AdminMux(t *Telemetry) *http.ServeMux {
	if t == nil {
		t = tel
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", adminGet("text/plain; version=0.0.4; charset=utf-8", func(w http.ResponseWriter, _ *http.Request) {
		_ = t.Registry.WritePrometheus(w)
	}))
	mux.HandleFunc("/metrics/history", adminGet(adminContentJSON, func(w http.ResponseWriter, r *http.Request) {
		q, err := telemetry.ParseRangeQuery(r.URL.Query())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		_ = t.History.WriteJSON(w, q)
	}))
	mux.HandleFunc("/alerts", adminGet(adminContentJSON, func(w http.ResponseWriter, _ *http.Request) {
		_ = t.Alerts.WriteJSON(w)
	}))
	mux.HandleFunc("/debug/vars", adminGet(adminContentJSON, func(w http.ResponseWriter, _ *http.Request) {
		_ = t.Registry.WriteJSON(w)
	}))
	mux.HandleFunc("/debug/traces", adminGet(adminContentJSON, func(w http.ResponseWriter, _ *http.Request) {
		_ = t.Tracer.WriteJSON(w)
	}))
	mux.HandleFunc("/debug/journal", adminGet(adminContentJSON, func(w http.ResponseWriter, _ *http.Request) {
		_ = t.Journal.WriteJSON(w)
	}))
	mux.HandleFunc("/debug/profiles", adminGet(adminContentJSON, func(w http.ResponseWriter, r *http.Request) {
		limit := 0
		if raw := r.URL.Query().Get("n"); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil || n < 0 {
				http.Error(w, fmt.Sprintf("attest: bad n %q", raw), http.StatusBadRequest)
				return
			}
			limit = n
		}
		_ = t.Profiler.WriteJSON(w, limit)
	}))
	mux.HandleFunc("/devices", adminGet(adminContentJSON, func(w http.ResponseWriter, _ *http.Request) {
		_ = t.Health.WriteJSON(w)
	}))
	mux.HandleFunc("/healthz", adminGet(adminContentJSON, func(w http.ResponseWriter, _ *http.Request) {
		sum := t.Health.Summary()
		// A suspect device is a security signal: fail the health check so
		// orchestration-level alerting fires without parsing the body.
		// Degraded is availability trouble and awaiting-reenroll a planned
		// lifecycle state — both reported, both still 200.
		if sum.Status() == telemetry.StatusSuspect {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintf(w, `{"status": %q, "devices": %d, "ok": %d, "degraded": %d, "awaiting_reenroll": %d, "suspect": %d}`+"\n",
			sum.Status().String(), sum.Devices, sum.OK, sum.Degraded, sum.AwaitingReenroll, sum.Suspect)
	}))
	// pprof registers on http.DefaultServeMux via init; re-register its
	// handlers explicitly so the admin endpoint works on a private mux
	// without dragging DefaultServeMux (and whatever else registered
	// there) onto a network listener.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// StartAdmin serves the admin mux on the TCP address (":0" picks a free
// port) and returns the bound address plus a close function that stops the
// listener and aborts in-flight requests. When the close function returns,
// the port no longer accepts and the serving goroutine has exited. A nil
// Telemetry serves the package default.
func StartAdmin(addr string, t *Telemetry) (net.Addr, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: AdminMux(t)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // ends with ErrServerClosed once closed
	}()
	closeFn := func() error {
		err := srv.Close()
		// Server.Close only closes listeners Serve has registered; one it
		// has not reached yet would stay open until Serve closes it later,
		// from its own goroutine. Close it here, then wait for Serve.
		if lerr := ln.Close(); lerr != nil && !errors.Is(lerr, net.ErrClosed) && err == nil {
			err = lerr
		}
		<-served
		return err
	}
	return ln.Addr(), closeFn, nil
}

// StartAdmin attaches an admin endpoint to the prover server's lifecycle:
// it serves the package-default telemetry on addr and is shut down by
// Server.Close along with the attestation listener.
func (s *Server) StartAdmin(addr string) (net.Addr, error) {
	a, closeFn, err := StartAdmin(addr, nil)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = closeFn()
		return nil, net.ErrClosed
	}
	s.adminClose = closeFn
	s.mu.Unlock()
	return a, nil
}
