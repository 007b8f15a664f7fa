package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"

	"hetbench/internal/harness"
	"hetbench/internal/trace"
)

// maxBodyBytes bounds a run request's JSON body.
const maxBodyBytes = 1 << 20

// Handler returns the daemon's HTTP API:
//
//	POST /v1/run          {"experiment","scale","seed","timeout_ms"} → Result
//	GET  /v1/experiments  registry listing
//	GET  /healthz         "ok" (200) or "draining" (503)
//	GET  /metricz         service counters, request-latency quantiles
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metricz", s.handleMetricz)
	return mux
}

func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err), nil)
		return
	}
	// The request's context is the cancellation root: the client closing
	// its connection cancels it, and an explicit budget tightens it.
	ctx := r.Context()
	if req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
		defer cancel()
	}
	res, err := s.Do(ctx, req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, res)
	case errors.Is(err, ErrUnknownExperiment):
		httpError(w, http.StatusBadRequest, err.Error(), nil)
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, err.Error(), nil)
	case isOverloaded(err, w):
		// isOverloaded wrote the Retry-After header and the 429.
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client is gone or out of budget; the write usually fails,
		// but a server-side timeout can still reach a live client.
		httpError(w, http.StatusServiceUnavailable, err.Error(), res)
	default:
		httpError(w, http.StatusInternalServerError, err.Error(), res)
	}
}

// isOverloaded handles the 429 path inline so the switch stays flat.
func isOverloaded(err error, w http.ResponseWriter) bool {
	var ov *OverloadedError
	if !errors.As(err, &ov) {
		return false
	}
	secs := int(ov.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	httpError(w, http.StatusTooManyRequests, err.Error(), nil)
	return true
}

// errorBody is the JSON error envelope. Degraded runs carry their
// partial output so a client can inspect the healthy prefix.
type errorBody struct {
	Error    string `json:"error"`
	Degraded bool   `json:"degraded,omitempty"`
	Output   string `json:"output,omitempty"`
}

func httpError(w http.ResponseWriter, code int, msg string, res *Result) {
	body := errorBody{Error: msg}
	if res != nil {
		body.Degraded = res.Degraded
		body.Output = res.Output
	}
	writeJSON(w, code, body)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the client is the only reader; a failed write has no recovery
}

// ExperimentInfo is one /v1/experiments entry.
type ExperimentInfo struct {
	ID          string `json:"id"`
	Title       string `json:"title"`
	Description string `json:"description"`
}

func (s *Service) handleExperiments(w http.ResponseWriter, r *http.Request) {
	reg := harness.Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]ExperimentInfo, 0, len(ids))
	for _, id := range ids {
		e := reg[id]
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title, Description: e.Description})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// Metrics is the /metricz document: every service.* counter, the
// request-latency quantiles, and runtime gauges the smoke tests read.
// TraitsLen counts the characterizations the service keeps across
// requests: it stops growing once every reachable (app config,
// precision, device geometry) has been measured.
type Metrics struct {
	Counters   map[string]float64 `json:"counters"`
	RequestNs  map[string]float64 `json:"request_ns"`
	Goroutines int                `json:"goroutines"`
	CacheLen   int                `json:"cache_len"`
	TraitsLen  int                `json:"traits_len"`
}

func (s *Service) handleMetricz(w http.ResponseWriter, r *http.Request) {
	m := Metrics{
		Counters:   s.reg.Snapshot(),
		RequestNs:  map[string]float64{},
		Goroutines: runtime.NumGoroutine(),
		CacheLen:   s.cache.Len(),
		TraitsLen:  s.traits.Len(),
	}
	if h := s.reg.Hist(trace.HistServiceRequestNs); h != nil {
		m.RequestNs["count"] = float64(h.Count())
		for _, q := range []float64{0.5, 0.9, 0.99} {
			m.RequestNs[fmt.Sprintf("p%g", q*100)] = h.Quantile(q)
		}
		m.RequestNs["max"] = h.Max()
	}
	writeJSON(w, http.StatusOK, &m)
}
