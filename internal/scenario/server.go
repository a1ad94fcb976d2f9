package scenario

import (
	"encoding/json"
	"errors"
	"net/http"
)

// Readiness is a lifecycle's health snapshot: readyz serves it whole,
// 200 only when Ready, and healthz serves its Liveness.
type Readiness interface {
	Ready() bool
	Liveness() map[string]any
}

// SuiteStatus is the GET /suites/{id} (and POST /suites) body: the
// suite plus snapshots of its runs.
type SuiteStatus = suiteBody[Run]

type suiteBody[V any] struct {
	Suite Suite `json:"suite"`
	Runs  []V   `json:"runs"`
}

// Routes mounts the client API both daemons serve — cmd/hbpsimd in
// front of a Runner, cmd/hbpfleet in front of a fleet Coordinator —
// on mux. g is the lifecycle's registry; cancel and health are the
// lifecycle's own.
//
//	POST   /suites            {"name": ...}            -> suite (optionally with inline "cases")
//	GET    /suites            list suites
//	GET    /suites/{id}       suite + run snapshots
//	POST   /suites/{id}/cases CaseSpec                 -> run (503 + Retry-After when full)
//	GET    /runs/{id}         run snapshot
//	DELETE /runs/{id}         cancel the run
//	GET    /healthz           liveness + queue depth
//	GET    /readyz            schedulability: 200 only when accepting work
func Routes[R, V any, H Readiness](mux *http.ServeMux, g *Registry[R, V], cancel func(runID string) error, health func() H) {
	mux.HandleFunc("POST /suites", func(w http.ResponseWriter, req *http.Request) {
		var spec SuiteSpec
		if err := json.NewDecoder(req.Body).Decode(&spec); err != nil {
			HTTPError(w, http.StatusBadRequest, err)
			return
		}
		// A bare {"name": ...} creates an empty suite for incremental
		// submission; inline cases are validated and submitted
		// atomically up front.
		if len(spec.Cases) > 0 {
			if err := spec.Validate(); err != nil {
				HTTPError(w, http.StatusBadRequest, err)
				return
			}
		} else if spec.Name == "" {
			HTTPError(w, http.StatusBadRequest, errors.New("suite has no name"))
			return
		}
		suite, err := g.CreateSuite(spec.Name)
		if err != nil {
			HTTPError(w, StatusFor(err), err)
			return
		}
		for i := range spec.Cases {
			if _, err := g.Submit(suite.ID, spec.Cases[i]); err != nil {
				// Partial admission is visible in the suite state;
				// report the stall so the client can resubmit the
				// remainder.
				w.Header().Set("Retry-After", "1")
				HTTPError(w, StatusFor(err), err)
				return
			}
		}
		got, runs, _ := g.GetSuite(suite.ID)
		WriteJSON(w, http.StatusCreated, suiteBody[V]{Suite: got, Runs: runs})
	})
	mux.HandleFunc("GET /suites", func(w http.ResponseWriter, req *http.Request) {
		WriteJSON(w, http.StatusOK, g.Suites())
	})
	mux.HandleFunc("GET /suites/{id}", func(w http.ResponseWriter, req *http.Request) {
		suite, runs, ok := g.GetSuite(req.PathValue("id"))
		if !ok {
			HTTPError(w, http.StatusNotFound, errors.New("no such suite"))
			return
		}
		WriteJSON(w, http.StatusOK, suiteBody[V]{Suite: suite, Runs: runs})
	})
	mux.HandleFunc("POST /suites/{id}/cases", func(w http.ResponseWriter, req *http.Request) {
		var spec CaseSpec
		if err := json.NewDecoder(req.Body).Decode(&spec); err != nil {
			HTTPError(w, http.StatusBadRequest, err)
			return
		}
		run, err := g.Submit(req.PathValue("id"), spec)
		writeAdmitted(w, run, err)
	})
	mux.HandleFunc("GET /runs/{id}", func(w http.ResponseWriter, req *http.Request) {
		run, ok := g.GetRun(req.PathValue("id"))
		if !ok {
			HTTPError(w, http.StatusNotFound, errors.New("no such run"))
			return
		}
		WriteJSON(w, http.StatusOK, run)
	})
	mux.HandleFunc("DELETE /runs/{id}", func(w http.ResponseWriter, req *http.Request) {
		if err := cancel(req.PathValue("id")); err != nil {
			HTTPError(w, http.StatusNotFound, err)
			return
		}
		run, _ := g.GetRun(req.PathValue("id"))
		WriteJSON(w, http.StatusOK, run)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		WriteJSON(w, http.StatusOK, health().Liveness())
	})
	// readyz distinguishes live from schedulable: a draining daemon or
	// a full queue answers 503 (with the same body) so a fleet
	// coordinator or smoke test can tell "up" from "will accept a run
	// right now".
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, req *http.Request) {
		h := health()
		code := http.StatusOK
		if !h.Ready() {
			code = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
		}
		WriteJSON(w, code, h)
	})
}

// writeAdmitted answers one admission: 202 with the run, or the
// mapped error status — with Retry-After on a full queue.
func writeAdmitted[V any](w http.ResponseWriter, run V, err error) {
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			w.Header().Set("Retry-After", "1")
		}
		HTTPError(w, StatusFor(err), err)
		return
	}
	WriteJSON(w, http.StatusAccepted, run)
}

// NewServer is hbpsimd's HTTP face: the client routes in front of the
// runner, plus
//
//	POST   /runs/{id}/resubmit re-queue an interrupted run
func NewServer(r *Runner) http.Handler {
	mux := http.NewServeMux()
	Routes(mux, r.Registry, r.Cancel, r.Health)
	mux.HandleFunc("POST /runs/{id}/resubmit", func(w http.ResponseWriter, req *http.Request) {
		run, err := r.Resubmit(req.PathValue("id"))
		var snap Run
		if err == nil {
			snap, _ = r.GetRun(run.ID)
		}
		writeAdmitted(w, snap, err)
	})
	return mux
}

// StatusFor maps admission errors to HTTP statuses: backpressure and
// shutdown are 503 (retryable), anything else — a bad spec, an unknown
// suite — is 400.
func StatusFor(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone
}

// HTTPError writes {"error": err} with the given status.
func HTTPError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}
