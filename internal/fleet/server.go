package fleet

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/scenario"
)

// NewServer is the coordinator's HTTP face. The client-facing half is
// scenario.Routes, the suite/case API the scenario daemon serves, so
// scenario.Client (and therefore cmd/hbpsim) submits to a fleet
// coordinator the same way it submits to a single daemon; run
// snapshots carry the fleet position as extra fields. On top of it:
//
//	GET    /stats               exactly-once accounting counters
//
//	POST   /fleet/workers             WorkerInfo     -> {"id": ...}
//	POST   /fleet/workers/{id}/lease  -> Assignment, or 204 when no work
//	POST   /fleet/heartbeat           heartbeatRequest -> {"directive": ...}
//	POST   /fleet/complete            completeRequest
func NewServer(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	scenario.Routes(mux, c.Registry, c.Cancel, c.Health)
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, req *http.Request) {
		scenario.WriteJSON(w, http.StatusOK, c.Stats())
	})
	mux.HandleFunc("POST /fleet/workers", func(w http.ResponseWriter, req *http.Request) {
		var info WorkerInfo
		if err := json.NewDecoder(req.Body).Decode(&info); err != nil {
			scenario.HTTPError(w, http.StatusBadRequest, err)
			return
		}
		id, err := c.Register(info)
		if err != nil {
			scenario.HTTPError(w, statusFor(err), err)
			return
		}
		scenario.WriteJSON(w, http.StatusCreated, map[string]string{"id": id})
	})
	mux.HandleFunc("POST /fleet/workers/{id}/lease", func(w http.ResponseWriter, req *http.Request) {
		a, err := c.Lease(req.PathValue("id"))
		if err != nil {
			scenario.HTTPError(w, statusFor(err), err)
			return
		}
		if a == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		scenario.WriteJSON(w, http.StatusOK, a)
	})
	mux.HandleFunc("POST /fleet/heartbeat", func(w http.ResponseWriter, req *http.Request) {
		var hb heartbeatRequest
		if err := json.NewDecoder(req.Body).Decode(&hb); err != nil {
			scenario.HTTPError(w, http.StatusBadRequest, err)
			return
		}
		d, err := c.Heartbeat(hb.Worker, hb.Run, hb.Dispatch)
		if err != nil {
			scenario.HTTPError(w, statusFor(err), err)
			return
		}
		scenario.WriteJSON(w, http.StatusOK, map[string]Directive{"directive": d})
	})
	mux.HandleFunc("POST /fleet/complete", func(w http.ResponseWriter, req *http.Request) {
		var cr completeRequest
		if err := json.NewDecoder(req.Body).Decode(&cr); err != nil {
			scenario.HTTPError(w, http.StatusBadRequest, err)
			return
		}
		if err := c.Complete(cr.Worker, cr.Run, cr.Dispatch, cr.Outcome); err != nil {
			scenario.HTTPError(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// heartbeatRequest identifies the lease being renewed.
type heartbeatRequest struct {
	Worker   string `json:"worker"`
	Run      string `json:"run"`
	Dispatch int    `json:"dispatch"`
}

// completeRequest carries one terminal report.
type completeRequest struct {
	Worker   string  `json:"worker"`
	Run      string  `json:"run"`
	Dispatch int     `json:"dispatch"`
	Outcome  Outcome `json:"outcome"`
}

// statusFor maps coordinator errors to HTTP statuses: a full worker
// registry is 503 like the admission errors, a forgotten worker or run
// is 410.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrFleetFull):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownWorker), errors.Is(err, ErrUnknownRun):
		return http.StatusGone
	default:
		return scenario.StatusFor(err)
	}
}
