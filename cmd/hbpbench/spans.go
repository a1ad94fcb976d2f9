package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one run
// share its ID in Trace; Parent names the span that caused this one.
type span struct {
	Name   string             `json:"name"`
	Trace  string             `json:"trace,omitempty"`
	Parent string             `json:"parent,omitempty"`
	Start  time.Time          `json:"start"`
	End    time.Time          `json:"end"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	Failed bool               `json:"failed,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory; they are written out once, when the
// benchmark ends, so recording costs an append under a lock. A nil
// tracer records nothing, which is the untraced configuration.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the durations of the spans named name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// count returns how many spans are named name.
func (t *tracer) count(name string) int { return len(t.durations(name)) }

// write dumps every span as one JSON line to path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// routeName maps a request to the API route it hits, with the path
// identifiers folded out.
func routeName(method, path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case method == http.MethodPost && len(parts) == 3 && parts[0] == "suites" && parts[2] == "cases":
		return "submit"
	case method == http.MethodGet && len(parts) == 2 && parts[0] == "runs":
		return "get_run"
	case method == http.MethodPost && len(parts) == 1 && parts[0] == "suites":
		return "create_suite"
	case method == http.MethodPost && len(parts) == 4 && parts[1] == "workers" && parts[3] == "lease":
		return "lease"
	case method == http.MethodPost && len(parts) == 2 && parts[0] == "fleet" && parts[1] == "workers":
		return "register"
	case method == http.MethodPost && len(parts) == 2 && parts[0] == "fleet":
		return parts[1] // heartbeat, complete
	case len(parts) == 1:
		return parts[0] // healthz, readyz, stats
	}
	return "other"
}

// timedHandler wraps a daemon's handler and records one span per
// request, named "<daemon>.http.<route>".
func timedHandler(daemon string, h http.Handler, tr *tracer) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		tr.add(span{Name: daemon + ".http." + routeName(r.Method, r.URL.Path), Start: start, End: time.Now()})
	})
}

// timedTransport records one client span per request the load
// generator sends: "client.submit" or "client.poll".
type timedTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(r)
	name := "client." + routeName(r.Method, r.URL.Path)
	if name == "client.get_run" {
		name = "client.poll"
	}
	t.tr.add(span{Name: name, Trace: lastSegment(r.URL.Path), Start: start, End: time.Now(), Failed: err != nil})
	return resp, err
}

func lastSegment(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

func spanPath(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}
