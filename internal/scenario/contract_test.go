package scenario_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/scenario"
)

// daemon is one implementation of the client API under contract.
type daemon struct {
	name string
	// serve starts the daemon with the given queue capacity. A working
	// daemon executes runs (the runner's pool, or the coordinator with
	// one in-process worker); an idle one leaves admitted runs queued,
	// so queue fullness is deterministic. drain stops admissions and
	// waits for in-flight work.
	serve func(t *testing.T, queueCap int, working bool) (url string, drain func() error)
	// extraLive names the healthz/readyz fields beyond the shared ones.
	extraLive []string
}

var daemons = []daemon{
	{
		name: "hbpsimd",
		serve: func(t *testing.T, queueCap int, working bool) (string, func() error) {
			r := scenario.NewRunner(scenario.Config{Workers: 1, QueueCap: queueCap}, nil)
			if working {
				r.Start()
			}
			srv := httptest.NewServer(scenario.NewServer(r))
			drain := func() error {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				return r.Drain(ctx)
			}
			t.Cleanup(func() {
				srv.Close()
				drain() //nolint:errcheck // best effort in cleanup
			})
			return srv.URL, drain
		},
	},
	{
		name: "hbpfleet",
		serve: func(t *testing.T, queueCap int, working bool) (string, func() error) {
			c := fleet.NewCoordinator(fleet.Config{
				QueueCap:      queueCap,
				LeaseDuration: 500 * time.Millisecond,
				SweepInterval: 50 * time.Millisecond,
			}, nil)
			c.Start()
			srv := httptest.NewServer(fleet.NewServer(c))
			stopWorker := func() {}
			if working {
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan struct{})
				w := fleet.NewWorker(fleet.WorkerConfig{Name: "contract", PollInterval: 10 * time.Millisecond}, c)
				go func() {
					defer close(done)
					w.Run(ctx) //nolint:errcheck // stopped via cancel
				}()
				stopWorker = func() { cancel(); <-done }
			}
			drain := func() error {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				return c.Drain(ctx)
			}
			t.Cleanup(func() {
				stopWorker()
				srv.Close()
				drain() //nolint:errcheck // best effort in cleanup
				c.Stop()
			})
			return srv.URL, drain
		},
		extraLive: []string{"workers"},
	},
}

func quickCase(name string, seed int64) scenario.CaseSpec {
	return scenario.CaseSpec{Name: name, Tree: &scenario.TreeSpec{Leaves: 40, DurationSec: 20, Seed: seed}}
}

// call issues one request and decodes the JSON body into a map.
func call(t *testing.T, method, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	var rd *strings.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = strings.NewReader(string(b))
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out) //nolint:errcheck // some bodies are empty or not objects
	return resp, out
}

// keys returns the sorted field names of a JSON object.
func keys(m map[string]any) string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, ",")
}

func wantKeys(t *testing.T, what string, m map[string]any, shared []string, extra []string) {
	t.Helper()
	all := append(append([]string{}, shared...), extra...)
	sort.Strings(all)
	if got := keys(m); got != strings.Join(all, ",") {
		t.Fatalf("%s fields = %s, want %s", what, got, strings.Join(all, ","))
	}
}

// TestClientAPIContract: hbpsimd (a scenario.Runner behind
// scenario.NewServer) and hbpfleet (a fleet.Coordinator behind
// fleet.NewServer, with one in-process worker) serve one client API —
// the same routes, status codes, Retry-After headers and JSON field
// names — so scenario.Client drives either unchanged.
func TestClientAPIContract(t *testing.T) {
	for _, d := range daemons {
		t.Run(d.name, func(t *testing.T) {
			t.Run("lifecycle", func(t *testing.T) { contractLifecycle(t, d) })
			t.Run("not-found", func(t *testing.T) { contractNotFound(t, d) })
			t.Run("cancel", func(t *testing.T) { contractCancel(t, d) })
			t.Run("backpressure", func(t *testing.T) { contractBackpressure(t, d) })
			t.Run("health", func(t *testing.T) { contractHealth(t, d) })
		})
	}
}

// contractLifecycle: a suite created with inline cases runs every case
// to passed with a solo-identical fingerprint, seen through
// scenario.Client's WaitRun and GetSuite.
func contractLifecycle(t *testing.T, d daemon) {
	url, _ := d.serve(t, 8, true)
	client := scenario.NewClient(url)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	seeds := []int64{1, 2}
	created, err := client.CreateSuite(ctx, scenario.SuiteSpec{
		Name:  "contract",
		Cases: []scenario.CaseSpec{quickCase("a", seeds[0]), quickCase("b", seeds[1])},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(created.Runs) != 2 || created.Suite.ID == "" {
		t.Fatalf("created %+v, want a suite with 2 runs", created)
	}
	for i, run := range created.Runs {
		got, err := client.WaitRun(ctx, run.ID, 20*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != scenario.StatePassed || got.Result == nil || got.Result.Fingerprint == "" {
			t.Fatalf("run %s: state %s result %+v (err %+v), want passed with a fingerprint", got.ID, got.State, got.Result, got.Error)
		}
		solo, err := scenario.RunCaseSolo(&got.Spec, seeds[i])
		if err != nil {
			t.Fatal(err)
		}
		if got.Result.Fingerprint != solo.Fingerprint {
			t.Fatalf("run %s: fingerprint %s != solo %s", got.ID, got.Result.Fingerprint, solo.Fingerprint)
		}
	}
	suite, err := client.GetSuite(ctx, created.Suite.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Runs) != 2 || suite.Runs[0].State != scenario.StatePassed || suite.Runs[1].State != scenario.StatePassed {
		t.Fatalf("suite view: %+v", suite)
	}
}

// contractNotFound: unknown suite and run IDs are 404 on every route
// that names one; submitting to an unknown suite is a 400.
func contractNotFound(t *testing.T, d daemon) {
	url, _ := d.serve(t, 8, false)
	for _, c := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/suites/s-999", http.StatusNotFound},
		{http.MethodGet, "/runs/r-999", http.StatusNotFound},
		{http.MethodDelete, "/runs/r-999", http.StatusNotFound},
	} {
		resp, body := call(t, c.method, url+c.path, nil)
		if resp.StatusCode != c.want || body["error"] == nil {
			t.Fatalf("%s %s = %d %v, want %d with an error body", c.method, c.path, resp.StatusCode, body, c.want)
		}
	}
	resp, body := call(t, http.MethodPost, url+"/suites/s-999/cases", quickCase("x", 1))
	if resp.StatusCode != http.StatusBadRequest || body["error"] == nil {
		t.Fatalf("submit to unknown suite = %d %v, want 400", resp.StatusCode, body)
	}
	if _, err := scenario.NewClient(url).GetRun(context.Background(), "r-999"); err == nil {
		t.Fatal("client fetched an unknown run")
	}
}

// contractCancel: DELETE of a queued run answers 200 with the run
// cancelled, and again (a no-op) on the now-terminal run.
func contractCancel(t *testing.T, d daemon) {
	url, _ := d.serve(t, 8, false)
	ctx := context.Background()
	client := scenario.NewClient(url)
	created, err := client.CreateSuite(ctx, scenario.SuiteSpec{Name: "cancel", Cases: []scenario.CaseSpec{quickCase("doomed", 3)}})
	if err != nil {
		t.Fatal(err)
	}
	id := created.Runs[0].ID
	for i := 0; i < 2; i++ {
		resp, body := call(t, http.MethodDelete, url+"/runs/"+id, nil)
		if resp.StatusCode != http.StatusOK || body["state"] != string(scenario.StateCancelled) {
			t.Fatalf("DELETE #%d = %d %v, want 200 cancelled", i+1, resp.StatusCode, body)
		}
	}
	if err := client.CancelRun(ctx, id); err != nil {
		t.Fatalf("client cancel of a terminal run: %v", err)
	}
	got, err := client.GetRun(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != scenario.StateCancelled || got.Error == nil || got.Error.Kind != scenario.ErrCancelled {
		t.Fatalf("cancelled run = %s %+v", got.State, got.Error)
	}
}

// contractBackpressure: a full queue answers the submit route with 503
// and Retry-After, the retrying client gives up with an error, and
// readyz turns 503 with Retry-After while healthz stays 200.
func contractBackpressure(t *testing.T, d daemon) {
	url, _ := d.serve(t, 1, false)
	resp, body := call(t, http.MethodPost, url+"/suites", scenario.SuiteSpec{Name: "pressure"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create suite = %d %v", resp.StatusCode, body)
	}
	suite := body["suite"].(map[string]any)["id"].(string)
	if resp, body := call(t, http.MethodPost, url+"/suites/"+suite+"/cases", quickCase("fits", 1)); resp.StatusCode != http.StatusAccepted || body["state"] != string(scenario.StateQueued) {
		t.Fatalf("first submit = %d %v, want 202 queued", resp.StatusCode, body)
	}
	resp, body = call(t, http.MethodPost, url+"/suites/"+suite+"/cases", quickCase("bounced", 2))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" || body["error"] == nil {
		t.Fatalf("overflow = %d %v (Retry-After %q), want 503 with Retry-After", resp.StatusCode, body, resp.Header.Get("Retry-After"))
	}
	client := scenario.NewClient(url)
	client.MaxSubmitRetries = 1
	client.BackoffBase = time.Millisecond
	client.BackoffMax = 2 * time.Millisecond
	client.Seed = 1
	if _, err := client.SubmitCase(context.Background(), suite, quickCase("bounced", 2)); err == nil {
		t.Fatal("client submit fit a full queue")
	}

	resp, body = call(t, http.MethodGet, url+"/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("full readyz = %d (Retry-After %q), want 503 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if body["queue"] != 1.0 || body["queue_cap"] != 1.0 || body["draining"] != false {
		t.Fatalf("full readyz body = %v, want queue 1 of 1, not draining", body)
	}
	if resp, body := call(t, http.MethodGet, url+"/healthz", nil); resp.StatusCode != http.StatusOK || body["status"] != "ok" || body["queue"] != 1.0 {
		t.Fatalf("healthz while full = %d %v, want 200 ok with queue 1", resp.StatusCode, body)
	}
}

// contractHealth: healthz and readyz carry the same field names on
// both daemons (plus the fleet's worker count): readyz is 200 while
// idle and 503 once draining; healthz is 200 throughout.
func contractHealth(t *testing.T, d daemon) {
	url, drain := d.serve(t, 7, false)
	resp, live := call(t, http.MethodGet, url+"/healthz", nil)
	if resp.StatusCode != http.StatusOK || live["status"] != "ok" || live["queue_cap"] != 7.0 || live["queue"] != 0.0 {
		t.Fatalf("healthz = %d %v, want 200 ok with queue 0 of 7", resp.StatusCode, live)
	}
	wantKeys(t, "healthz", live, []string{"status", "queue", "queue_cap"}, d.extraLive)
	resp, ready := call(t, http.MethodGet, url+"/readyz", nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Retry-After") != "" {
		t.Fatalf("idle readyz = %d (Retry-After %q), want 200", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	wantKeys(t, "readyz", ready, []string{"queue", "queue_cap", "in_flight", "draining"}, d.extraLive)

	if err := drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, ready = call(t, http.MethodGet, url+"/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || ready["draining"] != true || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining readyz = %d %v, want 503 with draining=true and Retry-After", resp.StatusCode, ready)
	}
	if resp, _ := call(t, http.MethodGet, url+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200 (still live)", resp.StatusCode)
	}
	resp, body := call(t, http.MethodPost, url+"/suites", scenario.SuiteSpec{Name: "late"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create suite while draining = %d %v, want 503", resp.StatusCode, body)
	}
}
