package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/scenario"
)

// TestServerEndToEnd drives the full wire path: a scenario.Client
// submits through the fleet server's suite API, a worker pulls over
// the /fleet/ routes via RemoteCoord, and the result round-trips with
// a solo-identical fingerprint — proving hbpsim -fleet and hbpsimd
// -worker interoperate without either knowing about the other.
func TestServerEndToEnd(t *testing.T) {
	c := NewCoordinator(fastCfg(), nil)
	c.Start()
	defer c.Stop()
	ts := httptest.NewServer(NewServer(c))
	defer ts.Close()

	startWorker(t, NewRemoteCoord(ts.URL), WorkerConfig{Name: "wire"})

	client := scenario.NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	created, err := client.CreateSuite(ctx, scenario.SuiteSpec{
		Name:  "wire",
		Cases: []scenario.CaseSpec{quickCase("case", 41)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(created.Runs) != 1 {
		t.Fatalf("created %d runs", len(created.Runs))
	}
	run, err := client.WaitRun(ctx, created.Runs[0].ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if run.State != scenario.StatePassed {
		t.Fatalf("wire run: %s (%+v)", run.State, run.Error)
	}
	if want := soloFingerprint(t, run.Spec, 41); run.Result.Fingerprint != want {
		t.Fatalf("wire fingerprint %s != solo %s", run.Result.Fingerprint, want)
	}
}

// TestServerBackpressureAndHealth: a submission bounced off the full
// queue is counted in /stats. (The 503 + Retry-After answers of the
// submit route and readyz, and healthz staying 200, are
// TestClientAPIContract's, on both daemons.)
func TestServerBackpressureAndHealth(t *testing.T) {
	cfg := fastCfg()
	cfg.QueueCap = 1
	c := NewCoordinator(cfg, nil)
	ts := httptest.NewServer(NewServer(c))
	defer ts.Close()

	client := scenario.NewClient(ts.URL)
	client.MaxSubmitRetries = 1
	client.BackoffBase = time.Millisecond
	client.BackoffMax = 2 * time.Millisecond
	client.Seed = 1
	ctx := context.Background()

	created, err := client.CreateSuite(ctx, scenario.SuiteSpec{Name: "pressure"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.SubmitCase(ctx, created.Suite.ID, quickCase("fits", 1)); err != nil {
		t.Fatal(err)
	}
	// No workers: the queue stays full, and the retrying client
	// eventually surfaces the 503.
	if _, err := client.SubmitCase(ctx, created.Suite.ID, quickCase("bounced", 2)); err == nil {
		t.Fatal("second submit fit a size-1 queue with no workers")
	}

	stats, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer stats.Body.Close()
	var s Stats
	if err := json.NewDecoder(stats.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.RejectedFull == 0 {
		t.Fatalf("stats missed the rejection: %+v", s)
	}
}

// TestServerWorkerRoutes: the worker-facing wire protocol — register,
// empty lease, heartbeat against a stale lease — behaves as RemoteCoord
// expects.
func TestServerWorkerRoutes(t *testing.T) {
	c := NewCoordinator(fastCfg(), nil)
	ts := httptest.NewServer(NewServer(c))
	defer ts.Close()
	rc := NewRemoteCoord(ts.URL)

	id, err := rc.Register(WorkerInfo{Name: "probe"})
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty worker ID")
	}
	// Empty queue: lease returns no assignment, no error.
	a, err := rc.Lease(id)
	if err != nil || a != nil {
		t.Fatalf("lease on empty queue: %+v, %v", a, err)
	}
	// Heartbeat for an unknown run: abort, not an error.
	d, err := rc.Heartbeat(id, "r-404", 1)
	if err != nil || d != DirectiveAbort {
		t.Fatalf("stale heartbeat: %v, %v", d, err)
	}
	// Completing an unknown run is a hard error (410 on the wire).
	if err := rc.Complete(id, "r-404", 1, Outcome{State: scenario.StatePassed}); err == nil {
		t.Fatal("completing an unknown run succeeded")
	}
	// Unknown worker leasing: 410 surfaces as an error.
	if _, err := rc.Lease("w-404"); err == nil {
		t.Fatal("unknown worker leased")
	}
}
