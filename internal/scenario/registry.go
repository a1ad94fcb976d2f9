package scenario

import (
	"cmp"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrQueueFull is the admission-control rejection: the submission
// queue is at capacity and the client should back off and retry — 503
// + Retry-After at the HTTP layer.
var ErrQueueFull = errors.New("scenario: submission queue full")

// ErrDraining rejects submissions during shutdown.
var ErrDraining = errors.New("scenario: service is draining")

// DefaultWallDeadline is the per-attempt wall-clock deadline a runner
// or a fleet worker applies to a case that sets none.
const DefaultWallDeadline = 2 * time.Minute

// OrDefault sets *v to def when *v is unset (zero or negative), the
// rule every service setting defaults by.
func OrDefault[T cmp.Ordered](v *T, def T) {
	var zero T
	if *v <= zero {
		*v = def
	}
}

// AdmissionDefaults fills the admission and retry settings the runner
// and the fleet coordinator default alike: a 64-run queue, 3 seed
// attempts for injected infrastructure faults, and retry backoff
// between 100 ms and 5 s.
func AdmissionDefaults(queueCap, maxAttempts *int, backoffBase, backoffMax *time.Duration) {
	OrDefault(queueCap, 64)
	OrDefault(maxAttempts, 3)
	OrDefault(backoffBase, 100*time.Millisecond)
	OrDefault(backoffMax, 5*time.Second)
}

// Suite groups runs for reporting.
type Suite struct {
	ID   string   `json:"id"`
	Name string   `json:"name"`
	Runs []string `json:"runs"`
}

// Health is the live/schedulable snapshot readyz serves: a daemon is
// alive whenever it answers, but only schedulable when it is not
// draining and has queue headroom — the distinction a fleet
// coordinator (and the CI smoke) needs to route work.
type Health struct {
	QueueDepth int  `json:"queue"`
	QueueCap   int  `json:"queue_cap"`
	InFlight   int  `json:"in_flight"`
	Draining   bool `json:"draining"`
}

// Ready reports whether the service can accept a submission right now.
func (h Health) Ready() bool {
	return !h.Draining && h.QueueDepth < h.QueueCap
}

// Liveness is the healthz body: the service answers, plus its backlog.
func (h Health) Liveness() map[string]any {
	return map[string]any{"status": "ok", "queue": h.QueueDepth, "queue_cap": h.QueueCap}
}

// Registry is the suite and run bookkeeping both lifecycles share —
// the runner and the fleet coordinator embed one: the suite map, the
// s-N and r-N ID counters, admission with its journal records, restore
// from a journal replay, and the reads behind the client routes. R is
// the lifecycle's per-run record, V the snapshot clients see.
type Registry[R, V any] struct {
	// Mu guards the registry and all lifecycle state kept beside it
	// (queues, leases, counters), so an admission is atomic with its
	// queue push.
	Mu sync.Mutex
	// Runs indexes every run record by ID, journal-recovered ones
	// included.
	Runs map[string]R
	// Draining rejects admissions once set.
	Draining bool
	// Journal receives every lifecycle record; nil journals nothing.
	Journal *Journal

	suites    map[string]*Suite
	nextSuite int
	nextRun   int
	enqueue   func(*Run) (R, bool)
	view      func(R) V
}

// NewRegistry returns an empty registry journaling to j. enqueue,
// called under Mu, wraps an admitted run in the lifecycle's record and
// queues it, or reports a full queue; view, called under Mu, snapshots
// a record for clients.
func NewRegistry[R, V any](j *Journal, enqueue func(*Run) (R, bool), view func(R) V) *Registry[R, V] {
	return &Registry[R, V]{Runs: map[string]R{}, Journal: j, suites: map[string]*Suite{}, enqueue: enqueue, view: view}
}

// Restore loads what the journal entries replay to and advances the ID
// counters past it, so new IDs never collide with journaled ones.
// adopt turns each replayed run into the lifecycle's record, applying
// the lifecycle's policy to a run the previous process died holding.
func (g *Registry[R, V]) Restore(entries []Entry, adopt func(*Replayed) R) {
	suites, runs := Replay(entries)
	for id, name := range suites {
		g.suites[id] = &Suite{ID: id, Name: name}
		bumpCounter(&g.nextSuite, id)
	}
	for _, rp := range runs {
		g.Runs[rp.Run.ID] = adopt(rp)
		if s := g.suites[rp.Run.Suite]; s != nil {
			s.Runs = append(s.Runs, rp.Run.ID)
		}
		bumpCounter(&g.nextRun, rp.Run.ID)
	}
}

// bumpCounter advances an ID counter past a recovered "x-<n>" ID.
func bumpCounter(ctr *int, id string) {
	if i := strings.LastIndexByte(id, '-'); i >= 0 {
		if n, err := strconv.Atoi(id[i+1:]); err == nil && n > *ctr {
			*ctr = n
		}
	}
}

// CreateSuite registers a named suite and journals it.
func (g *Registry[R, V]) CreateSuite(name string) (*Suite, error) {
	if name == "" {
		return nil, errors.New("scenario: suite has no name")
	}
	g.Mu.Lock()
	if g.Draining {
		g.Mu.Unlock()
		return nil, ErrDraining
	}
	g.nextSuite++
	s := &Suite{ID: fmt.Sprintf("s-%d", g.nextSuite), Name: name}
	g.suites[s.ID] = s
	g.Mu.Unlock()
	if err := g.Journal.Record(Entry{Type: EntrySuite, Time: time.Now(), Suite: s.ID, SuiteName: name}); err != nil {
		return nil, err
	}
	return s, nil
}

// Submit validates and admits one case under the suite and returns the
// new run's snapshot. A full queue returns ErrQueueFull.
func (g *Registry[R, V]) Submit(suiteID string, spec CaseSpec) (V, error) {
	_, v, err := g.admit(suiteID, spec)
	return v, err
}

// admit is Submit returning the lifecycle's record as well. The
// submitted record is journaled after unlocking — fsync under Mu would
// stall every poll — so a worker may journal the run's later records
// first; Replay puts them back in order.
func (g *Registry[R, V]) admit(suiteID string, spec CaseSpec) (rec R, v V, err error) {
	if err := spec.Validate(); err != nil {
		return rec, v, err
	}
	g.Mu.Lock()
	if g.Draining {
		g.Mu.Unlock()
		return rec, v, ErrDraining
	}
	s := g.suites[suiteID]
	if s == nil {
		g.Mu.Unlock()
		return rec, v, fmt.Errorf("scenario: no suite %q", suiteID)
	}
	run := &Run{
		ID:          fmt.Sprintf("r-%d", g.nextRun+1),
		Suite:       suiteID,
		Spec:        spec,
		State:       StateQueued,
		SubmittedAt: time.Now(),
	}
	rec, ok := g.enqueue(run)
	if !ok {
		g.Mu.Unlock()
		return rec, v, ErrQueueFull
	}
	g.nextRun++
	g.Runs[run.ID] = rec
	s.Runs = append(s.Runs, run.ID)
	v = g.view(rec)
	g.Mu.Unlock()
	err = g.Journal.Record(Entry{
		Type: EntrySubmitted, Time: run.SubmittedAt,
		Suite: suiteID, Run: run.ID, Spec: &spec,
	})
	return rec, v, err
}

// FinishLocked commits out as run's terminal state and returns its
// journal record of type typ. The caller holds Mu and must Record the
// entry after unlocking.
func (g *Registry[R, V]) FinishLocked(run *Run, typ EntryType, out Outcome) Entry {
	run.State = out.State
	run.Error = out.Error
	run.Result = out.Result
	run.FinishedAt = time.Now()
	e := Entry{
		Type: typ, Time: run.FinishedAt,
		Suite: run.Suite, Run: run.ID, State: out.State, Error: out.Error,
	}
	if out.Result != nil {
		e.Fingerprint = out.Result.Fingerprint
	}
	return e
}

// GetRun returns a snapshot of the run.
func (g *Registry[R, V]) GetRun(id string) (V, bool) {
	g.Mu.Lock()
	defer g.Mu.Unlock()
	rec, ok := g.Runs[id]
	if !ok {
		var zero V
		return zero, false
	}
	return g.view(rec), true
}

// GetSuite returns the suite and snapshots of its runs.
func (g *Registry[R, V]) GetSuite(id string) (Suite, []V, bool) {
	g.Mu.Lock()
	defer g.Mu.Unlock()
	s := g.suites[id]
	if s == nil {
		return Suite{}, nil, false
	}
	runs := make([]V, 0, len(s.Runs))
	for _, rid := range s.Runs {
		if rec, ok := g.Runs[rid]; ok {
			runs = append(runs, g.view(rec))
		}
	}
	return *s, runs, true
}

// Suites lists all suites.
func (g *Registry[R, V]) Suites() []Suite {
	g.Mu.Lock()
	defer g.Mu.Unlock()
	out := make([]Suite, 0, len(g.suites))
	for _, s := range g.suites {
		out = append(out, *s)
	}
	return out
}
