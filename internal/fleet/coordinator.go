package fleet

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bounded"
	"repro/internal/scenario"
)

// Config tunes the coordinator.
type Config struct {
	// QueueCap bounds the admission queue; a full queue rejects with
	// scenario.ErrQueueFull (default 64). Internal re-queues after failover are
	// exempt from the cap — admission control must never lose an
	// already-admitted run.
	QueueCap int
	// LeaseDuration is how long a dispatch survives without a
	// heartbeat (default 15 s).
	LeaseDuration time.Duration
	// SweepInterval is how often expired leases are collected
	// (default LeaseDuration/4).
	SweepInterval time.Duration
	// MaxDispatches bounds lease grants per run; exhausting it
	// records a typed worker-lost failure (default 5).
	MaxDispatches int
	// MaxAttempts bounds seed attempts for *reported* infra faults,
	// mirroring the local runner (default 3).
	MaxAttempts int
	// BackoffBase and BackoffMax bound the jittered exponential
	// backoff before a re-dispatch (defaults 100 ms and 5 s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxWorkers caps the registry (default 64).
	MaxWorkers int
	// Journal, when non-nil, receives every assignment/completion.
	Journal *scenario.Journal
}

func (c Config) withDefaults() Config {
	scenario.AdmissionDefaults(&c.QueueCap, &c.MaxAttempts, &c.BackoffBase, &c.BackoffMax)
	scenario.OrDefault(&c.LeaseDuration, 15*time.Second)
	scenario.OrDefault(&c.SweepInterval, c.LeaseDuration/4)
	scenario.OrDefault(&c.MaxDispatches, 5)
	scenario.OrDefault(&c.MaxWorkers, 64)
	return c
}

// runRec is the coordinator's per-run state: the client-visible run
// plus its lease position. All fields are guarded by Mu.
type runRec struct {
	run *scenario.Run

	dispatches  int    // leases granted so far
	seedAttempt int    // seed attempt the next/current dispatch runs at
	worker      string // current lease holder ("" when none)
	dispatch    int    // current lease's dispatch number
	leaseExpiry time.Time
	notBefore   time.Time // backoff gate while queued for re-dispatch
	cancelReq   bool
}

// status snapshots a run for clients; the caller holds Mu.
func (rec *runRec) status() RunStatus {
	return RunStatus{
		Run:         rec.run.Snapshot(),
		Worker:      rec.worker,
		Dispatches:  rec.dispatches,
		SeedAttempt: rec.seedAttempt,
	}
}

// workerRec is one registered worker.
type workerRec struct {
	info     WorkerInfo
	inFlight int
}

// Coordinator owns the fleet dispatch state machine: a bounded
// admission queue, a worker registry, leases with heartbeat renewal,
// re-dispatch with backoff and budget, first-completion-wins dedup and
// a crash-safe journal. See the package comment for the invariant it
// maintains. Suites, run IDs, admission and the client reads are the
// embedded Registry's; its Mu guards every field below too.
type Coordinator struct {
	*scenario.Registry[*runRec, RunStatus]
	cfg Config

	queue      *bounded.Queue[string] // fresh admissions (cap = QueueCap)
	requeue    []string               // failover re-queues, FIFO, budget-bounded
	workers    map[string]*workerRec
	stats      Stats
	nextWorker int

	sweepStop chan struct{}
	sweepDone chan struct{}
}

// NewCoordinator builds a coordinator, replaying journaled history:
// terminal runs are restored as-is and every orphaned in-flight or
// queued run returns to the dispatch queue with its budget intact.
func NewCoordinator(cfg Config, recovered []scenario.Entry) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		queue:   bounded.NewQueue[string](cfg.QueueCap),
		workers: map[string]*workerRec{},
	}
	c.Registry = scenario.NewRegistry(cfg.Journal, c.enqueueLocked, (*runRec).status)
	c.Restore(recovered, func(rp *scenario.Replayed) *runRec {
		c.stats.Admitted++
		if rp.Run.State.Terminal() {
			c.stats.Completed++
		} else {
			// Orphaned: the previous coordinator died holding it.
			// Requeue rather than mark interrupted — the exactly-once
			// dedup makes automatic resubmission safe, and a possibly
			// still-running worker's late report will simply win or
			// be ignored.
			c.requeue = append(c.requeue, rp.Run.ID)
		}
		return &runRec{run: rp.Run, dispatches: rp.Dispatches, seedAttempt: rp.SeedAttempt, cancelReq: rp.CancelReq}
	})
	return c
}

// enqueueLocked queues an admitted run, counting the admission or the
// rejection.
func (c *Coordinator) enqueueLocked(run *scenario.Run) (*runRec, bool) {
	if !c.queue.Push(run.ID) {
		c.stats.RejectedFull++
		return nil, false
	}
	c.stats.Admitted++
	return &runRec{run: run, seedAttempt: 1}, true
}

// Start launches the lease sweeper.
func (c *Coordinator) Start() {
	c.Mu.Lock()
	if c.sweepStop != nil {
		c.Mu.Unlock()
		return
	}
	c.sweepStop = make(chan struct{})
	c.sweepDone = make(chan struct{})
	stop, done := c.sweepStop, c.sweepDone
	c.Mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(c.cfg.SweepInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.ExpireLeases(time.Now())
			case <-stop:
				return
			}
		}
	}()
}

// Stop halts the lease sweeper (idempotent).
func (c *Coordinator) Stop() {
	c.Mu.Lock()
	stop, done := c.sweepStop, c.sweepDone
	c.sweepStop, c.sweepDone = nil, nil
	c.Mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// ---- client API ----

// Cancel stops a run: queued runs terminate immediately; leased runs
// get DirectiveAbort on their next heartbeat and finalize as cancelled
// when the worker reports — or at lease expiry if it never does. The
// request itself is journaled before Cancel returns, so an
// acknowledged cancel survives a coordinator restart instead of the
// run silently re-executing. Cancelling a terminal run is a no-op.
func (c *Coordinator) Cancel(runID string) error {
	c.Mu.Lock()
	rec := c.Runs[runID]
	if rec == nil {
		c.Mu.Unlock()
		return fmt.Errorf("fleet: no run %q", runID)
	}
	if rec.run.State.Terminal() {
		c.Mu.Unlock()
		return nil
	}
	if rec.worker == "" { // queued
		entry := c.finalizeLocked(rec, Outcome{
			State: scenario.StateCancelled,
			Error: &scenario.RunError{Kind: scenario.ErrCancelled, Message: "cancelled while queued"},
		}, "")
		c.Mu.Unlock()
		return c.Journal.Record(entry)
	}
	rec.cancelReq = true
	entry := scenario.Entry{
		Type: scenario.EntryCancelRequested, Time: time.Now(),
		Suite: rec.run.Suite, Run: runID,
	}
	c.Mu.Unlock()
	// Journal before acknowledging: an acked cancel living only in
	// memory would vanish with a coordinator crash, and recovery would
	// requeue and re-execute a run the client was told is stopping.
	return c.Journal.Record(entry)
}

// Stats returns a copy of the accounting counters.
func (c *Coordinator) Stats() Stats {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return c.stats
}

// Health returns the coordinator's schedulability snapshot.
func (c *Coordinator) Health() Health {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	inFlight := 0
	for _, rec := range c.Runs {
		if rec.run.State == scenario.StateRunning {
			inFlight++
		}
	}
	return Health{Health: scenario.Health{
		QueueDepth: c.queue.Len() + len(c.requeue),
		QueueCap:   c.queue.Cap(),
		InFlight:   inFlight,
		Draining:   c.Draining,
	}, Workers: len(c.workers)}
}

// ---- worker API ----

// Register admits a worker to the registry and returns its unique ID.
func (c *Coordinator) Register(info WorkerInfo) (string, error) {
	if info.Name == "" {
		return "", fmt.Errorf("fleet: worker has no name")
	}
	if info.Capacity <= 0 {
		info.Capacity = 1
	}
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if c.Draining {
		return "", scenario.ErrDraining
	}
	if len(c.workers) >= c.cfg.MaxWorkers {
		return "", ErrFleetFull
	}
	c.nextWorker++
	id := fmt.Sprintf("w-%d", c.nextWorker)
	c.workers[id] = &workerRec{info: info}
	return id, nil
}

// Lease hands the worker its next assignment, or nil when there is no
// eligible work (empty queue, backoff gates, draining, or the worker
// is at capacity).
func (c *Coordinator) Lease(workerID string) (*Assignment, error) {
	now := time.Now()
	c.Mu.Lock()
	w := c.workers[workerID]
	if w == nil {
		c.Mu.Unlock()
		return nil, ErrUnknownWorker
	}
	if c.Draining || w.inFlight >= w.info.Capacity {
		c.Mu.Unlock()
		return nil, nil
	}
	rec := c.nextEligibleLocked(now)
	if rec == nil {
		c.Mu.Unlock()
		return nil, nil
	}
	if rec.cancelReq {
		// A journal-recovered cancel request: the client was told this
		// run is stopping, so finalize it instead of re-dispatching.
		entry := c.finalizeLocked(rec, Outcome{
			State: scenario.StateCancelled,
			Error: &scenario.RunError{Kind: scenario.ErrCancelled, Message: "cancel requested before coordinator restart"},
		}, "")
		c.Mu.Unlock()
		if err := c.Journal.Record(entry); err != nil {
			return nil, err
		}
		return c.Lease(workerID)
	}
	rec.dispatches++
	rec.dispatch = rec.dispatches
	rec.worker = workerID
	rec.leaseExpiry = now.Add(c.cfg.LeaseDuration)
	rec.run.State = scenario.StateRunning
	rec.run.StartedAt = now
	rec.run.Attempts = rec.dispatches
	w.inFlight++
	a := &Assignment{
		Run:         rec.run.ID,
		Suite:       rec.run.Suite,
		Spec:        rec.run.Spec,
		Dispatch:    rec.dispatch,
		SeedAttempt: rec.seedAttempt,
		BaseSeed:    rec.run.Spec.BaseSeed(),
		LeaseMillis: c.cfg.LeaseDuration.Milliseconds(),
	}
	entry := scenario.Entry{
		Type: scenario.EntryDispatched, Time: now,
		Suite: rec.run.Suite, Run: rec.run.ID,
		Worker: workerID, Dispatch: rec.dispatch, SeedAttempt: rec.seedAttempt,
	}
	c.Mu.Unlock()
	// Journal before the assignment leaves the coordinator: a crash
	// after the worker starts but before the dispatch is durable
	// would otherwise recover the run as never-dispatched *and* let a
	// late completion for it arrive — still deduplicated, but the
	// budget accounting would be blind to the lease.
	if err := c.Journal.Record(entry); err != nil {
		// Undo the grant; the run returns to the queue.
		c.Mu.Lock()
		c.releaseLeaseLocked(rec)
		rec.run.State = scenario.StateQueued
		c.requeue = append(c.requeue, rec.run.ID)
		c.Mu.Unlock()
		return nil, err
	}
	return a, nil
}

// nextEligibleLocked picks the next dispatchable run: failover
// re-queues (oldest first, gated by their backoff) before fresh
// admissions. Terminal entries — cancelled while queued, completed by
// a late report — are skipped and dropped.
func (c *Coordinator) nextEligibleLocked(now time.Time) *runRec {
	for i, id := range c.requeue {
		rec := c.Runs[id]
		if rec == nil || rec.run.State.Terminal() || rec.worker != "" {
			c.requeue = append(c.requeue[:i], c.requeue[i+1:]...)
			return c.nextEligibleLocked(now)
		}
		if now.Before(rec.notBefore) {
			continue
		}
		c.requeue = append(c.requeue[:i], c.requeue[i+1:]...)
		return rec
	}
	for {
		id, ok := c.queue.Pop()
		if !ok {
			return nil
		}
		rec := c.Runs[id]
		if rec == nil || rec.run.State.Terminal() || rec.worker != "" {
			continue
		}
		return rec
	}
}

// Heartbeat extends a live lease and tells the worker whether to keep
// going. Stale leases, terminal runs and unknown runs draw
// DirectiveAbort: the worker's work can no longer be accepted under
// that lease, so it should stop and discard.
func (c *Coordinator) Heartbeat(workerID, runID string, dispatch int) (Directive, error) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	rec := c.Runs[runID]
	if rec == nil {
		return DirectiveAbort, nil
	}
	if rec.run.State.Terminal() || rec.worker != workerID || rec.dispatch != dispatch {
		return DirectiveAbort, nil
	}
	if rec.cancelReq {
		return DirectiveAbort, nil
	}
	rec.leaseExpiry = time.Now().Add(c.cfg.LeaseDuration)
	return DirectiveContinue, nil
}

// Complete accepts a worker's terminal report. The first report for a
// run wins — later reports (a slow worker past its lease, a
// re-dispatched copy) are counted as duplicates and acknowledged
// without effect, which is what makes re-dispatch safe.
func (c *Coordinator) Complete(workerID, runID string, dispatch int, out Outcome) error {
	c.Mu.Lock()
	rec := c.Runs[runID]
	if rec == nil {
		c.Mu.Unlock()
		return ErrUnknownRun
	}
	if rec.run.State.Terminal() {
		c.stats.DuplicateCompletions++
		c.Mu.Unlock()
		return nil
	}
	switch out.State {
	case scenario.StatePassed, scenario.StateFailed, scenario.StateCancelled:
	default:
		c.Mu.Unlock()
		return fmt.Errorf("fleet: non-terminal outcome state %q for run %s", out.State, runID)
	}

	// A cancelled report from a stale lease is a worker obeying an
	// abort directive, not a verdict: a live re-dispatched copy (or a
	// future one) owns the run now. Ignore it unless the client really
	// asked for a cancel. Pass/fail reports stay welcome from stale
	// leases — determinism makes the result as good as the current
	// holder's.
	stale := rec.worker != workerID || rec.dispatch != dispatch
	if stale && out.State == scenario.StateCancelled && !rec.cancelReq {
		c.stats.DuplicateCompletions++
		c.Mu.Unlock()
		return nil
	}

	// A reported infra fault is the one failure the local runner
	// retries with a fresh derived seed; extend that rule fleet-wide
	// before finalizing.
	if out.State == scenario.StateFailed && out.Error != nil && out.Error.Kind == scenario.ErrInfra &&
		rec.seedAttempt < c.cfg.MaxAttempts && rec.dispatches < c.cfg.MaxDispatches && !rec.cancelReq {
		c.releaseLeaseLocked(rec)
		rec.seedAttempt++
		rec.run.State = scenario.StateQueued
		rec.notBefore = time.Now().Add(scenario.Backoff(c.cfg.BackoffBase, c.cfg.BackoffMax, rec.run.Spec.BaseSeed(), rec.seedAttempt))
		c.requeue = append(c.requeue, rec.run.ID)
		c.stats.InfraRetries++
		entry := scenario.Entry{
			Type: scenario.EntryRequeued, Time: time.Now(),
			Suite: rec.run.Suite, Run: rec.run.ID,
			Worker: workerID, Dispatch: dispatch, SeedAttempt: rec.seedAttempt,
			Reason: "infra-retry",
		}
		c.Mu.Unlock()
		return c.Journal.Record(entry)
	}

	entry := c.finalizeLocked(rec, out, workerID)
	c.Mu.Unlock()
	return c.Journal.Record(entry)
}

// finalizeLocked commits a terminal state and builds its journal
// entry. Caller holds the lock and must Record the returned entry
// after unlocking.
func (c *Coordinator) finalizeLocked(rec *runRec, out Outcome, workerID string) scenario.Entry {
	c.releaseLeaseLocked(rec)
	c.stats.Completed++
	e := c.FinishLocked(rec.run, scenario.EntryCompleted, out)
	e.Worker, e.Dispatch = workerID, rec.dispatch
	return e
}

// releaseLeaseLocked clears the current lease and returns the slot to
// its holder, exactly once per grant.
func (c *Coordinator) releaseLeaseLocked(rec *runRec) {
	if rec.worker == "" {
		return
	}
	if w := c.workers[rec.worker]; w != nil && w.inFlight > 0 {
		w.inFlight--
	}
	rec.worker = ""
}

// ExpireLeases reclaims every lease whose heartbeat stopped before
// now: cancelled runs finalize, exhausted budgets record a typed
// worker-lost failure, everything else re-queues under jittered
// exponential backoff. The sweeper calls it on a ticker; tests may
// call it directly.
func (c *Coordinator) ExpireLeases(now time.Time) {
	c.Mu.Lock()
	var entries []scenario.Entry
	for _, rec := range c.Runs {
		if rec.worker == "" || rec.run.State.Terminal() || now.Before(rec.leaseExpiry) {
			continue
		}
		c.stats.LeaseExpiries++
		switch {
		case rec.cancelReq:
			entries = append(entries, c.finalizeLocked(rec, Outcome{
				State: scenario.StateCancelled,
				Error: &scenario.RunError{
					Kind:    scenario.ErrCancelled,
					Message: "lease expired after cancel request",
					Attempt: rec.dispatches,
				},
			}, rec.worker))
		case rec.dispatches >= c.cfg.MaxDispatches:
			c.stats.WorkersLost++
			entries = append(entries, c.finalizeLocked(rec, Outcome{
				State: scenario.StateFailed,
				Error: &scenario.RunError{
					Kind: scenario.ErrWorkerLost,
					Message: fmt.Sprintf("dispatch budget exhausted: %d leases granted, every worker crashed, hung or partitioned away",
						rec.dispatches),
					Attempt: rec.dispatches,
				},
			}, rec.worker))
		default:
			worker := rec.worker
			c.releaseLeaseLocked(rec)
			rec.run.State = scenario.StateQueued
			rec.notBefore = now.Add(scenario.Backoff(c.cfg.BackoffBase, c.cfg.BackoffMax, rec.run.Spec.BaseSeed(), rec.dispatches))
			c.requeue = append(c.requeue, rec.run.ID)
			c.stats.Redispatches++
			entries = append(entries, scenario.Entry{
				Type: scenario.EntryRequeued, Time: now,
				Suite: rec.run.Suite, Run: rec.run.ID,
				Worker: worker, Dispatch: rec.dispatches, SeedAttempt: rec.seedAttempt,
				Reason: "lease-expired",
			})
		}
	}
	c.Mu.Unlock()
	for _, e := range entries {
		c.Journal.Record(e) //nolint:errcheck // in-memory state already moved on; the journal is best-effort here
	}
}

// Drain stops admissions and new leases, then waits for in-flight
// leases to report or expire. Queued and still-unreported runs stay in
// the journal as submitted-without-completion, so the next coordinator
// generation requeues them — drain returns unfinished work to the
// queue rather than losing or failing it.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.Mu.Lock()
	c.Draining = true
	c.Mu.Unlock()
	for {
		c.Mu.Lock()
		inFlight := 0
		for _, rec := range c.Runs {
			if rec.worker != "" && !rec.run.State.Terminal() {
				inFlight++
			}
		}
		c.Mu.Unlock()
		if inFlight == 0 {
			c.Stop()
			return nil
		}
		select {
		case <-ctx.Done():
			c.Stop()
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}
