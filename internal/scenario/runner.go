package scenario

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/bounded"
)

// Config tunes the runner's supervision defaults; each case can
// tighten them per spec.
type Config struct {
	// Workers is the execution pool size (default 2).
	Workers int
	// QueueCap bounds the submission queue; a full queue rejects with
	// ErrQueueFull — backpressure, never unbounded growth (default
	// 64).
	QueueCap int
	// WallDeadline is the default per-attempt wall-clock deadline
	// (default 2 m).
	WallDeadline time.Duration
	// MaxEvents is the default simulated-event deadline; 0 means no
	// limit.
	MaxEvents uint64
	// MaxAttempts is the default attempt cap for retryable faults
	// (default 3).
	MaxAttempts int
	// BackoffBase and BackoffMax bound the jittered exponential
	// backoff between retry attempts (defaults 100 ms and 5 s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Journal, when non-nil, receives every lifecycle transition.
	Journal *Journal
}

func (c Config) withDefaults() Config {
	OrDefault(&c.Workers, 2)
	OrDefault(&c.WallDeadline, DefaultWallDeadline)
	AdmissionDefaults(&c.QueueCap, &c.MaxAttempts, &c.BackoffBase, &c.BackoffMax)
	return c
}

// Runner is the supervisor: a bounded submission queue feeding a fixed
// worker pool, each run executing under its own context with
// deadlines, panic isolation, bounded retry and journaled state
// transitions. Suites, run IDs and admission are the embedded
// Registry's; Mu guards the queue and cancel map too.
type Runner struct {
	*Registry[*Run, Run]
	cfg Config

	queue   *bounded.Queue[*Run]
	cancels map[string]context.CancelFunc

	wake    chan struct{}
	drainCh chan struct{}
	wg      sync.WaitGroup
}

// NewRunner builds a runner and recovers journaled history: runs the
// previous daemon process died holding come back as StateInterrupted,
// visible over the API and (optionally) resubmittable.
func NewRunner(cfg Config, recovered []Entry) *Runner {
	cfg = cfg.withDefaults()
	r := &Runner{
		cfg:     cfg,
		queue:   bounded.NewQueue[*Run](cfg.QueueCap),
		cancels: map[string]context.CancelFunc{},
		wake:    make(chan struct{}, 1),
		drainCh: make(chan struct{}),
	}
	r.Registry = NewRegistry(cfg.Journal, r.enqueueLocked, (*Run).Snapshot)
	r.Restore(recovered, func(rp *Replayed) *Run {
		if !rp.Run.State.Terminal() {
			rp.Run.State = StateInterrupted
		}
		return rp.Run
	})
	return r
}

// Start launches the worker pool.
func (r *Runner) Start() {
	for i := 0; i < r.cfg.Workers; i++ {
		r.wg.Add(1)
		go r.worker()
	}
}

// enqueueLocked queues an admitted run and wakes a worker for it.
func (r *Runner) enqueueLocked(run *Run) (*Run, bool) {
	if !r.queue.Push(run) {
		return nil, false
	}
	r.signal()
	return run, true
}

// signal wakes one idle worker; the wake channel holds one token, so
// a signal with a token already pending is dropped.
func (r *Runner) signal() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// Submit validates and enqueues one case under the suite. A full
// queue returns ErrQueueFull — the HTTP layer maps it to 503 +
// Retry-After.
func (r *Runner) Submit(suiteID string, spec CaseSpec) (*Run, error) {
	run, _, err := r.admit(suiteID, spec)
	if err != nil {
		return nil, err
	}
	return run, nil
}

// Resubmit re-queues a recovered interrupted run as a fresh run.
func (r *Runner) Resubmit(runID string) (*Run, error) {
	r.Mu.Lock()
	old := r.Runs[runID]
	if old == nil || old.State != StateInterrupted {
		r.Mu.Unlock()
		return nil, fmt.Errorf("scenario: run %q is not an interrupted run", runID)
	}
	suite, spec := old.Suite, old.Spec
	r.Mu.Unlock()
	return r.Submit(suite, spec)
}

// Cancel stops a run: queued runs terminate immediately, running runs
// get their context cancelled and finish as StateCancelled at the
// next checkpoint. Cancelling a terminal run is a no-op.
func (r *Runner) Cancel(runID string) error {
	r.Mu.Lock()
	run := r.Runs[runID]
	if run == nil {
		r.Mu.Unlock()
		return fmt.Errorf("scenario: no run %q", runID)
	}
	switch run.State {
	case StateQueued:
		e := r.FinishLocked(run, EntryFinished, Outcome{
			State: StateCancelled,
			Error: &RunError{Kind: ErrCancelled, Message: "cancelled while queued"},
		})
		r.Mu.Unlock()
		return r.Journal.Record(e)
	case StateRunning:
		cancel := r.cancels[runID]
		r.Mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	default:
		r.Mu.Unlock()
		return nil
	}
}

// Health returns the current schedulability snapshot.
func (r *Runner) Health() Health {
	r.Mu.Lock()
	defer r.Mu.Unlock()
	inFlight := 0
	for _, run := range r.Runs {
		if run.State == StateRunning {
			inFlight++
		}
	}
	return Health{
		QueueDepth: r.queue.Len(),
		QueueCap:   r.queue.Cap(),
		InFlight:   inFlight,
		Draining:   r.Draining,
	}
}

// Drain stops admissions, lets queued and running work finish, and
// returns when the pool is idle. If ctx expires first every live run
// is cancelled (finishing as StateCancelled) and Drain still waits for
// the workers to unwind before returning ctx's error — the pool never
// outlives the call.
func (r *Runner) Drain(ctx context.Context) error {
	r.Mu.Lock()
	if !r.Draining {
		r.Draining = true
		close(r.drainCh)
	}
	r.Mu.Unlock()

	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		r.cancelAll()
		<-done
		return ctx.Err()
	}
}

// cancelAll cancels every queued and running run.
func (r *Runner) cancelAll() {
	r.Mu.Lock()
	var ids []string
	for id, run := range r.Runs {
		if !run.State.Terminal() {
			ids = append(ids, id)
		}
	}
	r.Mu.Unlock()
	for _, id := range ids {
		r.Cancel(id) //nolint:errcheck // best effort during forced drain
	}
}

func (r *Runner) worker() {
	defer r.wg.Done()
	for {
		run := r.next()
		if run == nil {
			return
		}
		r.execute(run)
	}
}

// next blocks for work; nil means the runner is draining and the
// queue is empty.
func (r *Runner) next() *Run {
	for {
		r.Mu.Lock()
		if run, ok := r.queue.Pop(); ok {
			more := r.queue.Len() > 0
			r.Mu.Unlock()
			if more {
				// Cascade the wakeup: a dropped signal must not strand
				// queued work behind a single busy worker.
				r.signal()
			}
			return run
		}
		draining := r.Draining
		r.Mu.Unlock()
		if draining {
			return nil
		}
		select {
		case <-r.wake:
		case <-r.drainCh:
		}
	}
}

// execute supervises one run to a terminal state: RunAttempt per
// attempt, with jittered backoff before retrying an infra fault.
func (r *Runner) execute(run *Run) {
	r.Mu.Lock()
	if run.State != StateQueued { // cancelled while queued
		r.Mu.Unlock()
		return
	}
	run.State = StateRunning
	run.StartedAt = time.Now()
	spec := run.Spec
	baseCtx, cancel := context.WithCancel(context.Background())
	r.cancels[run.ID] = cancel
	r.Mu.Unlock()
	defer func() {
		cancel()
		r.Mu.Lock()
		delete(r.cancels, run.ID)
		r.Mu.Unlock()
	}()

	maxAttempts := spec.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = r.cfg.MaxAttempts
	}
	for attempt := 1; ; attempt++ {
		r.Mu.Lock()
		run.Attempts = attempt
		r.Mu.Unlock()
		r.Journal.Record(Entry{ //nolint:errcheck // lifecycle goes on if the disk is gone
			Type: EntryStarted, Time: time.Now(),
			Suite: run.Suite, Run: run.ID, Attempt: attempt,
		})
		out := RunAttempt(baseCtx, &spec, attempt, r.cfg.WallDeadline, r.cfg.MaxEvents)
		if out.Error != nil && out.Error.Kind == ErrInfra && attempt < maxAttempts {
			if r.backoff(baseCtx, spec.BaseSeed(), attempt) {
				continue
			}
			out = Outcome{State: StateCancelled,
				Error: &RunError{Kind: ErrCancelled, Message: "cancelled during retry backoff", Attempt: attempt}}
		}
		r.Mu.Lock()
		e := r.FinishLocked(run, EntryFinished, out)
		r.Mu.Unlock()
		r.Journal.Record(e) //nolint:errcheck // the in-memory state is already terminal
		return
	}
}

// backoff sleeps the jittered exponential delay before the next
// attempt; false means the run was cancelled while waiting.
func (r *Runner) backoff(ctx context.Context, baseSeed int64, attempt int) bool {
	d := Backoff(r.cfg.BackoffBase, r.cfg.BackoffMax, baseSeed, attempt)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
