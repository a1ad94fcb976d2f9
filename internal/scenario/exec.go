package scenario

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/faults"
)

// Outcome is one attempt's terminal report: the runner finishes a run
// with it, a fleet worker sends it to the coordinator.
type Outcome struct {
	// State is passed, failed or cancelled.
	State State `json:"state"`
	// Error is set for failed/cancelled outcomes.
	Error *RunError `json:"error,omitempty"`
	// Result is set for passed outcomes.
	Result *CaseResult `json:"result,omitempty"`
}

// RunAttempt is the attempt envelope both lifecycles run a case under,
// the runner in its worker pool and a fleet worker on its lease: seed
// attempt n of the spec's base seed (AttemptSeed), the per-seed
// injected infrastructure-crash roll, a per-attempt wall deadline,
// panic-isolated execution, and ClassifyError. wall and maxEvents are
// the caller's defaults for a spec that sets neither. ctx is the run's
// own context: an error after it was cancelled is a cancellation,
// while an attempt that only overran its deadline is ErrWallDeadline.
func RunAttempt(ctx context.Context, spec *CaseSpec, attempt int, wall time.Duration, maxEvents uint64) Outcome {
	seed := AttemptSeed(spec.BaseSeed(), attempt)
	if spec.MaxEvents != 0 {
		maxEvents = spec.MaxEvents
	}
	var res *CaseResult
	var err error
	if (faults.InfraCrash{Prob: spec.InfraCrashProb}).Roll(seed) {
		err = faults.ErrInfraCrash
	} else {
		attemptCtx, cancel := context.WithTimeout(ctx, spec.WallDeadline(wall))
		res, err = ExecuteAttempt(attemptCtx, spec, seed, maxEvents)
		cancel()
	}
	if err == nil {
		return Outcome{State: StatePassed, Result: res}
	}
	re := ClassifyError(err, attempt, ctx.Err() != nil)
	if re.Kind == ErrCancelled {
		return Outcome{State: StateCancelled, Error: re}
	}
	return Outcome{State: StateFailed, Error: re}
}

// panicError carries a recovered executor panic to the supervisor.
type panicError struct {
	value string
	stack string
}

func (e *panicError) Error() string { return "panic: " + e.value }

// ExecuteAttempt runs one panic-isolated attempt of a case at the given
// seed: a panicking executor comes back as a typed error (with the
// goroutine stack) instead of taking the worker — and the daemon —
// down with it. The rest of the supervision envelope is RunAttempt's.
func ExecuteAttempt(ctx context.Context, spec *CaseSpec, seed int64, maxEvents uint64) (res *CaseResult, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res = nil
			err = &panicError{value: fmt.Sprint(rec), stack: string(debug.Stack())}
		}
	}()
	return executeCase(ctx, spec, seed, maxEvents)
}

// ClassifyError maps an executor error to its typed RunError.
// cancelled reports whether the run's own (not per-attempt) context
// was cancelled, which distinguishes a client/drain cancel from an
// attempt wall deadline.
func ClassifyError(err error, attempt int, cancelled bool) *RunError {
	var pe *panicError
	var le *leakError
	switch {
	case errors.As(err, &pe):
		return &RunError{Kind: ErrPanic, Message: pe.value, Stack: pe.stack, Attempt: attempt}
	case errors.As(err, &le):
		return &RunError{Kind: ErrLeak, Message: le.Error(), Attempt: attempt}
	case errors.Is(err, faults.ErrInfraCrash):
		return &RunError{Kind: ErrInfra, Message: err.Error(), Attempt: attempt}
	case errors.Is(err, des.ErrEventLimit):
		return &RunError{Kind: ErrEventLimit, Message: err.Error(), Attempt: attempt}
	case errors.Is(err, context.Canceled) && cancelled:
		return &RunError{Kind: ErrCancelled, Message: err.Error(), Attempt: attempt}
	case errors.Is(err, context.DeadlineExceeded):
		return &RunError{Kind: ErrWallDeadline, Message: err.Error(), Attempt: attempt}
	default:
		return &RunError{Kind: ErrRun, Message: err.Error(), Attempt: attempt}
	}
}

// AttemptSeed derives the scenario seed for a retry attempt. Attempt 1
// runs the base seed unchanged — a supervised first attempt is
// bit-identical to a solo run — and later attempts mix the attempt
// number in (des.DeriveSeed, the same splitmix derivation the sharded
// engine uses for per-shard RNG streams) so a retried run explores
// fresh randomness rather than deterministically re-hitting a
// seed-dependent failure.
func AttemptSeed(base int64, attempt int) int64 {
	if attempt <= 1 {
		return base
	}
	return des.DeriveSeed(base, int64(attempt))
}

// Backoff computes the deterministic jittered exponential delay before
// the given attempt's retry: base·2^(attempt-1), capped at max, scaled
// by a jitter in [0.5, 1.5) drawn from (seed, attempt). Determinism
// makes retry schedules replayable in tests; jitter keeps a burst of
// simultaneous failures from retrying in lockstep.
func Backoff(base, max time.Duration, seed int64, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	rng := des.NewRNG(AttemptSeed(seed, attempt+1) ^ 0x5bf03635)
	jitter := 0.5 + rng.Float64()
	j := time.Duration(float64(d) * jitter)
	if j > max {
		j = max
	}
	return j
}

// RunCaseSolo executes one case outside any supervision — no retries,
// deadlines, chaos or panic isolation. It is the isolation baseline:
// a healthy supervised first attempt must produce a result fingerprint
// bit-identical to RunCaseSolo with the same spec and seed.
func RunCaseSolo(spec *CaseSpec, seed int64) (*CaseResult, error) {
	return executeCase(context.Background(), spec, seed, 0)
}

// executeCase dispatches to the kind's executor.
func executeCase(ctx context.Context, spec *CaseSpec, seed int64, maxEvents uint64) (*CaseResult, error) {
	if spec.PanicForTest {
		panic("scenario: case requested a test panic")
	}
	switch spec.EffectiveKind() {
	case "tree":
		return executeTree(ctx, spec, seed, maxEvents)
	case "figure":
		return executeFigure(ctx, spec)
	default:
		return nil, fmt.Errorf("scenario: unknown case kind %q", spec.Kind)
	}
}

func executeTree(ctx context.Context, spec *CaseSpec, seed int64, maxEvents uint64) (*CaseResult, error) {
	ts := TreeSpec{}
	if spec.Tree != nil {
		ts = *spec.Tree
	}
	cfg, err := ts.Config()
	if err != nil {
		return nil, err
	}
	cfg.Seed = seed
	cfg.Context = ctx
	cfg.EventLimit = maxEvents
	res, err := experiments.RunTree(cfg)
	if err != nil {
		return nil, err
	}
	if !res.Leak.Clean() {
		return nil, &leakError{res.Leak}
	}
	tcr := &TreeCaseResult{
		MeanBefore:        res.MeanBefore,
		MeanDuringAttack:  res.MeanDuringAttack,
		AttackersCaptured: res.AttackersCaptured,
		CollateralBlocks:  res.CollateralBlocks,
		CaptureTimes:      res.CaptureTimes,
		CtrlMessages:      res.CtrlMessages,
		Ctrl:              res.Ctrl,
		Sec:               res.Sec,
		OpenSessionsAtEnd: res.OpenSessionsAtEnd,
		QueueDrops:        res.QueueDrops,
		EventsFired:       res.EventsFired,
		Leak:              res.Leak,
		Throughput:        res.Throughput,
	}
	return &CaseResult{Kind: "tree", Tree: tcr, Fingerprint: fingerprint(tcr)}, nil
}

func executeFigure(ctx context.Context, spec *CaseSpec) (*CaseResult, error) {
	gen, ok := experiments.Figures()[spec.Figure.Fig]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown figure %q", spec.Figure.Fig)
	}
	scale, err := figureScale(spec.Figure.Scale)
	if err != nil {
		return nil, err
	}
	scale.Ctx = ctx
	tab, err := gen(scale)
	if err != nil {
		return nil, err
	}
	fcr := &FigureCaseResult{Fig: spec.Figure.Fig, Title: tab.Title, Rendered: tab.Render()}
	return &CaseResult{Kind: "figure", Figure: fcr, Fingerprint: fingerprint(fcr)}, nil
}

// leakError reports a dirty teardown audit; the supervisor maps it to
// ErrLeak and refuses to count the run as passed.
type leakError struct {
	leak experiments.LeakReport
}

func (e *leakError) Error() string {
	return fmt.Sprintf("teardown leaked %d packets and %d defense state entries",
		e.leak.PacketsOutstanding, e.leak.DefenseState)
}
