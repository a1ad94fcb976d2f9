package scenario

import (
	"time"

	"repro/internal/jsonl"
)

// EntryType tags one journal record.
type EntryType string

const (
	// EntrySuite records a suite's creation.
	EntrySuite EntryType = "suite"
	// EntrySubmitted records a run's admission to the queue.
	EntrySubmitted EntryType = "submitted"
	// EntryStarted records a runner worker picking the run up (one per
	// attempt).
	EntryStarted EntryType = "started"
	// EntryFinished records the runner's terminal state.
	EntryFinished EntryType = "finished"
	// EntryDispatched records a fleet lease grant: which worker holds
	// which run at which dispatch and seed attempt.
	EntryDispatched EntryType = "dispatched"
	// EntryRequeued records a fleet run returning to the queue — lease
	// expiry or a reported infra fault — with the reason.
	EntryRequeued EntryType = "requeued"
	// EntryCancelRequested records a client cancel acknowledged for a
	// leased fleet run. The acknowledgement is a promise that the run
	// is stopping, so it must survive a coordinator crash: replay keeps
	// the request pending and the run finalizes as cancelled instead of
	// re-executing.
	EntryCancelRequested EntryType = "cancel-requested"
	// EntryCompleted records the fleet's first accepted terminal
	// report.
	EntryCompleted EntryType = "completed"
)

// Entry is one append-only journal record of either lifecycle. The
// journal is the crash ledger, not the result store: it carries enough
// to reconstruct every run's lifecycle position after a restart (a run
// with a started or dispatched entry but no terminal entry was lost
// mid-flight), plus the result fingerprint so recovered history stays
// comparable.
type Entry struct {
	Type  EntryType `json:"type"`
	Time  time.Time `json:"time"`
	Suite string    `json:"suite,omitempty"`
	// SuiteName is set on EntrySuite.
	SuiteName string `json:"suite_name,omitempty"`
	Run       string `json:"run,omitempty"`
	// Spec is set on EntrySubmitted so a recovered run can run again.
	Spec *CaseSpec `json:"spec,omitempty"`
	// Attempt is set on EntryStarted.
	Attempt int `json:"attempt,omitempty"`

	// Worker, Dispatch and SeedAttempt are set on EntryDispatched
	// (SeedAttempt also on EntryRequeued, and Worker/Dispatch on
	// EntryRequeued and EntryCompleted for attribution).
	Worker      string `json:"worker,omitempty"`
	Dispatch    int    `json:"dispatch,omitempty"`
	SeedAttempt int    `json:"seed_attempt,omitempty"`
	// Reason is set on EntryRequeued: "lease-expired" or
	// "infra-retry".
	Reason string `json:"reason,omitempty"`

	// State, Error and Fingerprint are set on the terminal entries,
	// EntryFinished and EntryCompleted.
	State       State     `json:"state,omitempty"`
	Error       *RunError `json:"error,omitempty"`
	Fingerprint string    `json:"fingerprint,omitempty"`
}

// Journal is the run lifecycle's append-only JSONL ledger, a typed
// face over internal/jsonl: every write is flushed and synced before
// Record returns, and after a crash the journal may miss at most the
// transition in flight, never hold a torn prefix of one.
type Journal struct {
	log *jsonl.Log[Entry]
}

// OpenJournal opens (creating if needed) the journal at path, first
// reading back every intact record for recovery. A damaged or torn
// tail — the write the previous process died inside — is dropped, not
// an error.
func OpenJournal(path string) (*Journal, []Entry, error) {
	log, entries, err := jsonl.Open[Entry](path)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{log: log}, entries, nil
}

// Record appends one entry durably.
func (j *Journal) Record(e Entry) error {
	if j == nil {
		return nil
	}
	return j.log.Record(e)
}

// Close flushes and closes the underlying file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	return j.log.Close()
}

// Replayed is one run rebuilt from the journal, with the fleet
// position it had reached so a restart cannot reset its budget.
type Replayed struct {
	// Run is terminal as journaled, or StateQueued if it never
	// finished; what an unfinished run becomes is the lifecycle's
	// orphan policy.
	Run *Run
	// Dispatches counts the leases granted, SeedAttempt is the seed
	// attempt the next dispatch runs at, and CancelReq reports an
	// acknowledged cancel still pending.
	Dispatches  int
	SeedAttempt int
	CancelReq   bool
}

// Replay rebuilds suites and runs from journal entries. Submit
// journals a run's submitted record after releasing the lifecycle lock,
// so a worker's started, dispatched or terminal record for the same run
// can land ahead of it: Replay therefore indexes every suite and
// submitted record first and applies the rest in journal order
// afterwards. The first terminal record wins — a duplicate, which a
// crash between journaling and acknowledging can replay, never rewrites
// a terminal run.
func Replay(entries []Entry) (suites map[string]string, runs []*Replayed) {
	suites = map[string]string{}
	byID := map[string]*Replayed{}
	for _, e := range entries {
		switch e.Type {
		case EntrySuite:
			suites[e.Suite] = e.SuiteName
		case EntrySubmitted:
			rp := &Replayed{Run: &Run{ID: e.Run, Suite: e.Suite, State: StateQueued, SubmittedAt: e.Time}, SeedAttempt: 1}
			if e.Spec != nil {
				rp.Run.Spec = *e.Spec
			}
			byID[e.Run] = rp
			runs = append(runs, rp)
		}
	}
	for _, e := range entries {
		rp := byID[e.Run]
		if rp == nil || rp.Run.State.Terminal() {
			continue
		}
		switch e.Type {
		case EntryStarted:
			rp.Run.Attempts = e.Attempt
			rp.Run.StartedAt = e.Time
		case EntryDispatched:
			rp.Dispatches = e.Dispatch
			rp.Run.Attempts = e.Dispatch
			rp.Run.StartedAt = e.Time
			if e.SeedAttempt > 0 {
				rp.SeedAttempt = e.SeedAttempt
			}
		case EntryRequeued:
			if e.SeedAttempt > 0 {
				rp.SeedAttempt = e.SeedAttempt
			}
		case EntryCancelRequested:
			rp.CancelReq = true
		case EntryFinished, EntryCompleted:
			rp.Run.State = e.State
			rp.Run.Error = e.Error
			rp.Run.FinishedAt = e.Time
			if e.Fingerprint != "" {
				rp.Run.Result = &CaseResult{Kind: rp.Run.Spec.EffectiveKind(), Fingerprint: e.Fingerprint}
			}
		}
	}
	return suites, runs
}
