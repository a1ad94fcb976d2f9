// Package fleet is the journalorder corpus: run-state transitions and
// cancel acknowledgements inside Coordinator and Registry methods, with
// and without a journal barrier on every path. The package path ends in "fleet" so
// journalServicePkg applies, and the stub type names (Coordinator,
// Journal, Entry, State) match the shapes the analyzer keys on.
package fleet

import "errors"

// State is a run's lifecycle state.
type State string

// Lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateCancelled State = "cancelled"
)

// Run is one tracked run.
type Run struct {
	ID    string
	State State
}

// Entry is one journal record.
type Entry struct {
	Run   string
	State State
}

// Journal is the append-only ledger stub.
type Journal struct{}

// Record appends one entry durably.
func (j *Journal) Record(e Entry) error { return nil }

type runRec struct {
	run       *Run
	cancelReq bool
}

// Coordinator owns dispatch state.
type Coordinator struct {
	journal *Journal
	runs    map[string]*runRec
}

func (c *Coordinator) GoodGrant(rec *runRec) error {
	rec.run.State = StateRunning // exempt: the Record below cuts every path
	return c.journal.Record(Entry{Run: rec.run.ID, State: StateRunning})
}

func (c *Coordinator) GoodGrantChecked(rec *runRec) error {
	rec.run.State = StateRunning // exempt: the if-init Record cuts every path
	if err := c.journal.Record(Entry{Run: rec.run.ID, State: StateRunning}); err != nil {
		return err
	}
	return nil
}

func (c *Coordinator) BadGrant(rec *runRec, lucky bool) error {
	rec.run.State = StateRunning // want `run state transition rec\.run\.State is not journaled on every path`
	if lucky {
		return c.journal.Record(Entry{Run: rec.run.ID, State: StateRunning})
	}
	return nil // this path forgot the append
}

// finalize mirrors finalizeLocked: the Entry return transfers the
// append obligation to the caller.
func (c *Coordinator) finalize(rec *runRec, to State) Entry {
	rec.run.State = to // exempt: returned Entry is the barrier
	return Entry{Run: rec.run.ID, State: to}
}

func (c *Coordinator) GoodRequeue(rec *runRec) {
	rec.run.State = StateQueued // exempt: replay reconstructs queued state anyway
}

func (c *Coordinator) BadCancel(rec *runRec) error {
	rec.cancelReq = true // want `acknowledged cancel request rec\.cancelReq is not journaled on every path`
	return nil
}

func (c *Coordinator) GoodCancel(rec *runRec) error {
	rec.cancelReq = true // exempt: journaled before the ack returns
	return c.journal.Record(Entry{Run: rec.run.ID, State: StateCancelled})
}

func (c *Coordinator) GoodPanicGuard(rec *runRec) error {
	rec.run.State = StateRunning // exempt: the non-panicking path records
	if rec.run.ID == "" {
		panic("run without an ID")
	}
	return c.journal.Record(Entry{Run: rec.run.ID, State: StateRunning})
}

func (c *Coordinator) GoodLoopRetry(rec *runRec) error {
	rec.run.State = StateRunning // exempt: the loop cannot exit before a Record succeeds
	for {
		if err := c.journal.Record(Entry{Run: rec.run.ID, State: StateRunning}); err == nil {
			return nil
		}
	}
}

func (c *Coordinator) SanctionedGrant(rec *runRec) error {
	//hbplint:ignore journalorder corpus fixture: pretend in-memory-only coordinator used by a dry-run mode
	rec.run.State = StateRunning
	return nil
}

// Registry is the run bookkeeping a Coordinator or Runner embeds; a
// generic receiver must not hide its methods from the check.
type Registry[R any] struct {
	journal *Journal
	runs    map[string]R
}

// FinishLocked mirrors the shared terminal commit: the Entry return
// hands the append to the caller.
func (g *Registry[R]) FinishLocked(run *Run, to State) Entry {
	run.State = to // exempt: returned Entry is the barrier
	return Entry{Run: run.ID, State: to}
}

func (g *Registry[R]) BadFinish(run *Run) {
	run.State = StateCancelled // want `run state transition run\.State is not journaled on every path`
}

func (g *Registry[R]) GoodFinish(run *Run) error {
	run.State = StateCancelled // exempt: journaled before returning
	return g.journal.Record(Entry{Run: run.ID, State: StateCancelled})
}

// recoverEntries is a free function: journal replay writes state INTO
// memory, the mirror image of the rule, so it stays out of scope.
func recoverEntries(entries []Entry, runs map[string]*runRec) {
	for _, e := range entries {
		if rec := runs[e.Run]; rec != nil {
			rec.run.State = e.State // exempt: not a Coordinator/Runner method
		}
	}
}

// Worker mutates only its local outcome copy; its methods are out of
// scope.
type Worker struct{ out Run }

func (w *Worker) Abort() error {
	w.out.State = StateCancelled // exempt: Worker methods hold no journal
	return errors.New("aborted")
}
