package scenario

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestJournalRoundTrip: a daemon generation writes its lifecycle, and
// the next generation recovers terminal runs verbatim.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("fresh journal has %d entries", len(entries))
	}
	r := NewRunner(Config{Workers: 1, Journal: j}, nil)
	r.Start()
	s, err := r.CreateSuite("persisted")
	if err != nil {
		t.Fatalf("CreateSuite: %v", err)
	}
	run, err := r.Submit(s.ID, CaseSpec{Name: "keep", Tree: quickTree(3)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got := waitTerminal(t, r, run.ID, 60*time.Second)
	if got.State != StatePassed {
		t.Fatalf("state = %s (err %+v)", got.State, got.Error)
	}
	if err := r.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Second generation.
	j2, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	r2 := NewRunner(Config{Workers: 1, Journal: j2}, entries)
	rec, ok := r2.GetRun(run.ID)
	if !ok {
		t.Fatalf("run %s not recovered", run.ID)
	}
	if rec.State != StatePassed {
		t.Fatalf("recovered state = %s, want passed", rec.State)
	}
	if rec.Result == nil || rec.Result.Fingerprint != got.Result.Fingerprint {
		t.Fatalf("recovered fingerprint %+v != original %s", rec.Result, got.Result.Fingerprint)
	}
	// New IDs must not collide with recovered ones.
	r2.Start()
	defer r2.Drain(context.Background()) //nolint:errcheck
	s2, err := r2.CreateSuite("second")
	if err != nil {
		t.Fatalf("CreateSuite gen2: %v", err)
	}
	if s2.ID == s.ID {
		t.Fatalf("suite ID %s reused after recovery", s2.ID)
	}
	run2, err := r2.Submit(s2.ID, CaseSpec{Name: "fresh", Tree: quickTree(4)})
	if err != nil {
		t.Fatalf("Submit gen2: %v", err)
	}
	if run2.ID == run.ID {
		t.Fatalf("run ID %s reused after recovery", run2.ID)
	}
}

// TestJournalMarksInterrupted: a run journaled as started but never
// finished — the daemon died holding it — recovers as interrupted and
// can be resubmitted.
func TestJournalMarksInterrupted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	now := time.Now()
	spec := CaseSpec{Name: "orphan", Tree: quickTree(5)}
	for _, e := range []Entry{
		{Type: EntrySuite, Time: now, Suite: "s-1", SuiteName: "crashed"},
		{Type: EntrySubmitted, Time: now, Suite: "s-1", Run: "r-1", Spec: &spec},
		{Type: EntryStarted, Time: now, Suite: "s-1", Run: "r-1", Attempt: 1},
	} {
		if err := j.Record(e); err != nil {
			t.Fatalf("Record: %v", err)
		}
	}
	j.Close()

	j2, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	r := NewRunner(Config{Workers: 1, Journal: j2}, entries)
	r.Start()
	defer r.Drain(context.Background()) //nolint:errcheck
	rec, ok := r.GetRun("r-1")
	if !ok || rec.State != StateInterrupted {
		t.Fatalf("recovered run = %+v, want interrupted", rec)
	}
	if rec.Attempts != 1 {
		t.Fatalf("recovered attempts = %d, want 1", rec.Attempts)
	}
	// The interrupted run resumes as a fresh supervised run.
	run, err := r.Resubmit("r-1")
	if err != nil {
		t.Fatalf("Resubmit: %v", err)
	}
	if got := waitTerminal(t, r, run.ID, 60*time.Second); got.State != StatePassed {
		t.Fatalf("resubmitted run state = %s (err %+v)", got.State, got.Error)
	}
}

// TestJournalMultiRecordTornTail: damage spanning several trailing
// lines — a damaged record followed by an intact-looking one and a
// torn one — recovers only the records before the first damaged line;
// nothing after a hole is resurrected.
func TestJournalMultiRecordTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	body := `{"type":"suite","suite":"s-1","suite_name":"ok"}` + "\n" +
		`{"type":"submitted","suite":"s-1","run":"r-1","spec":{"name":"a"}}` + "\n" +
		`{"type":"started","suite":"s-1","run":` + "\n" + // damaged
		`{"type":"finished","suite":"s-1","run":"r-1","state":"passed"}` + "\n" + // after the hole
		`{"type":"fin` // torn
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	j, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("open multi-torn journal: %v", err)
	}
	defer j.Close()
	if len(entries) != 2 || entries[1].Type != EntrySubmitted {
		t.Fatalf("recovered %+v, want the 2-record pre-damage prefix", entries)
	}
	// The finished record after the hole was dropped, so the run
	// recovers as interrupted, not passed.
	_, runs, _ := NewRunner(Config{}, entries).GetSuite("s-1")
	if len(runs) != 1 || runs[0].State != StateInterrupted {
		t.Fatalf("recovered runs = %+v, want one interrupted run", runs)
	}
}

// TestJournalDuplicateCompletion: a crash between journaling a finished
// record and acknowledging it can replay the record on the next
// generation. Recovery must keep the first terminal state and ignore
// the duplicate — a run is never double-counted or rewritten.
func TestJournalDuplicateCompletion(t *testing.T) {
	spec := CaseSpec{Name: "dup", Tree: quickTree(5)}
	entries := []Entry{
		{Type: EntrySuite, Suite: "s-1", SuiteName: "dup-suite"},
		{Type: EntrySubmitted, Suite: "s-1", Run: "r-1", Spec: &spec},
		{Type: EntryStarted, Suite: "s-1", Run: "r-1", Attempt: 1},
		{Type: EntryFinished, Suite: "s-1", Run: "r-1", State: StatePassed, Fingerprint: "aaaa"},
		{Type: EntryFinished, Suite: "s-1", Run: "r-1", State: StateFailed,
			Error: &RunError{Kind: ErrRun, Message: "replayed stale record"}},
	}
	_, runs := Replay(entries)
	if len(runs) != 1 {
		t.Fatalf("recovered %d runs, want 1", len(runs))
	}
	r := runs[0].Run
	if r.State != StatePassed || r.Error != nil {
		t.Fatalf("duplicate completion rewrote the run: state %s err %+v, want passed/nil", r.State, r.Error)
	}
	if r.Result == nil || r.Result.Fingerprint != "aaaa" {
		t.Fatalf("first completion's fingerprint lost: %+v", r.Result)
	}
}

// TestJournalTornTail: a crash mid-write leaves a torn last line; the
// reopen drops it and appends cleanly after the intact prefix.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if err := j.Record(Entry{Type: EntrySuite, Time: time.Now(), Suite: "s-1", SuiteName: "ok"}); err != nil {
		t.Fatalf("Record: %v", err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open for tearing: %v", err)
	}
	f.WriteString(`{"type":"submitted","suite":"s-1","ru`) //nolint:errcheck
	f.Close()

	j2, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen torn journal: %v", err)
	}
	if len(entries) != 1 || entries[0].SuiteName != "ok" {
		t.Fatalf("recovered entries = %+v, want the one intact record", entries)
	}
	// The journal must be appendable after truncating the torn tail.
	if err := j2.Record(Entry{Type: EntrySuite, Time: time.Now(), Suite: "s-2", SuiteName: "after"}); err != nil {
		t.Fatalf("Record after tear: %v", err)
	}
	j2.Close()
	_, entries, err = OpenJournal(path)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("after repair got %d entries, want 2", len(entries))
	}
}

// writeJournal writes raw JSONL lines as a journal file and opens it,
// returning the replayable entries.
func writeJournal(t *testing.T, lines ...string) []Entry {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	j.Close()
	if len(entries) != len(lines) {
		t.Fatalf("read %d of %d journal lines", len(entries), len(lines))
	}
	return entries
}

// TestJournalReplayOrder: Submit journals a run's submitted record
// after releasing the runner lock, so a fast worker's started and
// finished records can land first. A run journaled in that order
// passed: it must replay as passed with its fingerprint, not as an
// interrupted run with its history dropped. The fixture is written
// byte for byte in the journal format hbpsimd has always written.
func TestJournalReplayOrder(t *testing.T) {
	entries := writeJournal(t,
		`{"type":"suite","time":"2026-01-02T03:04:05Z","suite":"s-1","suite_name":"fast"}`,
		`{"type":"started","time":"2026-01-02T03:04:06Z","suite":"s-1","run":"r-1","attempt":1}`,
		`{"type":"finished","time":"2026-01-02T03:04:07Z","suite":"s-1","run":"r-1","state":"passed","fingerprint":"beef"}`,
		`{"type":"submitted","time":"2026-01-02T03:04:05Z","suite":"s-1","run":"r-1","spec":{"name":"quick","tree":{"leaves":40,"duration":20,"seed":1}}}`,
		`{"type":"submitted","time":"2026-01-02T03:04:08Z","suite":"s-1","run":"r-2","spec":{"name":"orphan","tree":{"leaves":40,"duration":20,"seed":2}}}`,
		`{"type":"started","time":"2026-01-02T03:04:09Z","suite":"s-1","run":"r-2","attempt":1}`,
	)
	r := NewRunner(Config{}, entries)
	got, ok := r.GetRun("r-1")
	if !ok || got.State != StatePassed || got.Attempts != 1 {
		t.Fatalf("finished-before-submitted run = %+v (ok=%v), want passed after 1 attempt", got, ok)
	}
	if got.Result == nil || got.Result.Fingerprint != "beef" || got.Result.Kind != "tree" {
		t.Fatalf("finished-before-submitted run lost its result: %+v", got.Result)
	}
	if got.Spec.Name != "quick" || got.Suite != "s-1" {
		t.Fatalf("replayed run lost its spec: %+v", got)
	}
	if got, _ := r.GetRun("r-2"); got.State != StateInterrupted || got.Attempts != 1 {
		t.Fatalf("orphan = %+v, want interrupted after 1 attempt", got)
	}
	_, runs, _ := r.GetSuite("s-1")
	if len(runs) != 2 || runs[0].ID != "r-1" || runs[1].ID != "r-2" {
		t.Fatalf("suite runs = %+v, want r-1 then r-2", runs)
	}
}
