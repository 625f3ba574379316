package jobs

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"positlab/internal/faultfs"
)

func mustOpen(t *testing.T, dir string, cfg Config) *Store {
	t.Helper()
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

func mustSubmit(t *testing.T, s *Store, kind string, opt SubmitOptions) Job {
	t.Helper()
	j, err := s.Submit(kind, []byte(`{"w":1}`), opt)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return j
}

func TestStoreSubmitGetList(t *testing.T) {
	s := mustOpen(t, "", Config{})
	a := mustSubmit(t, s, "solve", SubmitOptions{Priority: PriorityInteractive})
	b := mustSubmit(t, s, "experiment", SubmitOptions{})

	if a.ID == b.ID {
		t.Fatalf("duplicate IDs: %s", a.ID)
	}
	if a.State != StateQueued || b.Priority != PriorityBulk {
		t.Fatalf("defaults wrong: %+v %+v", a, b)
	}
	got, ok := s.Get(a.ID)
	if !ok || got.Kind != "solve" {
		t.Fatalf("Get(%s) = %+v, %v", a.ID, got, ok)
	}
	if _, ok := s.Get("nope"); ok {
		t.Fatal("Get of unknown id succeeded")
	}

	all := s.List(Filter{})
	if len(all) != 2 || all[0].ID != b.ID {
		t.Fatalf("List = %+v, want newest first", all)
	}
	if l := s.List(Filter{Kind: "solve"}); len(l) != 1 || l[0].ID != a.ID {
		t.Fatalf("kind filter = %+v", l)
	}
	if l := s.List(Filter{Limit: 1}); len(l) != 1 {
		t.Fatalf("limit ignored: %+v", l)
	}
	qi, qb := s.QueueDepths()
	if qi != 1 || qb != 1 {
		t.Fatalf("queue depths = %d, %d", qi, qb)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := mustSubmit(t, s1, "solve", SubmitOptions{Priority: PriorityInteractive, MaxRetries: 3})
	b := mustSubmit(t, s1, "experiment", SubmitOptions{})
	c := mustSubmit(t, s1, "solve", SubmitOptions{})

	if err := s1.markStart(a.ID, 1); err != nil {
		t.Fatal(err)
	}
	if err := s1.saveCheckpoint(a.ID, 10, []byte(`{"iter":10}`)); err != nil {
		t.Fatal(err)
	}
	if err := s1.finish(a.ID, []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := s1.markStart(b.ID, 1); err != nil {
		t.Fatal(err)
	}
	if err := s1.fail(b.ID, "flaky", false); err != nil {
		t.Fatal(err)
	}
	if err := s1.markCanceled(c.ID); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Config{})
	ga, _ := s2.Get(a.ID)
	if ga.State != StateSucceeded || string(ga.Result) != `{"ok":true}` || ga.CheckpointIter != 10 {
		t.Fatalf("replayed a = %+v", ga)
	}
	if ga.MaxRetries != 3 || ga.Priority != PriorityInteractive {
		t.Fatalf("submit envelope lost: %+v", ga)
	}
	gb, _ := s2.Get(b.ID)
	if gb.State != StateQueued || gb.Retries != 1 || gb.Error != "flaky" {
		t.Fatalf("replayed b = %+v", gb)
	}
	gc, _ := s2.Get(c.ID)
	if gc.State != StateCanceled {
		t.Fatalf("replayed c = %+v", gc)
	}
	// Sequence numbers continue, no ID reuse.
	d := mustSubmit(t, s2, "solve", SubmitOptions{})
	if d.Seq <= c.Seq {
		t.Fatalf("seq went backwards: %d after %d", d.Seq, c.Seq)
	}
}

func TestCrashRecoveryRequeuesRunning(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	run := mustSubmit(t, s1, "solve", SubmitOptions{})
	fresh := mustSubmit(t, s1, "solve", SubmitOptions{})
	if err := s1.markStart(run.ID, 1); err != nil {
		t.Fatal(err)
	}
	if err := s1.saveCheckpoint(run.ID, 25, []byte(`{"x":"state"}`)); err != nil {
		t.Fatal(err)
	}
	if err := s1.markStart(fresh.ID, 1); err != nil {
		t.Fatal(err)
	}
	// Close only releases the file handle; it journals no transitions,
	// so the on-disk state is exactly what a SIGKILL would leave.
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Config{})
	st := s2.ReplayStats()
	if st.Resumed != 1 || st.Restarted != 1 {
		t.Fatalf("replay stats = %+v, want 1 resumed + 1 restarted", st)
	}
	g, _ := s2.Get(run.ID)
	if g.State != StateQueued || g.Recoveries != 1 {
		t.Fatalf("interrupted job = %+v, want queued with 1 recovery", g)
	}
	if string(g.Checkpoint) != `{"x":"state"}` || g.CheckpointIter != 25 {
		t.Fatalf("checkpoint lost: %+v", g)
	}
	if ids := s2.queuedIDs(); len(ids) != 2 || ids[0] != run.ID {
		t.Fatalf("queued order = %v", ids)
	}
}

func TestTornJournalTailDropped(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := mustSubmit(t, s1, "solve", SubmitOptions{})
	if err := s1.finish(a.ID, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a partial record at the tail.
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"fail","id":"` + a.ID + `","fin`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Config{})
	if !s2.ReplayStats().Truncated {
		t.Fatal("torn tail not reported")
	}
	if g, _ := s2.Get(a.ID); g.State != StateSucceeded {
		t.Fatalf("job state corrupted by torn tail: %+v", g)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Config{CompactEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	var last Job
	for i := 0; i < 10; i++ {
		j := mustSubmit(t, s1, "solve", SubmitOptions{})
		if err := s1.markStart(j.ID, 1); err != nil {
			t.Fatal(err)
		}
		if err := s1.finish(j.ID, []byte(`{"i":"`+j.ID+`"}`)); err != nil {
			t.Fatal(err)
		}
		last = j
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("no snapshot after 30 records with CompactEvery=8: %v", err)
	}
	info, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	// The journal was truncated at least once; 30 records would be far
	// larger than the post-compaction residue.
	if info.Size() > 4096 {
		t.Fatalf("journal size %d, want truncated by compaction", info.Size())
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Config{})
	if s2.Len() != 10 {
		t.Fatalf("reopened store has %d jobs, want 10", s2.Len())
	}
	if g, _ := s2.Get(last.ID); g.State != StateSucceeded {
		t.Fatalf("last job = %+v", g)
	}
}

// TestSnapshotBytesMatchMarshal pins the streamed snapshot to the
// bytes of json.Marshal(snapshot) plus a newline — nil, empty and
// populated tables, payloads with characters the encoder escapes.
func TestSnapshotBytesMatchMarshal(t *testing.T) {
	jobs := []*Job{
		{ID: "j000001", Seq: 1, Kind: "solve", State: StateSucceeded, Spec: json.RawMessage(`{"a": [1, 2]}`), Result: json.RawMessage(`{"x":"<&>"}`)},
		{ID: "j000002", Seq: 2, Kind: "experiment", State: StateFailed, Error: "bad <input> & \u2028"},
		{ID: "j000003", Seq: 3, Kind: "solve", State: StateQueued, Checkpoint: json.RawMessage(`{"iter":4}`), CheckpointIter: 4},
	}
	for _, snap := range []*snapshot{
		{Seq: 0},
		{Seq: 5, Jobs: []*Job{}},
		{Seq: 9, Jobs: []*Job{jobs[2], jobs[0], jobs[1]}},
	} {
		dir := t.TempDir()
		if err := writeSnapshot(faultfs.OS, dir, snap); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, snapshotName))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(snap) // writeSnapshot sorted snap.Jobs
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want)+"\n" {
			t.Fatalf("snapshot bytes:\n%s\nwant:\n%s", got, want)
		}
	}
}

func TestWaitLongPoll(t *testing.T) {
	s := mustOpen(t, "", Config{})
	j := mustSubmit(t, s, "solve", SubmitOptions{})

	// Expires while still queued: returns the live view with ctx error.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	got, err := s.Wait(ctx, j.ID)
	if err == nil || got.State != StateQueued {
		t.Fatalf("Wait on live job = %+v, %v", got, err)
	}

	done := make(chan Job, 1)
	go func() {
		g, _ := s.Wait(context.Background(), j.ID)
		done <- g
	}()
	time.Sleep(10 * time.Millisecond)
	if err := s.finish(j.ID, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-done:
		if g.State != StateSucceeded {
			t.Fatalf("Wait returned %+v", g)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait never woke")
	}

	if _, err := s.Wait(context.Background(), "nope"); err != ErrUnknownJob {
		t.Fatalf("Wait unknown = %v", err)
	}
}

func TestProgressScrubbed(t *testing.T) {
	s := mustOpen(t, "", Config{})
	j := mustSubmit(t, s, "solve", SubmitOptions{})
	nan := math.NaN()
	s.setProgress(j.ID, Progress{Iterations: 3, Residual: nan, Tail: []float64{1, nan, 2}})
	g, _ := s.Get(j.ID)
	if g.Progress.Residual != 0 || len(g.Progress.Tail) != 2 {
		t.Fatalf("progress not scrubbed: %+v", g.Progress)
	}
	if _, err := json.Marshal(g); err != nil {
		t.Fatalf("job with scrubbed progress fails to marshal: %v", err)
	}
}
