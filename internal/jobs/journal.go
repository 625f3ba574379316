package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"positlab/internal/faultfs"
)

// The on-disk layout of a job directory:
//
//	journal.jsonl   append-only record stream, fsynced per record
//	snapshot.json   full job table at the last compaction
//
// Record types (rec.T):
//
//	submit   full Job envelope at submission
//	start    job began an attempt (id, attempt, ts)
//	ckpt     runner checkpoint (id, iter, opaque data)
//	done     job succeeded (id, result, ts)
//	fail     attempt failed (id, error, final; non-final means the job
//	         went back to queued with one retry consumed)
//	cancel   job canceled (id, ts)
//	requeue  running job returned to the queue with its work kept
//	         (graceful drain)
//
// Replay applies records in order on top of the snapshot. A torn final
// line — the signature of a crash mid-append — is dropped; everything
// before it is intact because records are written with a single
// buffered write followed by fsync.
type rec struct {
	T       string          `json:"t"`
	TS      int64           `json:"ts,omitempty"`
	Job     *Job            `json:"job,omitempty"`
	ID      string          `json:"id,omitempty"`
	Attempt int             `json:"attempt,omitempty"`
	Iter    int             `json:"iter,omitempty"`
	Data    json.RawMessage `json:"data,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   string          `json:"error,omitempty"`
	Final   bool            `json:"final,omitempty"`
}

const (
	journalName  = "journal.jsonl"
	snapshotName = "snapshot.json"
)

// journal is the append side of the record stream. All I/O goes
// through the faultfs seam so the chaos suite can tear, fail, and
// crash individual appends.
type journal struct {
	f      faultfs.File
	noSync bool
	// broken is set when a failed append could not be repaired: the
	// file may end in a partial line that a later append would fuse
	// with, making replay stop there and drop every record after it.
	// A broken journal refuses all further appends — degraded
	// durability must never silently corrupt acknowledged history.
	broken bool
}

// errJournalBroken marks a journal wedged by an unrepairable partial
// append.
var errJournalBroken = errors.New("jobs: journal broken by unrepaired partial append")

func openJournal(fsys faultfs.FS, dir string, noSync bool) (*journal, error) {
	f, err := fsys.OpenFile(filepath.Join(dir, journalName), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: open journal: %w", err)
	}
	return &journal{f: f, noSync: noSync}, nil
}

// append writes one record as a single line and syncs it to disk, so
// an acknowledged transition survives a crash immediately after.
//
// A failed write may have applied a prefix of the line (short write,
// ENOSPC). Left in place, that prefix would fuse with the next
// appended record into one unparsable line — and replay, which stops
// at the first garbled line, would drop every acknowledged record
// after it. So a failed append repairs itself by truncating the file
// back to its pre-append length; if the repair fails too, the journal
// wedges (broken) rather than risk corrupting history.
func (j *journal) append(r rec) error {
	if j.broken {
		return errJournalBroken
	}
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("jobs: marshal journal record: %w", err)
	}
	info, err := j.f.Stat()
	if err != nil {
		j.broken = true
		return fmt.Errorf("jobs: stat journal before append: %w", err)
	}
	pre := info.Size()
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		if terr := j.f.Truncate(pre); terr != nil {
			j.broken = true
			return fmt.Errorf("jobs: append journal: %w (repair failed: %v)", err, terr)
		}
		return fmt.Errorf("jobs: append journal: %w", err)
	}
	if j.noSync {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("jobs: sync journal: %w", err)
	}
	return nil
}

func (j *journal) close() error { return j.f.Close() }

// truncate resets the journal after a snapshot compaction.
func (j *journal) truncate() error {
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("jobs: truncate journal: %w", err)
	}
	// O_APPEND writes reposition automatically; nothing else to do.
	return nil
}

// maxJournalLine bounds one journal record: a checkpoint for the
// largest admissible system (N = 2048, three vectors, base64) is well
// under 1 MiB; 16 MiB leaves a wide margin.
const maxJournalLine = 16 << 20

// replayJournal streams records from dir's journal into apply. It
// returns the number of applied records and whether a torn tail was
// dropped. A missing journal is an empty one.
//
// A record is applied only if its line is complete (newline-terminated
// and valid JSON): a crash can tear the final append at any byte, and
// replay must never act on a half-written record. Because appends go
// through a single write syscall, only the last line can be torn.
func replayJournal(fsys faultfs.FS, dir string, apply func(rec)) (records int, truncated bool, err error) {
	f, err := fsys.Open(filepath.Join(dir, journalName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, false, nil
		}
		return 0, false, fmt.Errorf("jobs: open journal for replay: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	rd := bufio.NewReaderSize(f, 64<<10)
	for {
		line, rerr := rd.ReadBytes('\n')
		if rerr != nil {
			// Data without a trailing newline is a torn final append.
			if len(bytes.TrimSpace(line)) > 0 {
				return records, true, nil
			}
			if errors.Is(rerr, io.EOF) {
				return records, truncated, nil
			}
			return records, false, fmt.Errorf("jobs: replay journal: %w", rerr)
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		if len(line) > maxJournalLine {
			return records, true, nil
		}
		var r rec
		if uerr := json.Unmarshal(line, &r); uerr != nil {
			// A torn line means the process died mid-append; every
			// complete record before it has already been applied.
			return records, true, nil
		}
		apply(r)
		records++
	}
}

// snapshot is the compacted full job table.
type snapshot struct {
	Seq  uint64 `json:"seq"`
	Jobs []*Job `json:"jobs"`
}

// writeSnapshot writes the snapshot with the atomic-replace protocol
// (tmp file, fsync, rename) via the faultfs seam.
func writeSnapshot(fsys faultfs.FS, dir string, snap *snapshot) error {
	// Deterministic order: sorted by submission sequence.
	sort.Slice(snap.Jobs, func(i, k int) bool { return snap.Jobs[i].Seq < snap.Jobs[k].Seq })
	// Stream job by job, so a compaction holds one job's JSON at a
	// time rather than copies of the whole table. The bytes are
	// json.Marshal(snap) plus a newline.
	err := faultfs.WriteAtomic(fsys, filepath.Join(dir, snapshotName), func(w io.Writer) error {
		// A bufio.Writer's errors are sticky: Flush reports the first.
		bw := bufio.NewWriterSize(w, 64<<10)
		_, _ = fmt.Fprintf(bw, `{"seq":%d,"jobs":`, snap.Seq)
		if snap.Jobs == nil {
			_, _ = bw.WriteString("null")
		} else {
			_ = bw.WriteByte('[')
			for i, j := range snap.Jobs {
				b, err := json.Marshal(j)
				if err != nil {
					return fmt.Errorf("marshal snapshot: %w", err)
				}
				if i > 0 {
					_ = bw.WriteByte(',')
				}
				_, _ = bw.Write(b)
			}
			_ = bw.WriteByte(']')
		}
		_, _ = bw.WriteString("}\n")
		return bw.Flush()
	})
	if err != nil {
		return fmt.Errorf("jobs: write snapshot: %w", err)
	}
	return nil
}

// readSnapshot loads the snapshot; a missing file is an empty one.
func readSnapshot(fsys faultfs.FS, dir string) (*snapshot, error) {
	b, err := fsys.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return &snapshot{}, nil
		}
		return nil, fmt.Errorf("jobs: read snapshot: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return nil, fmt.Errorf("jobs: decode snapshot: %w", err)
	}
	return &snap, nil
}
