// Package joblog is a durable, append-only job log for trapd: the
// persistence layer that lets assessment jobs survive process death.
// Every job submission, state transition and result is appended as a
// CRC-framed record to a segment file and fsync'd before the append
// returns; on startup trapd replays the log to restore terminal jobs'
// metadata and re-enqueue interrupted ones, which then resume from
// their latest -spool RL checkpoint.
//
// # On-disk format
//
// A log is a directory of segment files named %08d.seg, written and
// replayed in ascending order. Each segment is a sequence of frames:
//
//	[ length uint32 LE | crc32(payload) uint32 LE | payload ]
//
// where payload is one JSON-encoded Record. The CRC (IEEE) covers only
// the payload, so a torn write — a crash mid-append — is detected as a
// short or mismatched frame. Torn frames can only be the last frame of
// the last segment (appends are strictly sequential and fsync'd), so
// replay truncates the tail back to the last good frame and the log is
// immediately appendable again. A corrupt frame anywhere earlier marks
// the remainder of that segment unreadable (frame boundaries cannot be
// re-found reliably); replay counts it and continues with the next
// segment.
//
// The log itself is record-agnostic: Record carries a type tag, a job
// ID and an opaque JSON payload, and the replayed state is whatever the
// caller folds the records into (trapd: last-write-wins per job ID).
// Compact rewrites a caller-provided snapshot into a single fresh
// segment and deletes the old ones, bounding replay time; the new
// segment is numbered above every old one, so a crash between the
// rename and the deletes replays old-then-snapshot, which folds to the
// same state.
//
// # Degraded mode
//
// A failed append write or fsync (ENOSPC, an I/O error, an injected
// fault at faultinject.PointJoblogAppend) leaves the on-disk tail in an
// unknown state, so the log does not guess: the first such failure
// permanently degrades the log to read-only. Every later Append returns
// ErrDegraded (wrapping the original cause) and Degraded()/Stats report
// it, letting the owning server drain instead of acknowledging writes it
// cannot make durable. Recovery is a process restart: Open replays the
// good prefix and truncates any torn tail as usual.
//
// # One writer
//
// Open locks the directory (see DirLock) for the life of the Log, so a
// second Open of a live directory fails with ErrLocked instead of
// interleaving its appends with the first writer's. Close releases the
// lock, and so does the death of the process: a standby that retries
// Open takes over as soon as the writer is gone.
//
// All methods are safe for concurrent use.
package joblog

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/trap-repro/trap/internal/faultinject"
)

// Record is one durable log entry. Type and Data are caller-defined;
// Seq is assigned by Append and strictly increases across the log's
// lifetime (replay continues the sequence).
type Record struct {
	Seq   uint64          `json:"seq"`
	Type  string          `json:"type"`
	JobID string          `json:"job"`
	Time  time.Time       `json:"time"`
	Data  json.RawMessage `json:"data,omitempty"`
}

// Options parameterizes Open. The zero value gives the defaults.
type Options struct {
	// SegmentBytes rotates to a new segment file once the active one
	// exceeds this size (default 4 MiB).
	SegmentBytes int64
	// NoSync disables the fsync after every append. Only for tests and
	// benchmarks: without the sync a crash can lose acknowledged
	// records, which defeats the log's purpose.
	NoSync bool
	// Replay receives every record recovered from disk, in log order,
	// before Open returns. A nil Replay skips delivery (the records
	// are still scanned to find the append position).
	Replay func(Record) error
	// Injector, when non-nil, is fired at faultinject.PointJoblogAppend
	// before each append writes its frame. An injected error is handled
	// exactly like a real write failure: the log degrades to read-only.
	Injector faultinject.Injector
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
}

// Stats is a point-in-time summary of the log.
type Stats struct {
	// Appends counts records appended this process lifetime.
	Appends int64
	// AppendedBytes counts frame bytes written this process lifetime.
	AppendedBytes int64
	// Replayed counts records recovered by Open.
	Replayed int64
	// CorruptFrames counts frames dropped during replay (torn tail or
	// CRC mismatch).
	CorruptFrames int64
	// TornTails counts torn-tail truncation events: a bad frame at the
	// end of the last segment, cut back to the last good frame by Open.
	TornTails int64
	// TruncatedBytes counts tail bytes cut from the last segment to
	// recover from a torn write.
	TruncatedBytes int64
	// Compactions counts successful Compact calls this process lifetime.
	Compactions int64
	// Degraded reports that an append failed and the log is read-only.
	Degraded bool
	// Segments is the number of live segment files.
	Segments int
	// ActiveBytes is the size of the active (append) segment.
	ActiveBytes int64
	// NextSeq is the sequence number the next append will get.
	NextSeq uint64
}

// Log is an open job log. Close it to release the active segment.
type Log struct {
	dir  string
	opts Options
	lock *DirLock

	mu      sync.Mutex
	f       *os.File // active segment
	fileNum int      // active segment number
	size    int64    // active segment size
	nextSeq uint64
	closed  bool
	broken  error // first append failure; non-nil means read-only
	st      Stats
}

const frameHeader = 8 // length + crc

var errClosed = errors.New("joblog: log is closed")

// ErrDegraded is returned (wrapped around the original failure) by every
// Append after a write or fsync error has left the on-disk tail in an
// unknown state. The log is read-only from that point on; the owning
// server should stop acknowledging new work and drain.
var ErrDegraded = errors.New("joblog: degraded, log is read-only")

// Open opens (or creates) the log in dir, takes the directory's lock,
// replays every recoverable record into o.Replay, recovers from a torn
// tail, and leaves the log positioned for appends. A directory another
// writer holds fails with ErrLocked; a failed Open releases the lock.
func Open(dir string, o Options) (*Log, error) {
	o.fill()
	lock, err := LockDir(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: o, lock: lock, nextSeq: 1}
	if err := l.load(); err != nil {
		lock.Unlock()
		return nil, err
	}
	return l, nil
}

// load replays every segment and opens the last one for appends.
func (l *Log) load() error {
	nums, err := l.segmentNums()
	if err != nil {
		return err
	}
	for i, n := range nums {
		if err := l.replaySegment(n, i == len(nums)-1); err != nil {
			return err
		}
	}
	// Append into the last existing segment, or start the first one.
	num := 1
	if len(nums) > 0 {
		num = nums[len(nums)-1]
	}
	return l.openSegment(num)
}

// segPath names segment n.
func (l *Log) segPath(n int) string {
	return filepath.Join(l.dir, fmt.Sprintf("%08d.seg", n))
}

// segmentNums lists existing segment numbers, ascending.
func (l *Log) segmentNums() ([]int, error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("joblog: %w", err)
	}
	var nums []int
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "%08d.seg", &n); err == nil && fmt.Sprintf("%08d.seg", n) == e.Name() {
			nums = append(nums, n)
		}
	}
	sort.Ints(nums)
	return nums, nil
}

// replaySegment scans one segment, delivering records to the replay
// callback. On the last segment a bad tail is truncated back to the
// last good frame; on earlier segments the remainder is skipped.
func (l *Log) replaySegment(n int, last bool) error {
	f, err := os.Open(l.segPath(n))
	if err != nil {
		return fmt.Errorf("joblog: %w", err)
	}
	defer f.Close()
	var off int64
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if err == io.EOF {
				return nil // clean end
			}
			return l.badTail(f, n, off, last, err)
		}
		length := binary.LittleEndian.Uint32(hdr[:4])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if length == 0 || length > 64<<20 {
			return l.badTail(f, n, off, last, fmt.Errorf("frame length %d", length))
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return l.badTail(f, n, off, last, err)
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return l.badTail(f, n, off, last, errors.New("crc mismatch"))
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return l.badTail(f, n, off, last, err)
		}
		off += frameHeader + int64(length)
		l.st.Replayed++
		if rec.Seq >= l.nextSeq {
			l.nextSeq = rec.Seq + 1
		}
		if l.opts.Replay != nil {
			if err := l.opts.Replay(rec); err != nil {
				return fmt.Errorf("joblog: replay: %w", err)
			}
		}
	}
}

// badTail handles an unreadable frame at offset off of segment n: on
// the last segment the file is truncated to the good prefix (torn
// write recovery); earlier segments just skip their remainder.
func (l *Log) badTail(f *os.File, n int, off int64, last bool, cause error) error {
	l.st.CorruptFrames++
	if !last {
		return nil // skip the rest of this segment, keep replaying
	}
	l.st.TornTails++
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("joblog: %w", err)
	}
	if fi.Size() > off {
		l.st.TruncatedBytes += fi.Size() - off
		if err := os.Truncate(l.segPath(n), off); err != nil {
			return fmt.Errorf("joblog: truncating torn tail (%v): %w", cause, err)
		}
	}
	return nil
}

// openSegment opens segment n for appending, creating it if needed.
func (l *Log) openSegment(n int) error {
	f, err := os.OpenFile(l.segPath(n), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("joblog: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("joblog: %w", err)
	}
	l.f, l.fileNum, l.size = f, n, fi.Size()
	return nil
}

// Append durably appends one record and returns it with its assigned
// sequence number. The record is fsync'd before Append returns (unless
// Options.NoSync), so an acknowledged append survives a crash.
func (l *Log) Append(typ, jobID string, data any) (Record, error) {
	rec := Record{Type: typ, JobID: jobID, Time: time.Now().UTC()}
	if data != nil {
		raw, err := json.Marshal(data)
		if err != nil {
			return Record{}, fmt.Errorf("joblog: %w", err)
		}
		rec.Data = raw
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Record{}, errClosed
	}
	if l.broken != nil {
		return Record{}, fmt.Errorf("%w (cause: %v)", ErrDegraded, l.broken)
	}
	if err := faultinject.Fire(l.opts.Injector, faultinject.PointJoblogAppend); err != nil {
		return Record{}, l.degrade(err)
	}
	rec.Seq = l.nextSeq
	payload, err := json.Marshal(rec)
	if err != nil {
		return Record{}, fmt.Errorf("joblog: %w", err)
	}
	if err := l.writeFrame(payload); err != nil {
		return Record{}, l.degrade(err)
	}
	l.nextSeq++
	l.st.Appends++
	if l.size > l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return Record{}, l.degrade(err)
		}
	}
	return rec, nil
}

// degrade records the first append failure and flips the log to
// read-only (caller holds mu). The returned error wraps both ErrDegraded
// and the cause so callers can match either.
func (l *Log) degrade(cause error) error {
	if l.broken == nil {
		l.broken = cause
	}
	return fmt.Errorf("%w: %w", ErrDegraded, cause)
}

// Degraded reports whether an append failure has made the log read-only.
func (l *Log) Degraded() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.broken != nil
}

// writeFrame frames, writes and syncs one payload (caller holds mu).
func (l *Log) writeFrame(payload []byte) error {
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[frameHeader:], payload)
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("joblog: %w", err)
	}
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("joblog: %w", err)
		}
	}
	l.size += int64(len(buf))
	l.st.AppendedBytes += int64(len(buf))
	return nil
}

// rotate closes the active segment and starts the next (caller holds mu).
func (l *Log) rotate() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("joblog: %w", err)
	}
	if err := l.openSegment(l.fileNum + 1); err != nil {
		return err
	}
	return l.syncDir()
}

// syncDir fsyncs the log directory so file creates/renames are durable.
func (l *Log) syncDir() error {
	d, err := os.Open(l.dir)
	if err != nil {
		return fmt.Errorf("joblog: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return fmt.Errorf("joblog: %w", err)
	}
	return nil
}

// Compact rewrites the log to hold exactly the given snapshot records
// (fresh sequence numbers are assigned in order) and deletes every
// older segment, bounding replay time after long uptimes. The snapshot
// lands in a segment numbered above all existing ones before the old
// files are removed, so a crash mid-compaction replays the old records
// followed by the snapshot — which folds to the same state under
// last-write-wins replay.
func (l *Log) Compact(snapshot []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	if l.broken != nil {
		return fmt.Errorf("%w (cause: %v)", ErrDegraded, l.broken)
	}
	old, err := l.segmentNums()
	if err != nil {
		return err
	}
	next := l.fileNum + 1
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("joblog: %w", err)
	}
	tmp, err := os.CreateTemp(l.dir, ".compact-*")
	if err != nil {
		return fmt.Errorf("joblog: %w", err)
	}
	l.f, l.fileNum, l.size = tmp, next, 0
	for _, rec := range snapshot {
		rec.Seq = l.nextSeq
		payload, err := json.Marshal(rec)
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("joblog: %w", err)
		}
		if err := l.writeFrame(payload); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return l.degrade(err)
		}
		l.nextSeq++
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return l.degrade(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return l.degrade(err)
	}
	if err := os.Rename(tmp.Name(), l.segPath(next)); err != nil {
		return l.degrade(err)
	}
	if err := l.syncDir(); err != nil {
		return l.degrade(err)
	}
	for _, n := range old {
		if n < next {
			_ = os.Remove(l.segPath(n))
		}
	}
	l.st.Compactions++
	return l.openSegment(next)
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.st
	st.ActiveBytes = l.size
	st.NextSeq = l.nextSeq
	st.Degraded = l.broken != nil
	if nums, err := l.segmentNums(); err == nil {
		st.Segments = len(nums)
	}
	return st
}

// Close syncs and closes the active segment and releases the directory
// lock. Appends after Close fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	defer l.lock.Unlock()
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			l.f.Close()
			return fmt.Errorf("joblog: %w", err)
		}
	}
	return l.f.Close()
}
