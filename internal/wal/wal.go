// Package wal is the write-ahead log behind crash-safe streaming
// ingestion. Appended rows are recorded durably — length-prefixed,
// CRC32-guarded, fsynced — before they are applied to any in-memory
// structure, so a crash at any point loses no acknowledged row: startup
// replays the log on top of the latest snapshot and reconstructs the
// exact pre-crash state. The deployed Opportunity Map ingests roughly
// 200 GB of call logs per month (Section V.C of the paper); contingency
// counts are additive, so recovery is replay-then-delta-apply rather
// than a full rebuild.
//
// On-disk layout: a directory of segment files named
// wal-<first-seq, 16 hex digits>.seg. Each segment starts with an
// 8-byte magic and holds consecutive records:
//
//	[8B seq LE][4B payload len LE][4B CRC32-IEEE LE][payload]
//
// The CRC covers seq, length and payload, so a torn header is detected
// the same as a torn payload. Only the newest segment can end in a torn
// record (older segments are sealed before rotation); Open truncates
// the tail back to the last complete record. New segments are staged
// through internal/atomicfile, so a crash mid-rotation leaves either no
// new segment or a valid empty one — plus at worst an orphaned staging
// file, which Open sweeps via atomicfile.CleanupTemps.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"opmap/internal/atomicfile"
	"opmap/internal/faultinject"
	"opmap/internal/obsv"
)

// Metric names recorded by the WAL. Declared here (once, as constants)
// so the daemon can pre-register them at startup and ci.sh can grep
// them by exact string.
const (
	// FsyncHistogramName times each append's fsync — the durability cost
	// every acknowledged ingest pays.
	FsyncHistogramName = "opmap_wal_fsync_seconds"
	// ReplayedRecordsCounterName counts records delivered to replay
	// callbacks during recovery.
	ReplayedRecordsCounterName = "opmap_wal_replayed_records_total"
)

// PreRegister creates the WAL metric series in reg at zero so servers
// expose them before the first append or replay touches them.
func PreRegister(reg *obsv.Registry) {
	reg.Histogram(FsyncHistogramName, nil)
	reg.Counter(ReplayedRecordsCounterName)
}

const (
	// segMagic opens every segment file. The trailing byte doubles as a
	// format version.
	segMagic = "OMAPWAL\x01"
	// recHeaderLen is the fixed record prelude: seq, payload length, CRC.
	recHeaderLen = 8 + 4 + 4
	// MaxRecordBytes bounds one record's payload so a corrupt length
	// field cannot drive an allocation; one record is one ingest batch,
	// which is orders of magnitude smaller.
	MaxRecordBytes = 1 << 28
	// DefaultSegmentBytes is the rotation threshold when Options leaves
	// SegmentBytes zero.
	DefaultSegmentBytes = 64 << 20

	segPrefix = "wal-"
	segSuffix = ".seg"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Options configures a Log.
type Options struct {
	// SegmentBytes rotates the active segment once it reaches this many
	// bytes (0 = DefaultSegmentBytes). Checkpoints can only reclaim
	// whole sealed segments, so smaller segments reclaim sooner.
	SegmentBytes int64
	// NoSync skips the per-record fsync. Only for tests and benchmarks
	// that measure the non-durable ceiling; production appends must
	// reach stable storage before they are acknowledged.
	NoSync bool
	// Metrics receives fsync timings and replay counts (nil = the obsv
	// default registry).
	Metrics *obsv.Registry
}

// Log is an append-only, crash-recoverable record log over one
// directory. All methods are safe for concurrent use; appends are
// serialized internally.
type Log struct {
	dir string
	opt Options

	fsync    *obsv.Histogram
	replayed *obsv.Counter

	mu      sync.Mutex
	f       *os.File // active segment (nil until first append or if none recovered)
	size    int64    // bytes in the active segment
	nextSeq uint64   // sequence the next Append will be assigned
	closed  bool
}

// Open recovers the log in dir, creating the directory if needed. It
// sweeps staging files orphaned by a crash mid-rotation, validates
// every segment's magic, scans the newest segment and truncates a torn
// tail back to the last complete record. The next append continues the
// recovered sequence.
func Open(dir string, opt Options) (*Log, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if opt.Metrics == nil {
		opt.Metrics = obsv.Default()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	if _, err := atomicfile.CleanupTemps(dir); err != nil {
		return nil, fmt.Errorf("wal: sweeping staging files in %s: %w", dir, err)
	}
	l := &Log{
		dir:      dir,
		opt:      opt,
		fsync:    opt.Metrics.Histogram(FsyncHistogramName, nil),
		replayed: opt.Metrics.Counter(ReplayedRecordsCounterName),
		nextSeq:  1,
	}
	segs, err := l.segments()
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return l, nil
	}
	last := segs[len(segs)-1]
	validEnd, lastSeq, n, err := scanSegment(last.path, 0, nil)
	if err != nil {
		return nil, err
	}
	if n > 0 {
		l.nextSeq = lastSeq + 1
	} else {
		// An empty newest segment was created by rotation; its name is
		// the sequence it was opened for.
		l.nextSeq = last.firstSeq
	}
	f, err := os.OpenFile(last.path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("wal: opening segment %s: %w", last.path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		_ = f.Close() // error path: the stat error wins
		return nil, fmt.Errorf("wal: stat %s: %w", last.path, err)
	}
	if fi.Size() > validEnd {
		// Torn tail from a crash mid-append: drop the incomplete record
		// so future appends land on a clean boundary.
		if err := f.Truncate(validEnd); err != nil {
			_ = f.Close() // error path: the truncate error wins
			return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", last.path, err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close() // error path: the sync error wins
			return nil, fmt.Errorf("wal: syncing truncated %s: %w", last.path, err)
		}
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		_ = f.Close() // error path: the seek error wins
		return nil, fmt.Errorf("wal: seeking in %s: %w", last.path, err)
	}
	l.f = f
	l.size = validEnd
	return l, nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// NextSeq returns the sequence number the next Append will be assigned.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// LastSeq returns the sequence of the last durable record (0 if none).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// Align raises the next append sequence to at least next. The daemon
// calls this after loading a snapshot whose ingest sequence is ahead of
// the (possibly truncated) log, so sequences never repeat.
func (l *Log) Align(next uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if next > l.nextSeq {
		l.nextSeq = next
	}
}

// Append durably records one payload and returns its sequence number.
// The record is fsynced before Append returns: a nil error means the
// payload survives any subsequent crash. On error nothing is
// acknowledged and the log stays appendable — a partially written
// record is truncated away immediately, mirroring what Open would do
// after a real crash.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: payload %d bytes exceeds record limit %d", len(payload), MaxRecordBytes)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if err := faultinject.Hit(faultinject.SiteWALAppend); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	if l.f == nil || l.size >= l.opt.SegmentBytes {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}
	seq := l.nextSeq
	rec := make([]byte, recHeaderLen+len(payload))
	binary.LittleEndian.PutUint64(rec[0:8], seq)
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(payload)))
	copy(rec[recHeaderLen:], payload)
	crc := crc32.NewIEEE()
	crc.Write(rec[0:12])
	crc.Write(payload)
	binary.LittleEndian.PutUint32(rec[12:16], crc.Sum32())

	if _, err := l.f.Write(rec); err != nil {
		l.unwrite()
		return 0, fmt.Errorf("wal: writing record %d: %w", seq, err)
	}
	if err := faultinject.Hit(faultinject.SiteWALFsync); err != nil {
		l.unwrite()
		return 0, fmt.Errorf("wal: record %d: %w", seq, err)
	}
	if !l.opt.NoSync {
		start := time.Now()
		if err := l.f.Sync(); err != nil {
			l.unwrite()
			return 0, fmt.Errorf("wal: syncing record %d: %w", seq, err)
		}
		l.fsync.ObserveSince(start)
	}
	l.size += int64(len(rec))
	l.nextSeq = seq + 1
	return seq, nil
}

// unwrite drops anything written past the last durable record, so a
// failed append cannot leave a torn record in front of later good ones.
// Best-effort: if the truncate itself fails the tail stays torn, which
// recovery already tolerates.
func (l *Log) unwrite() {
	if l.f == nil {
		return
	}
	if err := l.f.Truncate(l.size); err != nil {
		return
	}
	_, _ = l.f.Seek(l.size, io.SeekStart)
}

// rotate seals the active segment and opens a fresh one for nextSeq.
// The new segment file (magic only) is staged through atomicfile, so a
// crash here leaves no partially written segment header.
func (l *Log) rotate() error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sealing segment: %w", err)
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: sealing segment: %w", err)
		}
		l.f = nil
	}
	path := l.segPath(l.nextSeq)
	err := atomicfile.WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, segMagic)
		return err
	})
	if err != nil {
		return fmt.Errorf("wal: creating segment %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("wal: opening segment %s: %w", path, err)
	}
	if _, err := f.Seek(int64(len(segMagic)), io.SeekStart); err != nil {
		_ = f.Close() // error path: the seek error wins
		return fmt.Errorf("wal: seeking in %s: %w", path, err)
	}
	l.f = f
	l.size = int64(len(segMagic))
	return nil
}

// Replay streams every durable record with sequence >= from, in order,
// to fn. It stops without error at the first torn or corrupt record —
// by construction that can only be the tail of the newest segment — and
// returns how many records were delivered. A non-nil error from fn
// aborts the replay and is returned as-is.
func (l *Log) Replay(from uint64, fn func(seq uint64, payload []byte) error) (int, error) {
	return l.scan(from, func(seq uint64, payload []byte) error {
		if err := fn(seq, payload); err != nil {
			return err
		}
		l.replayed.Inc()
		return nil
	})
}

// scan streams every durable record with sequence >= from, in order,
// to fn, behind the replay fault-injection site, and returns how many
// records fn accepted. Replay and ReplayGroups share it.
func (l *Log) scan(from uint64, fn func(seq uint64, payload []byte) error) (int, error) {
	segs, err := l.segments()
	if err != nil {
		return 0, err
	}
	total := 0
	for _, seg := range segs {
		_, _, n, err := scanSegment(seg.path, from, func(seq uint64, payload []byte) error {
			if err := faultinject.Hit(faultinject.SiteWALReplay); err != nil {
				return fmt.Errorf("wal: replay: %w", err)
			}
			return fn(seq, payload)
		})
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// GroupRows caps the rows of one replay group (ReplayGroups) and of
// one grouped live apply. A group's decoded rows stay in memory until
// the group applies — a row decodes to one string per field, about
// 0.95 KB at 46 attributes, so a full group holds about 8 MB — and the
// whole group applies under the session's write lock: appending and
// folding 8k rows into the 1,081 cubes of a 46-attribute eager store
// holds it for about 50 ms (measured on a 2-vCPU x86-64 VM), a pause
// readers tolerate. The fold's fixed cost (one pass over every
// resident cube's cells) is about 2 ms there, so larger groups would
// save little.
const GroupRows = 1 << 13

// Batch is one decoded WAL record: its sequence and its rows.
type Batch struct {
	Seq  uint64
	Rows [][]string
}

// ReplayGroups is Replay for row batches (EncodeRows payloads): it
// decodes every record with sequence >= from and hands fn runs of
// consecutive records, in order, each run closing before a record
// that would take it past GroupRows rows (a larger record forms a run
// of its own). A payload that does not decode aborts the replay,
// after the records before it are delivered, with an error naming its
// sequence: its CRC matched, so it is a writer bug, not a torn tail,
// and dropping acknowledged rows silently would be worse. The
// replayed-records counter advances by a run's length once fn accepts
// it; the return value counts the records of accepted runs. A non-nil
// error from fn aborts the replay and is returned as-is.
func (l *Log) ReplayGroups(from uint64, fn func(run []Batch) error) (int, error) {
	var (
		run       []Batch
		rows, out int
	)
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		if err := fn(run); err != nil {
			return err
		}
		l.replayed.Add(int64(len(run)))
		out += len(run)
		run, rows = nil, 0
		return nil
	}
	_, err := l.scan(from, func(seq uint64, payload []byte) error {
		recRows, err := DecodeRows(payload)
		if err != nil {
			if ferr := flush(); ferr != nil {
				return ferr
			}
			return fmt.Errorf("wal: replay: seq %d: %w", seq, err)
		}
		if len(run) > 0 && rows+len(recRows) > GroupRows {
			if err := flush(); err != nil {
				return err
			}
		}
		run = append(run, Batch{Seq: seq, Rows: recRows})
		rows += len(recRows)
		return nil
	})
	if err == nil {
		err = flush()
	}
	return out, err
}

// TruncateThrough removes sealed segments whose every record has
// sequence <= seq — the segments a checkpoint at ingest sequence seq
// has made redundant. The active (newest) segment is never removed. It
// returns how many segment files were deleted.
func (l *Log) TruncateThrough(seq uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, err := l.segments()
	if err != nil {
		return 0, err
	}
	removed := 0
	// Segment i's records all precede segment i+1's first sequence, so
	// it is redundant exactly when the next segment starts at or before
	// seq+1.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].firstSeq > seq+1 {
			break
		}
		if err := os.Remove(segs[i].path); err != nil {
			return removed, fmt.Errorf("wal: removing checkpointed segment %s: %w", segs[i].path, err)
		}
		removed++
	}
	return removed, nil
}

// Close seals the active segment. Further operations return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	if err != nil {
		return fmt.Errorf("wal: closing log in %s: %w", l.dir, err)
	}
	return nil
}

// segment is one on-disk segment file.
type segment struct {
	path     string
	firstSeq uint64
}

func (l *Log) segPath(firstSeq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix))
}

// segments lists the log's segment files in sequence order, validating
// each name and magic. Foreign files in the directory are ignored.
func (l *Log) segments() ([]segment, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", l.dir, err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		var first uint64
		if _, err := fmt.Sscanf(hex, "%016x", &first); err != nil || len(hex) != 16 {
			return nil, fmt.Errorf("wal: segment %s has a malformed sequence in its name", name)
		}
		segs = append(segs, segment{path: filepath.Join(l.dir, name), firstSeq: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// scanSegment reads records from one segment file, calling fn (when
// non-nil) for each record with sequence >= from. It returns the byte
// offset just past the last complete record, the last record's
// sequence, and how many records fn received. Scanning stops quietly at
// the first invalid record — short header, bad length, CRC mismatch, or
// non-increasing sequence — which recovery treats as the torn tail. An
// unreadable file or a bad magic is an error: that is corruption no
// crash of ours produces.
func scanSegment(path string, from uint64, fn func(seq uint64, payload []byte) error) (validEnd int64, lastSeq uint64, n int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: opening segment %s: %w", path, err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != segMagic {
		return 0, 0, 0, fmt.Errorf("wal: segment %s: bad magic", path)
	}
	validEnd = int64(len(segMagic))
	var header [recHeaderLen]byte
	var prevSeq uint64
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			return validEnd, prevSeq, n, nil // clean EOF or torn header
		}
		seq := binary.LittleEndian.Uint64(header[0:8])
		plen := binary.LittleEndian.Uint32(header[8:12])
		want := binary.LittleEndian.Uint32(header[12:16])
		if plen > MaxRecordBytes {
			return validEnd, prevSeq, n, nil
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return validEnd, prevSeq, n, nil // torn payload
		}
		crc := crc32.NewIEEE()
		crc.Write(header[0:12])
		crc.Write(payload)
		if crc.Sum32() != want {
			return validEnd, prevSeq, n, nil
		}
		// Sequences start at 1 and strictly increase; prevSeq starts at
		// 0, so this also rejects a (CRC-valid) zero-sequence record.
		if seq <= prevSeq {
			return validEnd, prevSeq, n, nil
		}
		if fn != nil && seq >= from {
			if err := fn(seq, payload); err != nil {
				return validEnd, prevSeq, n, err
			}
			n++
		} else if fn == nil {
			n++
		}
		prevSeq = seq
		lastSeq = seq
		validEnd += int64(recHeaderLen) + int64(plen)
	}
}
