package main

// Crash-safe streaming ingestion for the daemon. An ingestman owns one
// -wal-dir: each dataset gets <dir>/<name>/ with its own append-only
// WAL. A live ingest batch is appended and fsynced to the WAL before
// the HTTP response is written — the acknowledgment IS the durability
// guarantee — then handed to a bounded per-dataset apply queue whose
// single worker folds it into the session and advances the session's
// ingest sequence. At startup each dataset replays its WAL from the
// snapshot's recorded sequence + 1 in the background, gating /readyz,
// so an opmapd killed mid-ingest recovers every acknowledged row.
// Replay and the live worker apply through the same grouped call
// (Session.AppendSeqs): a run of batches of up to wal.GroupRows rows
// costs one fold of the counting kernel, not one per batch.

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"opmap"
	"opmap/internal/atomicfile"
	"opmap/internal/server"
	"opmap/internal/wal"
)

// ingestQueueDepth bounds each dataset's apply queue: batches accepted
// (durable in the WAL) but not yet folded into the session. A full
// queue sheds new batches with server.ErrBackpressure → 503.
const ingestQueueDepth = 64

// ingestman manages per-dataset ingest pipelines under one WAL
// directory.
type ingestman struct {
	dir string

	mu    sync.Mutex
	pipes map[string]*ingestPipe
}

// ingestPipe is one dataset's ingest pipeline: its WAL, the bounded
// apply queue, and the single apply worker that serializes session
// mutations.
type ingestPipe struct {
	name string
	sess *opmap.Session
	log  *wal.Log

	// appendMu orders WAL append → enqueue atomically, so the worker
	// applies batches in WAL sequence order and the session's ingest
	// sequence never regresses (a regression would make the next
	// snapshot's replay point too low and double-apply on recovery).
	appendMu sync.Mutex
	jobs     chan ingestJob
	// slots is the queue's capacity token pool, reserved BEFORE the WAL
	// append so a shed batch is rejected without becoming durable.
	slots chan struct{}

	replaying  atomic.Bool
	workerDone chan struct{}
}

type ingestJob struct {
	seq  uint64
	rows [][]string
}

// newIngestman prepares the WAL root directory. Pipes are added per
// dataset with start.
func newIngestman(dir string) (*ingestman, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal dir: %w", err)
	}
	return &ingestman{dir: dir, pipes: map[string]*ingestPipe{}}, nil
}

// start opens (recovering) the dataset's WAL and launches background
// replay followed by the apply worker. Until replay finishes the
// dataset reports replaying=true and sheds live ingests.
func (m *ingestman) start(name string, sess *opmap.Session) error {
	lg, err := wal.Open(filepath.Join(m.dir, name), wal.Options{})
	if err != nil {
		return fmt.Errorf("dataset %q: opening WAL: %w", name, err)
	}
	p := &ingestPipe{
		name:       name,
		sess:       sess,
		log:        lg,
		jobs:       make(chan ingestJob, ingestQueueDepth),
		slots:      make(chan struct{}, ingestQueueDepth),
		workerDone: make(chan struct{}),
	}
	p.replaying.Store(true)
	m.mu.Lock()
	m.pipes[name] = p
	m.mu.Unlock()
	go func() {
		defer close(p.workerDone)
		p.replayAndServe()
	}()
	return nil
}

func (m *ingestman) pipe(name string) *ingestPipe {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pipes[name]
}

// replaying reports whether the dataset's WAL replay is still running
// (the server.Config.IngestStatus hook).
func (m *ingestman) replaying(name string) bool {
	p := m.pipe(name)
	return p != nil && p.replaying.Load()
}

// append is the server.Config.Ingest hook: reserve a queue slot, make
// the batch durable, enqueue it for apply, and return its WAL
// sequence. The response the server writes from this return value is
// the durability acknowledgment.
func (m *ingestman) append(_ context.Context, name string, rows [][]string) (uint64, error) {
	p := m.pipe(name)
	if p == nil {
		return 0, fmt.Errorf("dataset %q does not accept ingestion", name)
	}
	if p.replaying.Load() {
		// Replay owns the session's append path until it finishes;
		// clients see the same 503 + Retry-After as a full queue.
		return 0, server.ErrBackpressure
	}
	// Full synchronous validation — row widths AND numeric parses,
	// exactly what Append checks before mutating — so any batch the
	// (asynchronous) apply would reject fails the request with 400 here
	// instead of being durably acked and then silently dropped.
	if err := p.sess.ValidateBatch(rows); err != nil {
		return 0, err
	}
	select {
	case p.slots <- struct{}{}:
	default:
		return 0, server.ErrBackpressure
	}
	p.appendMu.Lock()
	defer p.appendMu.Unlock()
	seq, err := p.log.Append(wal.EncodeRows(rows))
	if err != nil {
		<-p.slots
		return 0, err
	}
	// Cannot block: a slot is held, so the buffered channel has room.
	p.jobs <- ingestJob{seq: seq, rows: rows}
	return seq, nil
}

// replayAndServe replays the WAL tail beyond the warm-started
// session's ingest sequence in grouped runs, then flips the pipe live
// and runs the apply worker until the jobs channel closes at shutdown.
func (p *ingestPipe) replayAndServe() {
	from := p.sess.IngestSeq() + 1
	folds := 0
	n, err := p.log.ReplayGroups(from, func(run []opmap.SeqBatch) error {
		// Live ingest validates a batch before it reaches the WAL, so a
		// record that fails validation now was acknowledged by a more
		// lenient build (one that read "1.5abc" as 1.5, say). Skipping
		// it would drop acknowledged rows: apply the records before it
		// and fail the replay, leaving it the next record to replay.
		for i, b := range run {
			if err := p.sess.ValidateBatch(b.Rows); err != nil {
				if i > 0 {
					folds += p.apply(run[:i])
				}
				return fmt.Errorf("WAL batch seq %d no longer validates: %w", b.Seq, err)
			}
		}
		folds += p.apply(run)
		return nil
	})
	if err != nil {
		log.Printf("dataset %q: WAL replay failed after %d record(s): %v; refusing live ingest", p.name, n, err)
		// replaying stays true: /readyz keeps reporting the dataset and
		// append keeps shedding, so the operator sees a stuck-replaying
		// dataset instead of a silently diverged one.
		return
	}
	if n > 0 {
		log.Printf("dataset %q: replayed %d record(s) in %d fold(s), ingest seq %d", p.name, n, folds, p.sess.IngestSeq())
	}
	// A snapshot can be ahead of a truncated WAL; never hand out a
	// sequence the session has already seen.
	p.log.Align(p.sess.IngestSeq() + 1)
	p.replaying.Store(false)
	for job := range p.jobs {
		batches := p.takeQueued(job)
		p.apply(batches)
		for range batches {
			<-p.slots
		}
	}
}

// takeQueued groups job with the jobs already queued behind it, in
// queue (= WAL) order, taking more without blocking until the group
// holds wal.GroupRows rows or the queue is empty.
func (p *ingestPipe) takeQueued(job ingestJob) []opmap.SeqBatch {
	batches := []opmap.SeqBatch{{Seq: job.seq, Rows: job.rows}}
	rows := len(job.rows)
	for rows < wal.GroupRows {
		select {
		case next, ok := <-p.jobs:
			if !ok {
				return batches
			}
			batches = append(batches, opmap.SeqBatch{Seq: next.seq, Rows: next.rows})
			rows += len(next.rows)
		default:
			return batches
		}
	}
	return batches
}

// apply folds a run of durable batches into the session in one
// grouped call (AppendSeqs), which advances the ingest sequence in the
// same critical section so a concurrent checkpoint can never snapshot
// the batches' rows without the sequence that makes recovery skip
// them. A rejected batch is logged and skipped — Append validates
// before mutating, so a bad batch leaves the session consistent, and
// replay after a crash reproduces exactly the same decision (replay
// validates each record first and stops at one that no longer
// validates). It returns the number of kernel folds the run took.
func (p *ingestPipe) apply(batches []opmap.SeqBatch) int {
	res := p.sess.AppendSeqs(context.Background(), batches)
	for i, err := range res.Errs {
		if err != nil {
			log.Printf("dataset %q: WAL batch seq %d rejected by session: %v", p.name, batches[i].Seq, err)
		}
	}
	return res.Folds
}

// truncated is called by the checkpointer after a dataset's snapshot
// reached disk: WAL records at or below the snapshot's recorded
// sequence are no longer needed for recovery, so fully-covered sealed
// segments are removed and rotation orphans swept.
func (m *ingestman) truncated(name string, seq uint64) {
	p := m.pipe(name)
	if p == nil || seq == 0 {
		return
	}
	if n, err := p.log.TruncateThrough(seq); err != nil {
		log.Printf("dataset %q: WAL truncate through seq %d: %v", name, seq, err)
	} else if n > 0 {
		log.Printf("dataset %q: removed %d WAL segment(s) covered by snapshot (seq <= %d)", name, n, seq)
	}
	if n, err := atomicfile.CleanupTemps(p.log.Dir()); err != nil {
		log.Printf("dataset %q: sweeping WAL staging files: %v", name, err)
	} else if n > 0 {
		log.Printf("dataset %q: removed %d WAL staging file(s)", name, n)
	}
}

// close drains every pipe — no new appends arrive once the server has
// drained — waits for the workers to finish applying queued batches,
// and closes the WALs.
func (m *ingestman) close() {
	m.mu.Lock()
	pipes := make([]*ingestPipe, 0, len(m.pipes))
	for _, p := range m.pipes {
		pipes = append(pipes, p)
	}
	m.mu.Unlock()
	for _, p := range pipes {
		close(p.jobs)
		<-p.workerDone
		if err := p.log.Close(); err != nil {
			log.Printf("dataset %q: closing WAL: %v", p.name, err)
		}
	}
}
