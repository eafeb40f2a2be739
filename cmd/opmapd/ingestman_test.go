package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"opmap"
	"opmap/internal/server"
	"opmap/internal/wal"
)

const ingestTestCSV = `Region,Model,Temp,Outcome
north,m1,10,ok
south,m2,30,fail
east,m1,55,ok
west,m2,80,slow
north,m2,20,fail
south,m1,60,ok
`

func ingestTestSession(t *testing.T) *opmap.Session {
	t.Helper()
	// Force Temp continuous: six rows are too few for the sniffer, and
	// the ingest tests specifically exercise the numeric parse + cut
	// binning path.
	s, err := opmap.LoadCSV(strings.NewReader(ingestTestCSV), opmap.LoadOptions{Continuous: []string{"Temp"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Discretize(opmap.DiscretizeOptions{Manual: map[string][]float64{"Temp": {25, 50, 75}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildCubes(); err != nil {
		t.Fatal(err)
	}
	return s
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestIngestPipelineRecoversAfterRestart drives the daemon's ingest
// pipeline in-process: append batches through the hook, simulate a
// crash by abandoning the first manager, and verify a fresh manager
// over the same WAL directory replays every acknowledged row into a
// fresh session.
func TestIngestPipelineRecoversAfterRestart(t *testing.T) {
	dir := t.TempDir()
	im, err := newIngestman(dir)
	if err != nil {
		t.Fatal(err)
	}
	sess := ingestTestSession(t)
	if err := im.start("d", sess); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial replay", func() bool { return !im.replaying("d") })

	batch := [][]string{
		{"north", "m1", "42", "fail"},
		{"east", "m2", "77", "ok"},
	}
	seq, err := im.append(context.Background(), "d", batch)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Errorf("first batch seq = %d, want 1", seq)
	}
	// A malformed batch fails synchronously without touching the WAL —
	// both a wrong width and a width-correct row whose numeric field
	// cannot parse (which only full validation catches; acking it would
	// durably accept rows the apply must then drop).
	if _, err := im.append(context.Background(), "d", [][]string{{"short"}}); err == nil {
		t.Error("short row accepted")
	}
	if _, err := im.append(context.Background(), "d", [][]string{{"north", "m1", "not-a-number", "ok"}}); err == nil {
		t.Error("unparseable numeric field accepted")
	}
	waitFor(t, "batch applied", func() bool { return sess.IngestSeq() == seq })
	if got := sess.NumRows(); got != 8 {
		t.Errorf("rows after append = %d, want 8", got)
	}
	// Simulate kill -9: the WAL is already fsynced, the manager is
	// simply abandoned without a clean close.

	im2, err := newIngestman(dir)
	if err != nil {
		t.Fatal(err)
	}
	sess2 := ingestTestSession(t)
	if err := im2.start("d", sess2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "restart replay", func() bool { return !im2.replaying("d") })
	if got := sess2.NumRows(); got != 8 {
		t.Errorf("rows after replay = %d, want 8", got)
	}
	if got := sess2.IngestSeq(); got != seq {
		t.Errorf("replayed ingest seq = %d, want %d", got, seq)
	}
	im2.close()
}

// TestIngestReplayIntoRestoredSession exercises the daemon's real
// recovery pairing: a snapshot warm start (LoadSnapshotFile) followed
// by WAL replay of the tail, then live ingest. The restored session
// must bin numeric values through its remembered cuts — not register
// them as new interval-dictionary labels — in both the replayed and
// the live path.
func TestIngestReplayIntoRestoredSession(t *testing.T) {
	walDir := t.TempDir()
	im, err := newIngestman(walDir)
	if err != nil {
		t.Fatal(err)
	}
	sess := ingestTestSession(t)
	if err := im.start("d", sess); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial replay", func() bool { return !im.replaying("d") })

	seq1, err := im.append(context.Background(), "d", [][]string{
		{"north", "m1", "42", "fail"},
		{"east", "m2", "77", "ok"},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first batch applied", func() bool { return sess.IngestSeq() == seq1 })
	// Checkpoint: the snapshot covers seq1, so recovery replays only
	// what follows.
	snapPath := filepath.Join(t.TempDir(), "d.omapsnap")
	if err := sess.SaveSnapshotFile(snapPath, opmap.SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	seq2, err := im.append(context.Background(), "d", [][]string{{"south", "m1", "3.7", "slow"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "second batch applied", func() bool { return sess.IngestSeq() == seq2 })
	// Simulate kill -9 and restart from snapshot + WAL.

	restored, err := opmap.LoadSnapshotFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	im2, err := newIngestman(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := im2.start("d", restored); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "restart replay", func() bool { return !im2.replaying("d") })
	if got := restored.IngestSeq(); got != seq2 {
		t.Errorf("replayed ingest seq = %d, want %d", got, seq2)
	}
	if got := restored.NumRows(); got != 9 {
		t.Errorf("rows after warm start + replay = %d, want 9", got)
	}
	// Live ingest into the restored session takes the same binned path.
	seq3, err := im2.append(context.Background(), "d", [][]string{{"west", "m2", "61", "ok"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "live batch applied", func() bool { return restored.IngestSeq() == seq3 })
	// Manual cuts {25,50,75} give exactly 4 pre-registered intervals;
	// any extra label means a raw numeric string leaked into the domain.
	vals, err := restored.Values("Temp")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 4 {
		t.Errorf("Temp domain after restored-session ingest = %v, want the 4 original intervals", vals)
	}
	im2.close()
}

// TestCheckpointSweepsWALOrphans: after a checkpoint the snapman
// notifies the ingest manager, which truncates covered segments and
// sweeps atomicfile staging orphans left in the WAL directory by a
// crash mid-rotation.
func TestCheckpointSweepsWALOrphans(t *testing.T) {
	walDir := t.TempDir()
	im, err := newIngestman(walDir)
	if err != nil {
		t.Fatal(err)
	}
	sess := ingestTestSession(t)
	if err := im.start("d", sess); err != nil {
		t.Fatal(err)
	}
	defer im.close()
	waitFor(t, "initial replay", func() bool { return !im.replaying("d") })
	seq, err := im.append(context.Background(), "d", [][]string{{"west", "m1", "5", "slow"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "batch applied", func() bool { return sess.IngestSeq() == seq })

	snaps, err := newSnapman(t.TempDir(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	snaps.ingest = im
	snaps.track("d", "h", "cold", sess)

	// Plant a staging orphan as a crash mid-segment-rotation would.
	orphan := filepath.Join(walDir, "d", ".atomictmp-orphan")
	if err := os.WriteFile(orphan, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	snaps.checkpointAll()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("staging orphan survived the checkpoint sweep: %v", err)
	}
	// The checkpointed snapshot carries the ingest sequence.
	info, err := opmap.PeekSnapshotFile(snaps.path("d"))
	if err != nil {
		t.Fatal(err)
	}
	if info.IngestSeq != seq {
		t.Errorf("snapshot ingest seq = %d, want %d", info.IngestSeq, seq)
	}
}

// TestTakeQueuedGroupsInWALOrder: the worker groups the job it took
// with the jobs already queued behind it, in queue order, without
// blocking on an empty queue and stopping once the group reaches
// wal.GroupRows rows; the rest stay queued for the next group.
func TestTakeQueuedGroupsInWALOrder(t *testing.T) {
	p := &ingestPipe{jobs: make(chan ingestJob, ingestQueueDepth)}
	row := []string{"north", "m1", "42", "fail"}
	job := func(seq uint64, n int) ingestJob {
		rows := make([][]string, n)
		for i := range rows {
			rows[i] = row
		}
		return ingestJob{seq: seq, rows: rows}
	}
	p.jobs <- job(2, 10)
	p.jobs <- job(3, 20)
	got := p.takeQueued(job(1, 5))
	if len(got) != 3 || got[0].Seq != 1 || got[1].Seq != 2 || got[2].Seq != 3 {
		t.Fatalf("group = %v, want seqs 1, 2, 3", seqsOf(got))
	}

	half := wal.GroupRows / 2
	p.jobs <- job(5, half)
	p.jobs <- job(6, half)
	p.jobs <- job(7, 1)
	got = p.takeQueued(job(4, 1))
	if want := []uint64{4, 5, 6}; !slices.Equal(seqsOf(got), want) {
		t.Errorf("group = %v, want %v: it should stop once it holds wal.GroupRows rows", seqsOf(got), want)
	}
	if next := <-p.jobs; next.seq != 7 {
		t.Errorf("next queued job = seq %d, want 7", next.seq)
	}
}

func seqsOf(batches []opmap.SeqBatch) []uint64 {
	seqs := make([]uint64, len(batches))
	for i, b := range batches {
		seqs[i] = b.Seq
	}
	return seqs
}

// TestIngestRejectsTrailingGarbage: a numeric field with text after
// the number ("42abc", "42 7") makes POST /api/ingest answer 400, and
// the rejected batch reaches neither the WAL nor the session.
func TestIngestRejectsTrailingGarbage(t *testing.T) {
	dir := t.TempDir()
	im, err := newIngestman(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer im.close()
	sess := ingestTestSession(t)
	if err := im.start(server.DefaultDatasetName, sess); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial replay", func() bool { return !im.replaying(server.DefaultDatasetName) })
	srv, err := server.New(server.Config{Session: sess, Ingest: im.append, IngestStatus: im.replaying})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetReady(true)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/api/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"rows": [["north","m1","42","fail"]]}`); code != http.StatusOK {
		t.Fatalf("valid batch = %d, want 200", code)
	}
	waitFor(t, "batch applied", func() bool { return sess.IngestSeq() == 1 })
	walBytes := func() int64 {
		var n int64
		err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			n += info.Size()
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	before, rows := walBytes(), sess.NumRows()
	for _, bad := range []string{"42abc", "42 7"} {
		body := `{"rows": [["east","m2","12","ok"],["north","m1","` + bad + `","fail"]]}`
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("batch with Temp %q = %d, want 400", bad, code)
		}
	}
	if got := walBytes(); got != before {
		t.Errorf("rejected batches changed the WAL: %d bytes, was %d", got, before)
	}
	if sess.NumRows() != rows || sess.IngestSeq() != 1 {
		t.Errorf("rejected batches changed the session: %d rows at seq %d, want %d at 1", sess.NumRows(), sess.IngestSeq(), rows)
	}
	if code := post(`{"rows": [["east","m2","12","ok"]]}`); code != http.StatusOK {
		t.Fatalf("valid batch after rejections = %d, want 200", code)
	}
	waitFor(t, "second batch applied", func() bool { return sess.IngestSeq() == 2 })
}

// TestReplayStopsAtRecordThatNoLongerValidates: a WAL record acked by
// a build that read "1.5abc" as 1.5 fails the replay instead of being
// dropped. The records before it apply, the ingest sequence stays
// below it, and the dataset keeps refusing live ingest.
func TestReplayStopsAtRecordThatNoLongerValidates(t *testing.T) {
	dir := t.TempDir()
	lg, err := wal.Open(filepath.Join(dir, "d"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, temp := range []string{"42", "1.5abc", "77"} {
		if _, err := lg.Append(wal.EncodeRows([][]string{{"north", "m1", temp, "fail"}})); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	im, err := newIngestman(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer im.close()
	sess := ingestTestSession(t)
	rows := sess.NumRows()
	if err := im.start("d", sess); err != nil {
		t.Fatal(err)
	}
	select {
	case <-im.pipe("d").workerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("replay neither failed nor finished")
	}
	if !im.replaying("d") {
		t.Error("dataset went live after a replay failure")
	}
	if got := sess.IngestSeq(); got != 1 {
		t.Errorf("ingest seq = %d, want 1 (the record before the bad one)", got)
	}
	if got := sess.NumRows(); got != rows+1 {
		t.Errorf("rows = %d, want %d", got, rows+1)
	}
	if _, err := im.append(context.Background(), "d", [][]string{{"east", "m2", "12", "ok"}}); err != server.ErrBackpressure {
		t.Errorf("live append after a failed replay = %v, want backpressure", err)
	}
}
