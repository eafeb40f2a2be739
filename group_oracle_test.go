package opmap

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"opmap/internal/rulecube"
	"opmap/internal/snapshot"
)

// groupBatches is a WAL tail for the grouped-apply oracle: a rejected
// batch in the middle, new Region and class labels registered inside a
// fold group, an empty batch, and a Temp of 500 that moves equal-width
// cuts. With re-evaluation every groupReevalRows rows, the boundary
// falls after seq 4, inside the run.
func groupBatches() []SeqBatch {
	more := ingestRows(150)
	shifted := append(append([][]string(nil), more[130:140]...), []string{"west", "m2", "500", "75", "ok"})
	return []SeqBatch{
		{Seq: 1, Rows: more[120:130]},
		{Seq: 2, Rows: ingestBatches[0]}, // new Region label, missing class
		{Seq: 3, Rows: [][]string{{"north", "m1", "not-a-number", "20", "ok"}}},
		{Seq: 4, Rows: shifted},
		{Seq: 5, Rows: ingestBatches[1]}, // new class
		{Seq: 6},
		{Seq: 7, Rows: more[140:150]},
	}
}

const groupReevalRows = 20

// sessionCubes returns a session's resident cubes in a deterministic
// order: the eager store's cubes plus the drilled k ≥ 3 cubes it
// serves, or the lazy engine's resident set.
func sessionCubes(t *testing.T, s *Session, drilled [][]int) []*rulecube.Cube {
	t.Helper()
	if s.lazy != nil {
		return s.lazy.ResidentCubes()
	}
	cubes := s.store.Cubes()
	if drilled != nil {
		nd, err := s.src.Cubes(context.Background(), drilled)
		if err != nil {
			t.Fatal(err)
		}
		cubes = append(cubes, nd...)
	}
	return cubes
}

// snapshotBytes serializes the session with a fixed creation time, so
// two sessions in the same state give the same bytes.
func snapshotBytes(t *testing.T, s *Session) []byte {
	t.Helper()
	s.mu.RLock()
	snap, err := s.buildSnapshot(SnapshotOptions{})
	s.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	snap.CreatedUnix = 0
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppendSeqsMatchPerBatch is the grouped-apply oracle: applying a
// WAL tail as one AppendSeqs run and as one AppendSeq per batch leaves
// every session origin in the same state — the same resident cubes,
// ingest sequence and stats, answers and snapshot bytes — with the
// same per-batch rejections, while the run folds once per cut
// re-evaluation group instead of once per batch.
func TestAppendSeqsMatchPerBatch(t *testing.T) {
	ctx := context.Background()
	base := ingestRows(120)
	drilled := [][]int{{0, 1, 2}, {1, 3, 2, 0}}
	// touch makes every 1-D and pair cube resident, and the drilled
	// k ≥ 3 cubes when drill is set (a lazy session cannot snapshot
	// those).
	touch := func(t *testing.T, s *Session, drill bool) {
		t.Helper()
		for a := 0; a < 4; a++ {
			for b := a + 1; b < 4; b++ {
				if _, err := s.src.Cube2(ctx, a, b); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.src.Cube1(ctx, a); err != nil {
				t.Fatal(err)
			}
		}
		if !drill {
			return
		}
		if _, err := s.src.Cubes(ctx, drilled); err != nil {
			t.Fatal(err)
		}
	}
	// A lazy cache exactly as large as every cube touch() makes
	// resident: the batches' new labels grow the cubes, so the fold's
	// resize evicts.
	probe := loadIngestSession(t, base, true)
	touch(t, probe, false)
	fullLRU := probe.lazy.Stats().CachedBytes
	snap := func(t *testing.T, rows [][]string) string {
		path := fmt.Sprintf("%s/%d.omapsnap", t.TempDir(), len(rows))
		if err := loadIngestSession(t, rows, false).SaveSnapshotFile(path, SnapshotOptions{}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, tc := range []struct {
		name    string
		open    func(t *testing.T) *Session
		drilled [][]int
	}{
		{"eager", func(t *testing.T) *Session {
			s := loadIngestSession(t, base, false)
			touch(t, s, true)
			return s
		}, drilled},
		{"eager-moving-cuts", func(t *testing.T) *Session {
			s, err := LoadCSV(strings.NewReader(ingestCSV(base)), LoadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Discretize(DiscretizeOptions{Method: EqualWidth, Bins: 4}); err != nil {
				t.Fatal(err)
			}
			if err := s.BuildCubes(); err != nil {
				t.Fatal(err)
			}
			return s
		}, nil},
		{"lazy-full-lru", func(t *testing.T) *Session {
			s, err := LoadCSV(strings.NewReader(ingestCSV(base)), LoadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Discretize(manualCuts); err != nil {
				t.Fatal(err)
			}
			if err := s.BuildCubesOptions(ctx, BuildOptions{Lazy: true, CubeCacheBytes: fullLRU}); err != nil {
				t.Fatal(err)
			}
			touch(t, s, false)
			return s
		}, nil},
		{"restored", func(t *testing.T) *Session {
			s, err := LoadSnapshotFile(snap(t, base))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, nil},
		{"merged", func(t *testing.T) *Session {
			s, err := LoadShardSnapshots(snap(t, base[:50]), snap(t, base[50:]))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			per, grp := tc.open(t), tc.open(t)
			cuts := grp.Cuts()["Temp"]
			per.SetCutReevaluation(groupReevalRows)
			grp.SetCutReevaluation(groupReevalRows)
			batches := groupBatches()
			perErrs := make([]error, len(batches))
			for i, b := range batches {
				perErrs[i] = per.AppendSeq(ctx, b.Rows, b.Seq)
			}
			res := grp.AppendSeqs(ctx, batches)
			for i := range batches {
				if fmt.Sprint(res.Errs[i]) != fmt.Sprint(perErrs[i]) {
					t.Errorf("seq %d: grouped error %v, per-batch error %v", batches[i].Seq, res.Errs[i], perErrs[i])
				}
			}
			if perErrs[2] == nil {
				t.Error("the malformed batch (seq 3) was accepted")
			}
			if res.Folds != 2 {
				t.Errorf("grouped apply folded %d times, want 2 (one per side of the re-evaluation boundary)", res.Folds)
			}
			if got, want := grp.IngestSeq(), per.IngestSeq(); got != want || got != 7 {
				t.Errorf("ingest seq: grouped %d, per-batch %d, want 7", got, want)
			}
			if got, want := grp.IngestStats(), per.IngestStats(); !reflect.DeepEqual(got, want) {
				t.Errorf("ingest stats: grouped %+v, per-batch %+v", got, want)
			}
			if got, want := grp.NumRows(), per.NumRows(); got != want {
				t.Errorf("rows: grouped %d, per-batch %d", got, want)
			}
			gc, pc := sessionCubes(t, grp, tc.drilled), sessionCubes(t, per, tc.drilled)
			if len(pc) == 0 {
				t.Fatal("no resident cubes to compare")
			}
			if !reflect.DeepEqual(gc, pc) {
				t.Errorf("resident cubes differ: grouped %d cubes, per-batch %d", len(gc), len(pc))
			}
			if !bytes.Equal(snapshotBytes(t, grp), snapshotBytes(t, per)) {
				t.Error("snapshots differ")
			}
			switch tc.name {
			case "eager-moving-cuts":
				if reflect.DeepEqual(grp.Cuts()["Temp"], cuts) {
					t.Error("the re-evaluation boundary did not move the equal-width cuts")
				}
			case "lazy-full-lru":
				if grp.lazy.Stats().Evictions == 0 {
					t.Error("the grown cubes evicted nothing from the full cache")
				}
			}
			c1, s1, i1 := queryTriple(t, grp)
			c2, s2, i2 := queryTriple(t, per)
			if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(i1, i2) {
				t.Error("answers differ between grouped and per-batch apply")
			}
		})
	}
}
