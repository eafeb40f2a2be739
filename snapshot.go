package opmap

import (
	"fmt"
	"io"
	"time"

	"opmap/internal/engine"
	"opmap/internal/rulecube"
	"opmap/internal/snapshot"
)

// Session snapshots: the durable form of a served session. An eager
// session snapshots its full cube store and can be reloaded standalone
// (LoadSnapshot) with zero cube builds; a lazy session snapshots the
// cubes resident at the time, which a fresh lazy session over the same
// data absorbs via SeedSnapshotFile. Either way the write is atomic, so
// a crash mid-checkpoint never clobbers the previous good snapshot.

// SnapshotOptions configures SaveSnapshot.
type SnapshotOptions struct {
	// SourceHash records the content identity of the session's source
	// data (HashSourceFile / HashSourceString) so loaders can detect a
	// snapshot gone stale against edited source. Empty leaves staleness
	// undetectable — loader policy decides whether to trust it.
	SourceHash string
}

// SnapshotInfo summarizes a snapshot file's header (PeekSnapshotFile).
// The header is read without verifying the file's checksum, so treat
// the fields as advisory until LoadSnapshot or SeedSnapshotFile
// succeeds.
type SnapshotInfo struct {
	Version    int
	SourceHash string
	Created    time.Time
	Rows       int
	// Lazy reports whether the snapshot holds a lazy session's resident
	// cubes (seed it) rather than a full eager store (load it).
	Lazy       bool
	CacheBytes int64
	// IngestSeq is the WAL sequence of the last append batch applied
	// before the snapshot; WAL replay resumes at IngestSeq+1.
	IngestSeq uint64
}

// SaveSnapshot persists the session — schema, dictionaries,
// discretization cuts, cubes and engine configuration — to w. Eager
// sessions write every cube; lazy sessions write the resident working
// set. A BuildCubes variant must have run.
func (s *Session) SaveSnapshot(w io.Writer, opts SnapshotOptions) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap, err := s.buildSnapshot(opts)
	if err != nil {
		return err
	}
	return snapshot.Write(w, snap)
}

// SaveSnapshotFile is SaveSnapshot to a file path, written atomically
// (temp file, fsync, rename): a crash mid-write leaves any previous
// snapshot at path intact.
func (s *Session) SaveSnapshotFile(path string, opts SnapshotOptions) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap, err := s.buildSnapshot(opts)
	if err != nil {
		return err
	}
	return snapshot.WriteFile(path, snap)
}

// buildSnapshot assembles the in-memory snapshot for the session's
// current engine. Callers hold at least the read lock.
func (s *Session) buildSnapshot(opts SnapshotOptions) (*snapshot.Snapshot, error) {
	if _, err := s.requireSource(); err != nil {
		return nil, err
	}
	snap := &snapshot.Snapshot{
		SourceHash:  opts.SourceHash,
		CreatedUnix: time.Now().Unix(),
		Rows:        s.numRows(),
		IngestSeq:   s.ingestSeq,
		Cuts:        s.cuts,
		Dataset:     s.ds,
	}
	switch {
	case s.store != nil:
		snap.Mode = snapshot.ModeEager
		snap.Store = s.store
	case s.lazy != nil:
		snap.Mode = snapshot.ModeLazy
		snap.CacheBytes = s.lazy.Budget()
		// The snapshot format holds 1-D and pair cubes; drilled k ≥ 3
		// cubes are left out and recount on demand after a seed.
		var cubes []*rulecube.Cube
		for _, c := range s.lazy.ResidentCubes() {
			if c.NumDims() <= 2 {
				cubes = append(cubes, c)
			}
		}
		store, err := rulecube.AssembleStore(s.ds, s.lazy.Attrs(), cubes)
		if err != nil {
			return nil, fmt.Errorf("opmap: snapshotting lazy engine: %w", err)
		}
		snap.Store = store
	default:
		return nil, fmt.Errorf("opmap: session engine cannot be snapshotted")
	}
	return snap, nil
}

// LoadSnapshot rebuilds a ready-to-serve Session from an eager snapshot
// stream with zero cube builds: the schema-only dataset, cuts and cube
// store come straight from the snapshot. Operations needing raw records
// (MineRules, CompareWhere, re-Discretize) return errors, exactly as
// with OpenCubes. Lazy snapshots cannot stand alone (they hold only a
// resident subset); load the source data and SeedSnapshotFile instead.
func LoadSnapshot(r io.Reader) (*Session, error) {
	snap, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	return sessionFromSnapshot(snap)
}

// LoadSnapshotFile is LoadSnapshot from a file path.
func LoadSnapshotFile(path string) (*Session, error) {
	snap, err := snapshot.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return sessionFromSnapshot(snap)
}

func sessionFromSnapshot(snap *snapshot.Snapshot) (*Session, error) {
	if snap.Mode != snapshot.ModeEager {
		return nil, fmt.Errorf("opmap: %s snapshot holds only resident cubes and cannot serve standalone; rebuild the lazy session from source and seed it with SeedSnapshotFile", snap.Mode)
	}
	return &Session{
		raw:       snap.Dataset,
		ds:        snap.Dataset,
		cuts:      snap.Cuts,
		rowsHint:  snap.Rows,
		ingestSeq: snap.IngestSeq,
		store:     snap.Store,
		src:       engine.NewRestoredEager(snap.Store),
		results:   engine.NewResultCache(0),
	}, nil
}

// SeedSnapshotFile warms a lazy session from a snapshot taken over the
// same source data: the snapshot's cubes are validated against the
// session's dataset and installed in the engine's caches, so their
// first touch is a hit instead of a data pass. The session must be in
// lazy mode (BuildCubesOptions with Lazy). Returns the number of cubes
// seeded. A snapshot that disagrees with the dataset fails without
// mutating the engine — the caller falls back to cold serving.
func (s *Session) SeedSnapshotFile(path string) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.lazy == nil {
		return 0, fmt.Errorf("opmap: SeedSnapshotFile requires a lazy session (BuildCubesOptions with Lazy)")
	}
	snap, err := snapshot.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return s.lazy.SeedCubes(snap.Store.Cubes())
}

// PeekSnapshotFile reads a snapshot file's header only — source hash,
// creation time, row count, engine mode — for a cheap staleness check
// before committing to a full load.
func PeekSnapshotFile(path string) (*SnapshotInfo, error) {
	h, err := snapshot.PeekFile(path)
	if err != nil {
		return nil, err
	}
	return &SnapshotInfo{
		Version:    h.Version,
		SourceHash: h.SourceHash,
		Created:    time.Unix(h.CreatedUnix, 0),
		Rows:       h.Rows,
		Lazy:       h.Mode == snapshot.ModeLazy,
		CacheBytes: h.CacheBytes,
		IngestSeq:  h.IngestSeq,
	}, nil
}

// HashSourceFile returns the content hash of a source data file, the
// value to record in SnapshotOptions.SourceHash and compare against
// SnapshotInfo.SourceHash on the next start.
func HashSourceFile(path string) (string, error) {
	return snapshot.HashFile(path)
}

// HashSourceString is HashSourceFile for generated datasets: hash the
// configuration string that determines the data instead of a file.
func HashSourceString(cfg string) string {
	return snapshot.HashBytes([]byte(cfg))
}
