package opmap

import (
	"context"
	"fmt"
	"math"
	"sort"

	"opmap/internal/dataset"
	"opmap/internal/discretize"
	"opmap/internal/obsv"
	"opmap/internal/wal"
)

// This file is the streaming-ingestion entry point of the session:
// appended batches fold into the raw dataset, the discretized working
// copy, and every resident cube incrementally — no rebuild — and then
// surgically invalidate only the cached query results that depended
// on an attribute a batch touched. Durability lives a layer up: the
// opmapd daemon writes each batch to the WAL before applying it, so
// the session only has to keep its in-memory state exactly consistent
// with what a replay of that WAL would reproduce. Every append form
// runs one apply path (applyLocked): a run of batches is appended row
// by row and then folded into the engine in one counting-kernel pass.

// IngestFoldsCounterName counts the kernel passes that folded appended
// rows into a session's resident engine: one per applied run of
// batches (AppendSeqs) or single batch, plus one per cut
// re-evaluation that falls inside a run.
const IngestFoldsCounterName = "opmap_ingest_folds_total"

// Append adds rows (textual values, one per attribute in schema order,
// "?" for missing) to the session. See AppendContext.
func (s *Session) Append(rows [][]string) error {
	return s.AppendContext(context.Background(), rows)
}

// AppendContext appends a batch of rows, incrementally maintaining the
// working dataset, all resident cubes (eager store and lazy engine
// alike — non-resident lazy cubes simply materialize later over the
// grown dataset), and the discretization delta counters. Cached
// Compare/Sweep/Impressions results that depend on a touched attribute
// are invalidated; untouched entries survive.
//
// The whole batch is validated before anything mutates, so a malformed
// batch leaves the session untouched. After validation the rows append
// one by one, then the counting kernel folds the appended row range
// into every resident cube in one scan; an engine error there (which
// cannot arise from a validated row) drops the engine rather than
// serve skewed counts. Every N appended rows (SetCutReevaluation) the
// discretizer re-runs over the grown data; changed cuts rebuild the
// working dataset and the engine with the remembered
// Discretize/BuildCubes configurations.
func (s *Session) AppendContext(ctx context.Context, rows [][]string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked(ctx, []SeqBatch{{Rows: rows}}).Errs[0]
}

// SeqBatch is one durable WAL batch: its log sequence and its rows —
// the unit wal.Log.ReplayGroups delivers.
type SeqBatch = wal.Batch

// AppendResult reports a grouped apply (AppendSeqs).
type AppendResult struct {
	// Errs holds one entry per batch, in order: nil when the batch
	// applied, otherwise why the session rejected it.
	Errs []error
	// Folds counts the kernel passes that folded appended rows into
	// the resident engine (see IngestFoldsCounterName).
	Folds int
}

// AppendSeq applies one durable WAL batch: AppendSeqs with a run of
// one, returning that batch's error.
func (s *Session) AppendSeq(ctx context.Context, rows [][]string, seq uint64) error {
	return s.AppendSeqs(ctx, []SeqBatch{{Seq: seq, Rows: rows}}).Errs[0]
}

// AppendSeqs applies a run of durable WAL batches, in order, in one
// critical section, and records the last batch's sequence as the
// session's ingest sequence. Each batch is validated on its own: a
// rejected batch is skipped and reported in Errs, and the rest apply.
// Every accepted row appends, then one kernel fold covers the whole
// appended range — so a run costs one fold, not one per batch — except
// that a due cut re-evaluation (SetCutReevaluation) ends the fold
// group first, so cuts re-evaluate at exactly the row counts a
// one-batch-at-a-time apply reaches. The result equals applying the
// batches one AppendSeq at a time.
//
// Recording the sequence inside the apply's critical section means a
// concurrent snapshot (which runs under the read lock) can never
// capture a batch's rows without the sequence that makes recovery
// skip them — split Append/SetIngestSeq calls would leave a window
// where a checkpoint taken between the two double-applies the batch
// after a crash. The sequence advances past rejected batches too:
// validation runs before any mutation and the rejection is
// deterministic, so replay reproduces the same decision and must not
// re-attempt it. Callers must not cancel ctx mid-run (the WAL apply
// path passes an uncancellable context); a partially applied batch
// would still be marked consumed.
func (s *Session) AppendSeqs(ctx context.Context, batches []SeqBatch) AppendResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := s.applyLocked(ctx, batches)
	if n := len(batches); n > 0 {
		s.ingestSeq = batches[n-1].Seq
	}
	return res
}

// applyLocked is the one apply path behind every append form. Each
// batch validates on its own and its rows append to the datasets;
// the rows appended since the group began fold into the resident
// engine at the end of the run, or earlier at a due cut
// re-evaluation. Callers hold the write lock.
func (s *Session) applyLocked(ctx context.Context, batches []SeqBatch) AppendResult {
	res := AppendResult{Errs: make([]error, len(batches))}
	g := s.newFoldGroup()
	for i, b := range batches {
		if len(b.Rows) == 0 {
			continue
		}
		// Validate pass: width and continuous parses for the whole batch.
		floats, err := s.validateBatch(b.Rows)
		if err != nil {
			res.Errs[i] = err
			continue
		}
		g.members = append(g.members, i)
		if err := s.appendRows(ctx, b.Rows, floats, g.touched); err != nil {
			// Already-applied rows of the batch stay applied and fold
			// with the group; the caller decides whether to re-send the
			// rest.
			res.Errs[i] = err
			continue
		}
		if s.cutReevalEvery <= 0 || s.sinceCutEval < s.cutReevalEvery {
			continue
		}
		if s.endFoldGroup(ctx, g, &res) {
			res.Errs[i] = s.maybeReevalCuts(ctx)
		}
		g = s.newFoldGroup()
	}
	s.endFoldGroup(ctx, g, &res)
	return res
}

// foldGroup is the state of one fold group: the working dataset's row
// count when it began, the attributes its rows touched, and the
// batches whose rows it holds.
type foldGroup struct {
	n0      int
	touched map[int]bool
	members []int
}

func (s *Session) newFoldGroup() *foldGroup {
	g := &foldGroup{touched: make(map[int]bool)}
	if s.ds != nil {
		g.n0 = s.ds.NumRows()
	}
	return g
}

// endFoldGroup ends a fold group: the rows appended since it began
// fold into the resident engine in one kernel pass (the dictionaries
// are fully grown by then, so each cube grows at most once per group)
// and the touched attributes' cached results are invalidated. A fold
// error drops the engine rather than serve skewed counts and is
// reported against every batch of the group, whose result it returns
// false for.
func (s *Session) endFoldGroup(ctx context.Context, g *foldGroup, res *AppendResult) bool {
	folded, err := s.foldAppended(ctx, g.n0)
	if folded {
		res.Folds++
	}
	s.flushTouched(g.touched)
	if err == nil {
		return true
	}
	s.dropEngine()
	res.reject(g.members, err)
	return false
}

// reject records err against each listed batch that has no error yet.
func (r *AppendResult) reject(batches []int, err error) {
	for _, i := range batches {
		if r.Errs[i] == nil {
			r.Errs[i] = err
		}
	}
}

// appendRows appends one validated batch row by row to the raw and
// working datasets, noting the attributes the rows touched and the
// discretization deltas. A cancel between rows stops the batch; rows
// already appended stay appended and consistent.
func (s *Session) appendRows(ctx context.Context, rows [][]string, floats [][]float64, touched map[int]bool) error {
	classIdx := s.raw.ClassIndex()
	restored := s.restoredDiscretized()
	for r, row := range rows {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !restored {
			// Restored sessions share one dataset between raw and working
			// roles; appendWorkingRow grows it with the coded row instead
			// (appending the textual row here would register raw numeric
			// strings as categorical labels in the interval dictionaries).
			// validateBatch already parsed every continuous field.
			if err := s.raw.AppendParsedRow(row, floats[r]); err != nil {
				// Unreachable after validateBatch; fail loudly if it isn't.
				return err
			}
		}
		codes, err := s.appendWorkingRow(row, floats[r])
		if err != nil {
			return err
		}
		for i, c := range codes {
			if i != classIdx && c >= 0 {
				touched[i] = true
			}
		}
		s.noteDeltas(floats[r])
		s.sinceCutEval++
	}
	return nil
}

// ValidateBatch checks a batch against the session's schema — row
// widths and numeric parses — without mutating anything: exactly the
// validation Append runs before applying. A durability layer calls it
// before logging a batch, so a batch that the (possibly asynchronous)
// apply would reject is never acknowledged as durably accepted.
func (s *Session) ValidateBatch(rows [][]string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, err := s.validateBatch(rows)
	return err
}

// restoredDiscretized reports whether the session was restored from a
// snapshot of a discretized dataset: one schema-only dataset serves as
// both raw and working copy, and originally continuous attributes
// survive only as interval columns plus the remembered cut points.
func (s *Session) restoredDiscretized() bool {
	return s.ds == s.raw && len(s.cuts) > 0
}

// binnedAttr reports whether attribute i's appended values are numbers
// that must bin through remembered cut points: a continuous attribute
// of the live schema, or — in a restored session, whose schema holds
// only the discretized intervals — any attribute with remembered cuts.
func (s *Session) binnedAttr(i int) bool {
	if s.raw.Attr(i).Kind == dataset.Continuous {
		return true
	}
	_, ok := s.cuts[s.raw.Attr(i).Name]
	return ok
}

// validateBatch checks every row's width and parses its numeric
// (continuous or restored-interval) fields, returning the parsed
// values per row (nil entries when the schema has no such attributes).
// Nothing mutates.
func (s *Session) validateBatch(rows [][]string) ([][]float64, error) {
	n := s.raw.NumAttrs()
	hasCont := false
	for i := 0; i < n; i++ {
		if s.binnedAttr(i) {
			hasCont = true
			break
		}
	}
	floats := make([][]float64, len(rows))
	for r, row := range rows {
		if len(row) != n {
			return nil, fmt.Errorf("opmap: append row %d has %d values, schema has %d attributes", r, len(row), n)
		}
		if !hasCont {
			continue
		}
		fr := make([]float64, n)
		for i := 0; i < n; i++ {
			if !s.binnedAttr(i) {
				continue
			}
			f, err := dataset.ParseValue(row[i])
			if err != nil {
				return nil, fmt.Errorf("opmap: append row %d attribute %q: cannot parse %q as number", r, s.raw.Attr(i).Name, row[i])
			}
			fr[i] = f
		}
		floats[r] = fr
	}
	return floats, nil
}

// appendWorkingRow folds one validated row into the discretized
// working dataset and returns its coded form (nil when no working
// dataset exists yet — before Discretize on a continuous schema —
// in which case only the raw dataset grows).
func (s *Session) appendWorkingRow(row []string, fr []float64) ([]int32, error) {
	if s.ds == nil {
		return nil, nil
	}
	n := s.raw.NumAttrs()
	codes := make([]int32, n)
	if s.ds == s.raw && len(s.cuts) == 0 {
		// All-categorical schema: the working dataset IS the raw dataset
		// and AppendRow above already grew it; just read the codes back.
		last := s.ds.NumRows() - 1
		for i := 0; i < n; i++ {
			codes[i] = s.ds.Column(i).Codes[last]
		}
		return codes, nil
	}
	// Discretized working copy — a live session's clone of the raw
	// dataset, or the single shared interval dataset of a restored
	// session. Categorical dictionaries stay aligned with raw by
	// registering the same labels in the same order; numeric values bin
	// through the remembered cuts (every bin is pre-registered in the
	// interval dictionary).
	for i := 0; i < n; i++ {
		if s.binnedAttr(i) {
			name := s.raw.Attr(i).Name
			if math.IsNaN(fr[i]) {
				codes[i] = dataset.Missing
				continue
			}
			codes[i] = int32(discretize.BinOf(s.cuts[name], fr[i]))
			continue
		}
		if row[i] == dataset.MissingLabel {
			codes[i] = dataset.Missing
			continue
		}
		codes[i] = s.ds.Column(i).Dict.Code(row[i])
	}
	return codes, s.ds.AppendCodedRow(codes, nil)
}

// foldAppended folds the working dataset's rows from n0 on into the
// resident engine's cubes with the counting kernel, reporting whether
// it ran a fold (and counting it). The fold ignores ctx's
// cancellation: the rows are already appended, so a half-folded
// engine would serve skewed counts. No engine means nothing to
// maintain: cubes built later count the grown dataset anyway.
func (s *Session) foldAppended(ctx context.Context, n0 int) (bool, error) {
	f, ok := s.src.(interface {
		FoldRows(ctx context.Context, lo, hi int) error
	})
	if !ok || s.ds == nil || n0 >= s.ds.NumRows() {
		return false, nil
	}
	obsv.Default().Counter(IngestFoldsCounterName).Inc()
	return true, f.FoldRows(context.WithoutCancel(ctx), n0, s.ds.NumRows())
}

// noteDeltas advances the per-attribute discretization delta counters
// for one appended row: how many non-missing values each continuous
// attribute has gained since its cuts were last (re-)evaluated.
func (s *Session) noteDeltas(fr []float64) {
	if fr == nil {
		return
	}
	for i := 0; i < s.raw.NumAttrs(); i++ {
		if !s.binnedAttr(i) || math.IsNaN(fr[i]) {
			continue
		}
		if s.appendDeltas == nil {
			s.appendDeltas = make(map[string]int)
		}
		s.appendDeltas[s.raw.Attr(i).Name]++
	}
}

// flushTouched invalidates cached results depending on the attributes
// the batch (or the applied prefix of it) touched, then clears the set.
func (s *Session) flushTouched(touched map[int]bool) {
	if len(touched) == 0 {
		return
	}
	attrs := make([]int, 0, len(touched))
	for a := range touched {
		attrs = append(attrs, a)
	}
	sort.Ints(attrs)
	s.results.BumpAttrs(attrs)
	for a := range touched {
		delete(touched, a)
	}
}

// maybeReevalCuts re-runs the remembered discretizer once enough rows
// have accumulated. Unchanged cuts keep the engine and all incremental
// state; changed cuts rebuild the working dataset (re-binning history
// under the new intervals) and, when a BuildCubes configuration is
// remembered, the engine.
func (s *Session) maybeReevalCuts(ctx context.Context) error {
	if s.cutReevalEvery <= 0 || s.sinceCutEval < s.cutReevalEvery {
		return nil
	}
	if s.discOpts == nil || s.raw.AllCategorical() {
		s.sinceCutEval = 0
		return nil
	}
	d, err := s.discretizer(*s.discOpts)
	if err != nil {
		return err
	}
	nds, ncuts, err := discretize.Apply(s.raw, d)
	if err != nil {
		return fmt.Errorf("opmap: cut re-evaluation: %w", err)
	}
	s.sinceCutEval = 0
	s.appendDeltas = nil
	if cutsEqual(ncuts, s.cuts) {
		return nil
	}
	s.ds = nds
	s.cuts = ncuts
	s.dropEngine()
	if s.buildOpts == nil {
		return nil
	}
	return s.buildCubesLocked(ctx, *s.buildOpts)
}

// cutsEqual reports whether two cut-point maps describe the same
// discretization.
func cutsEqual(a, b map[string][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			// Bit-identity, not tolerance: re-running the same
			// deterministic discretizer either reproduces the exact cut
			// or genuinely moved it.
			if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
				return false
			}
		}
	}
	return true
}

// SetCutReevaluation makes the session re-run its remembered
// discretizer every `every` appended rows, adopting changed cut points
// (and rebuilding the engine with the remembered BuildCubes
// configuration) or cheaply confirming the current ones. Zero disables
// re-evaluation (the default): cuts then stay fixed until an explicit
// Discretize.
func (s *Session) SetCutReevaluation(every int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cutReevalEvery = every
}

// IngestSeq returns the WAL sequence number of the last batch the
// serving layer marked applied (zero when the session has never been
// fed from a WAL).
func (s *Session) IngestSeq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ingestSeq
}

// SetIngestSeq records the WAL sequence number of the last applied
// batch. Callers applying WAL batches should prefer AppendSeq, which
// records the sequence atomically with the apply; a separate
// SetIngestSeq leaves a window where a concurrent snapshot captures
// the batch's rows under the previous sequence and recovery
// double-applies the batch.
func (s *Session) SetIngestSeq(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ingestSeq = seq
}

// IngestStats describes the session's streaming-ingestion state.
type IngestStats struct {
	// IngestSeq is the WAL sequence of the last applied batch.
	IngestSeq uint64
	// RowsSinceCutEval counts appended rows since cuts were last
	// (re-)evaluated.
	RowsSinceCutEval int
	// PendingDeltas maps each continuous attribute to the number of
	// non-missing values it gained since its cuts were last evaluated.
	PendingDeltas map[string]int
}

// IngestStats snapshots the session's ingestion counters.
func (s *Session) IngestStats() IngestStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := IngestStats{IngestSeq: s.ingestSeq, RowsSinceCutEval: s.sinceCutEval}
	if len(s.appendDeltas) > 0 {
		st.PendingDeltas = make(map[string]int, len(s.appendDeltas))
		for k, v := range s.appendDeltas {
			st.PendingDeltas[k] = v
		}
	}
	return st
}
