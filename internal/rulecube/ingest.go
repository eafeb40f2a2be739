package rulecube

import (
	"context"

	"opmap/internal/dataset"
)

// This file is the incremental-maintenance path behind streaming
// ingestion: contingency counts are additive, so appended rows fold
// into a materialized cube by counting just those rows with the shared
// scan and summing the result in, instead of a rebuild. The only
// structural wrinkle is dictionary growth — cubes share their
// dictionaries with the dataset, so when an appended row registers a
// new label the cube's dims lag the dictionary until SyncDims re-lays
// the counts array out for the larger domain.

// SyncDims grows the cube's dimensions (and class count) to match its
// dictionaries after appended rows registered new labels, re-laying out
// the counts array. Existing cells keep their coordinates; new cells
// start at zero. Dictionaries only grow, so this is monotone; a no-op
// when nothing changed, which is the steady state.
func (c *Cube) SyncDims() {
	newDims := make([]int, len(c.dims))
	changed := false
	for i, d := range c.dicts {
		card := d.Len()
		if card == 0 {
			card = 1 // mirror Build: an empty domain still needs a slot
		}
		if card < c.dims[i] {
			card = c.dims[i]
		}
		if card != c.dims[i] {
			changed = true
		}
		newDims[i] = card
	}
	newClasses := c.classDict.Len()
	if newClasses < c.numClasses {
		newClasses = c.numClasses
	}
	if !changed && newClasses == c.numClasses {
		return
	}
	size := newClasses
	for _, d := range newDims {
		size *= d
	}
	nc := make([]int64, size)
	// Walk every old cell, decompose its flat index into coordinates
	// under the old shape, and recompose under the new shape.
	for flat, v := range c.counts {
		if v == 0 {
			continue
		}
		rem := flat
		class := rem % c.numClasses
		rem /= c.numClasses
		idx := 0
		// Coordinates come out last-dimension-first; fold them into the
		// new flat index by walking dims backwards with place values.
		place := 1
		for i := len(c.dims) - 1; i >= 0; i-- {
			coord := rem % c.dims[i]
			rem /= c.dims[i]
			idx += coord * place
			place *= newDims[i]
		}
		nc[idx*newClasses+class] = v
	}
	c.dims = newDims
	c.numClasses = newClasses
	c.counts = nc
}

// FoldRows adds rows [lo, hi) of ds — rows appended after the cubes
// were counted — into every cube: one shared scan counts the range per
// cube (each cube's own dimension order), then Cube.Merge sums each
// count in, growing the cube first where the rows registered new
// labels. Rows with a missing class or a missing value in a cube's
// dimensions are skipped, as in any build. The cubes must be over ds
// (sharing its dictionaries). A failed or canceled scan leaves every
// cube untouched; a merge error can leave earlier cubes updated, so
// callers treat any error as fatal to the cubes (the session drops and
// rebuilds its engine). Metrics do not advance: no cube was built.
func FoldRows(ctx context.Context, ds *dataset.Dataset, cubes []*Cube, lo, hi int) error {
	if lo >= hi || len(cubes) == 0 {
		return nil
	}
	reqs := dimLists(cubes)
	if err := validateReqs(ds, reqs); err != nil {
		return err
	}
	counted, _, err := countRange(ctx, ds, reqs, lo, hi)
	if err != nil {
		return err
	}
	return mergeEach(cubes, counted)
}

// dimLists returns each cube's condition attributes in cube order.
func dimLists(cubes []*Cube) [][]int {
	reqs := make([][]int, len(cubes))
	for i, c := range cubes {
		reqs[i] = c.attrIdx
	}
	return reqs
}

// mergeEach sums counted[i] into cubes[i] for every i.
func mergeEach(cubes, counted []*Cube) error {
	for i, c := range cubes {
		if err := c.Merge(counted[i], nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// FoldRows adds rows [lo, hi) of the store's dataset into every
// materialized cube (see the package-level FoldRows). The caller owns
// concurrency: the store is not safe for writes concurrent with reads.
func (st *Store) FoldRows(ctx context.Context, lo, hi int) error {
	return FoldRows(ctx, st.ds, st.Cubes(), lo, hi)
}
