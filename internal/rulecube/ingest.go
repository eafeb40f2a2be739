package rulecube

import (
	"context"
	"fmt"

	"opmap/internal/dataset"
)

// This file is the incremental-maintenance path behind streaming
// ingestion: contingency counts are additive, so appended rows fold
// into a materialized cube by counting just those rows with the shared
// scan and adding the counted cells straight into the cube, instead of
// a rebuild. The only structural wrinkle is dictionary growth — cubes
// share their dictionaries with the dataset, so when an appended row
// registers a new label the cube's dims lag the dictionary until
// SyncDims re-lays the counts array out for the larger domain.

// SyncDims grows the cube's dimensions (and class count) to match its
// dictionaries after appended rows registered new labels, re-laying out
// the counts array. Existing cells keep their coordinates; new cells
// start at zero. Dictionaries only grow, so this is monotone; a no-op
// that allocates nothing when nothing changed, which is the steady
// state.
func (c *Cube) SyncDims() {
	changed := c.classDict.Len() > c.numClasses
	for i, d := range c.dicts {
		if syncedDim(d, c.dims[i]) != c.dims[i] {
			changed = true
		}
	}
	if !changed {
		return
	}
	newDims := make([]int, len(c.dims))
	for i, d := range c.dicts {
		newDims[i] = syncedDim(d, c.dims[i])
	}
	newClasses := max(c.classDict.Len(), c.numClasses)
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

// syncedDim is the size a dimension of current size dim grows to for
// dictionary d: never smaller, and an empty domain still needs one
// slot, mirroring Build.
func syncedDim(d *dataset.Dictionary, dim int) int {
	return max(d.Len(), 1, dim)
}

// folder folds appended row ranges into a fixed list of cubes over one
// dataset (sharing its dictionaries). It keeps its scan plan, and the
// plan's one scratch array, between folds: the array comes back
// zeroed after every fold, and the plan is rebuilt only when appended
// rows grew a dimension. A steady-state fold therefore allocates
// nothing per cube.
type folder struct {
	ds    *dataset.Dataset
	cubes []*Cube
	reqs  [][]int
	plan  *batchPlan
}

// newFolder returns a folder for cubes, which must be over ds.
func newFolder(ds *dataset.Dataset, cubes []*Cube) *folder {
	reqs := make([][]int, len(cubes))
	for i, c := range cubes {
		reqs[i] = c.attrIdx
	}
	return &folder{ds: ds, cubes: cubes, reqs: reqs}
}

// fold adds rows [lo, hi) into every cube in place (see FoldRows).
func (f *folder) fold(ctx context.Context, lo, hi int) error {
	if lo >= hi || len(f.cubes) == 0 {
		return nil
	}
	if err := f.prepare(); err != nil {
		return err
	}
	defer clear(f.plan.buf)
	if err := scanAll(ctx, f.ds.Column(f.ds.ClassIndex()).Codes, f.plan, lo, hi); err != nil {
		return err
	}
	f.plan.extractInto(f.cubes)
	return nil
}

// prepare grows every cube to its dictionaries, re-plans when the
// kept plan no longer fits the dataset (or rebinds it to the current
// columns), and checks each cube's layout against its route.
func (f *folder) prepare() error {
	for _, c := range f.cubes {
		c.SyncDims()
	}
	if f.plan != nil && f.plan.fits(f.ds) {
		f.plan.bind(f.ds)
	} else {
		if err := validateReqs(f.ds, f.reqs); err != nil {
			return err
		}
		plan, err := planBatch(f.ds, f.ds.NumClasses(), f.reqs)
		if err != nil {
			return err
		}
		f.plan = plan
	}
	for i, r := range f.plan.routes {
		if c := f.cubes[i]; !f.plan.layoutMatches(r, c) {
			return fmt.Errorf("rulecube: cannot fold into cube %v: layout %v × %d classes differs from the dataset's", c.attrNames, c.dims, c.numClasses)
		}
	}
	return nil
}

// FoldRows adds rows [lo, hi) of ds — rows appended after the cubes
// were counted — into every cube in place: each cube first grows to
// its dictionaries (SyncDims), then one shared scan counts the range
// into the plan's scratch, and extraction adds each cube's cells
// straight into its counts and raises its total by their sum. Rows
// with a missing class or a missing value in a cube's dimensions are
// skipped, as in any build. The cubes must be over ds (sharing its
// dictionaries): a cube whose layout differs from the plan's fails the
// fold before any count moves, as does a failed or canceled scan.
// Callers still treat any error as fatal to the cubes (the session
// drops and rebuilds its engine). Metrics do not advance: no cube was
// built.
func FoldRows(ctx context.Context, ds *dataset.Dataset, cubes []*Cube, lo, hi int) error {
	return newFolder(ds, cubes).fold(ctx, lo, hi)
}

// FoldRows adds rows [lo, hi) of the store's dataset into every
// materialized cube (see the package-level FoldRows). The store keeps
// one folder over its cubes, in map order (fold order does not change
// counts), until a cube is added. The caller owns concurrency: the
// store is not safe for writes concurrent with reads.
func (st *Store) FoldRows(ctx context.Context, lo, hi int) error {
	if st.folder == nil {
		cubes := make([]*Cube, 0, st.CubeCount())
		st.forEachCube(func(c *Cube) { cubes = append(cubes, c) })
		st.folder = newFolder(st.ds, cubes)
	}
	return st.folder.fold(ctx, lo, hi)
}
