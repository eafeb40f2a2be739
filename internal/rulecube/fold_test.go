package rulecube

import (
	"context"
	"reflect"
	"testing"
)

// TestStoreFoldAllocsFlat: a steady-state fold keeps its plan and
// scratch and adds in place, so folding 50 rows allocates the same
// number of objects whatever the store's cube count — here 20 against
// 46 attributes (210 against 1,081 cubes).
func TestStoreFoldAllocsFlat(t *testing.T) {
	ctx := context.Background()
	allocs := func(attrs int) float64 {
		ds := randomDatasetMissingClass(t, int64(attrs), 400, attrs, 4, 3, 0.05)
		st, err := BuildStore(ds, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if err := st.FoldRows(ctx, 100, 150); err != nil {
				t.Fatal(err)
			}
		})
	}
	narrow, wide := allocs(20), allocs(46)
	t.Logf("allocations per 50-row fold: %v on 20 attributes, %v on 46", narrow, wide)
	if narrow != wide {
		t.Errorf("50-row fold allocates %v objects on 20 attributes but %v on 46: allocations grow with the cube count", narrow, wide)
	}
}

// TestFoldLayoutMismatchLeavesCounts: a cube counted over a dataset
// with a larger domain cannot take this dataset's rows — the fold
// fails before any count moves.
func TestFoldLayoutMismatchLeavesCounts(t *testing.T) {
	ctx := context.Background()
	small := randomDatasetMissingClass(t, 1, 300, 3, 3, 2, 0.05)
	big := randomDatasetMissingClass(t, 1, 300, 3, 5, 2, 0.05)
	good, err := Build(small, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := Build(big, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	cubes := []*Cube{good, foreign}
	before := make([][]int64, len(cubes))
	totals := make([]int64, len(cubes))
	for i, c := range cubes {
		before[i] = append([]int64(nil), c.counts...)
		totals[i] = c.Total()
	}
	if err := FoldRows(ctx, small, cubes, 0, small.NumRows()); err == nil {
		t.Fatal("folding into a cube of another layout succeeded")
	}
	for i, c := range cubes {
		if !reflect.DeepEqual(c.counts, before[i]) || c.Total() != totals[i] {
			t.Errorf("failed fold changed cube %v", c.AttrIndices())
		}
	}
}
