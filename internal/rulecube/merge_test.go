package rulecube

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/obsv"
)

// shardDataset builds a three-attribute categorical dataset (A1, A2,
// class C) from "a1 a2 c" rows with fresh dictionaries, so two shards
// built from different row sets see genuinely different code orders.
func shardDataset(t *testing.T, rows ...string) *dataset.Dataset {
	t.Helper()
	b, err := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "A1", Kind: dataset.Categorical},
			{Name: "A2", Kind: dataset.Categorical},
			{Name: "C", Kind: dataset.Categorical},
		},
		ClassIndex: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := b.AddRow(strings.Fields(r)); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// Shard rows chosen so the two shards have disjoint first-appearance
// orders: shard2 opens with labels shard1 never saw.
var (
	shard1Rows = []string{
		"a e yes", "a e no", "b f yes", "a g no", "b e yes", "? f no",
	}
	shard2Rows = []string{
		"c h no", "c e maybe", "a h yes", "d f no", "c ? maybe",
	}
)

func TestAddCounts(t *testing.T) {
	dst := []int64{1, 2, 3, 4}
	AddCounts(dst, []int64{10, 0, 5})
	if want := []int64{11, 2, 8, 4}; !reflect.DeepEqual(dst, want) {
		t.Fatalf("dst = %v, want %v", dst, want)
	}
}

// TestStoreMergeMatchesSinglePass is the core merge oracle: build
// stores over two shards with non-identical dictionaries, merge, and
// require the result DeepEqual to the single-pass store over the
// concatenated rows — dataset included.
func TestStoreMergeMatchesSinglePass(t *testing.T) {
	ds1 := shardDataset(t, shard1Rows...)
	ds2 := shardDataset(t, shard2Rows...)
	st1, err := BuildStore(ds1, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := BuildStore(ds2, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st1.Merge(st2); err != nil {
		t.Fatal(err)
	}

	all := append(append([]string(nil), shard1Rows...), shard2Rows...)
	dsAll := shardDataset(t, all...)
	want, err := BuildStore(dsAll, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The merged store's dataset holds only shard1's rows (stores merge
	// counts, not rows — the session layer appends rows separately), so
	// append shard2's remapped rows before the full comparison.
	rm, err := st1.Dataset().UnionDicts(ds2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st1.Dataset().AppendRemapped(ds2, rm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st1, want) {
		t.Fatalf("merged store differs from single-pass store\n got: %+v\nwant: %+v", st1.Stats(), want.Stats())
	}
}

// TestStoreMergeZeroRowShard checks both positions of an empty shard:
// empty-into-populated and populated-into-empty.
func TestStoreMergeZeroRowShard(t *testing.T) {
	buildPair := func() (*Store, *Store, *Store) {
		t.Helper()
		empty, err := BuildStore(shardDataset(t), StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		full, err := BuildStore(shardDataset(t, shard1Rows...), StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := BuildStore(shardDataset(t, shard1Rows...), StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return empty, full, want
	}

	t.Run("empty destination", func(t *testing.T) {
		empty, full, want := buildPair()
		if err := empty.Merge(full); err != nil {
			t.Fatal(err)
		}
		rm, err := empty.Dataset().UnionDicts(full.Dataset())
		if err != nil {
			t.Fatal(err)
		}
		if err := empty.Dataset().AppendRemapped(full.Dataset(), rm); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(empty, want) {
			t.Fatalf("empty-destination merge differs from single-pass store")
		}
	})
	t.Run("empty source", func(t *testing.T) {
		empty, full, want := buildPair()
		if err := full.Merge(empty); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(full, want) {
			t.Fatalf("empty-source merge changed the store")
		}
	})
}

func TestStoreMergeSchemaMismatchNamesAttribute(t *testing.T) {
	st1, err := BuildStore(shardDataset(t, shard1Rows...), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := dataset.NewBuilder(dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "A1", Kind: dataset.Categorical},
			{Name: "B2", Kind: dataset.Categorical},
			{Name: "C", Kind: dataset.Categorical},
		},
		ClassIndex: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddRow([]string{"a", "e", "yes"}); err != nil {
		t.Fatal(err)
	}
	other, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	st2, err := BuildStore(other, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	err = st1.Merge(st2)
	if err == nil || !strings.Contains(err.Error(), `"A2"`) {
		t.Fatalf("err = %v, want mismatch naming \"A2\"", err)
	}
}

func TestCubeMergeDimensionMismatch(t *testing.T) {
	ds := shardDataset(t, shard1Rows...)
	c1, err := Build(ds, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Build(ds, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Merge(c2, nil, nil); err == nil {
		t.Fatal("merging cubes over different attributes should fail")
	}
	pair, err := Build(ds, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Merge(pair, nil, nil); err == nil {
		t.Fatal("merging cubes of different dimensionality should fail")
	}
}

// TestStoreFoldRowsMatchesRecount: after appended batches fold in,
// every cube — the store's 1-D and pair cubes and a separately built
// 3-D cube — equals a brute-force recount of the grown dataset. The
// batches register new labels and a new class mid-batch and carry
// missing values and a missing class.
func TestStoreFoldRowsMatchesRecount(t *testing.T) {
	ctx := context.Background()
	ds := shardDataset(t, shard1Rows...)
	st, err := BuildStore(ds, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tri, err := Build(ds, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	scans := obsv.Default().Counter(CubeScansCounterName)
	s0 := scans.Value()
	for _, batch := range [][]string{
		{"a f no", "z e yes", "z ? new", "b g ?"},
		{"? ? yes", "c h no", "a h new", "b e ?"},
	} {
		n0 := ds.NumRows()
		for _, row := range batch {
			if err := ds.AppendRow(strings.Fields(row)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.FoldRows(ctx, n0, ds.NumRows()); err != nil {
			t.Fatal(err)
		}
		if err := FoldRows(ctx, ds, []*Cube{tri}, n0, ds.NumRows()); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range append(st.Cubes(), tri) {
		want, total := naiveCells(ds, c.AttrIndices())
		if c.Total() != total || !reflect.DeepEqual(cubeCells(c), want) {
			t.Errorf("cube %v differs from the brute-force recount after ingest", c.AttrIndices())
		}
		for pos, a := range c.AttrIndices() {
			if c.Dim(pos) != ds.Cardinality(a) {
				t.Errorf("cube %v dimension %d = %d, dictionary has %d", c.AttrIndices(), pos, c.Dim(pos), ds.Cardinality(a))
			}
		}
		if c.NumClasses() != ds.NumClasses() {
			t.Errorf("cube %v has %d classes, dataset %d", c.AttrIndices(), c.NumClasses(), ds.NumClasses())
		}
	}
	if d := scans.Value() - s0; d != 0 {
		t.Errorf("ingest advanced the scan counter by %d; folding is not a build", d)
	}
}

// TestFoldRowsCanceledLeavesCubesUntouched: a canceled fold merges
// nothing.
func TestFoldRowsCanceledLeavesCubesUntouched(t *testing.T) {
	ds := shardDataset(t, shard1Rows...)
	st, err := BuildStore(ds, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n0 := ds.NumRows()
	if err := ds.AppendRow([]string{"a", "e", "yes"}); err != nil {
		t.Fatal(err)
	}
	var before []int64
	for _, c := range st.Cubes() {
		before = append(before, c.Total())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := st.FoldRows(ctx, n0, ds.NumRows()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, c := range st.Cubes() {
		if c.Total() != before[i] {
			t.Errorf("canceled fold changed cube %v", c.AttrIndices())
		}
	}
}
