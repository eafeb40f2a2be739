package rulecube

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"opmap/internal/dataset"
)

// TestWideCSVColumnCounts loads a CSV whose string column has more
// distinct labels than two bytes can code (70,000), so the column
// widens past one byte while it loads. Every row must read back its
// label, and cubes over the wide column, alone and paired with a
// narrow one in either order, must equal a recount of the CSV records
// by label.
func TestWideCSVColumnCounts(t *testing.T) {
	const rows, distinct = 72000, 70000
	var csv strings.Builder
	csv.WriteString("id,g,y\n")
	records := make([][3]string, rows)
	ids := make(map[string]bool)
	for r := range records {
		id := fmt.Sprintf("k%05d", r%distinct)
		if r%97 == 5 {
			id = dataset.MissingLabel
		}
		y := []string{"a", "b"}[r%3%2]
		if r%89 == 3 {
			y = dataset.MissingLabel
		}
		if id != dataset.MissingLabel {
			ids[id] = true
		}
		records[r] = [3]string{id, fmt.Sprintf("g%d", r%5), y}
		fmt.Fprintf(&csv, "%s,%s,%s\n", id, records[r][1], y)
	}
	ds, err := dataset.ReadCSV(strings.NewReader(csv.String()), dataset.CSVOptions{ClassAttr: "y"})
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.Cardinality(0); got != len(ids) || got <= 1<<16 {
		t.Fatalf("id has %d labels, want the CSV's %d (more than 65,536)", got, len(ids))
	}
	if narrow, wide := ds.Column(0).Stored(); wide == nil || narrow != nil {
		t.Fatalf("id column did not widen: %d narrow and %d wide cells", len(narrow), len(wide))
	}
	if _, wide := ds.Column(1).Stored(); wide != nil {
		t.Fatal("the five-label column widened")
	}
	for r, rec := range records {
		if got := ds.Label(r, 0); got != rec[0] {
			t.Fatalf("row %d id reads %q, want %q", r, got, rec[0])
		}
	}

	reqs := [][]int{{0}, {0, 1}, {1, 0}, {1}}
	cubes, err := BuildMany(context.Background(), ds, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, attrs := range reqs {
		want := make(map[string]int64)
		for _, rec := range records {
			key := make([]string, 0, len(attrs)+1)
			for _, a := range attrs {
				key = append(key, rec[a])
			}
			key = append(key, rec[2])
			if !slices.Contains(key, dataset.MissingLabel) {
				want[fmt.Sprint(key)]++
			}
		}
		if got := labelCellsOf(cubes[i]); !reflect.DeepEqual(got, want) {
			t.Errorf("cube %v differs from the recount of the CSV (%d cells, want %d)", attrs, len(got), len(want))
		}
	}
}

// TestFoldRebindsWidenedColumn folds rows whose codes widen a column
// without growing its dictionary (the labels were registered up
// front), so the store's kept fold plan still fits: it must be reused
// and rebound to the wide codes, and every cube must equal a fresh
// count of all rows.
func TestFoldRebindsWidenedColumn(t *testing.T) {
	ctx := context.Background()
	schema := dataset.Schema{ClassIndex: 2, Attrs: []dataset.Attribute{
		{Name: "wide", Kind: dataset.Categorical},
		{Name: "small", Kind: dataset.Categorical},
		{Name: "class", Kind: dataset.Categorical},
	}}
	b, err := dataset.NewBuilder(schema)
	if err != nil {
		t.Fatal(err)
	}
	labels := dataset.NewDictionary()
	for v := 0; v < 300; v++ {
		labels.Code(fmt.Sprintf("v%d", v))
	}
	b.WithDict(0, labels)
	b.WithDict(1, dataset.DictionaryOf("s0", "s1", "s2"))
	b.WithDict(2, dataset.DictionaryOf("c0", "c1"))
	row := func(r int, top int32) []int32 {
		v := int32(r*7) % top
		if r%11 == 4 {
			v = dataset.Missing
		}
		return []int32{v, int32(r % 3), int32(r % 2)}
	}
	for r := 0; r < 500; r++ {
		if err := b.AddCodedRow(row(r, 255), nil); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	st, err := BuildStore(ds, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendRows := func(lo, hi int, top int32) {
		t.Helper()
		for r := lo; r < hi; r++ {
			if err := ds.AppendCodedRow(row(r, top), nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.FoldRows(ctx, lo, hi); err != nil {
			t.Fatal(err)
		}
	}
	appendRows(500, 520, 255)
	plan := st.folder.plan
	if _, wide := ds.Column(0).Stored(); wide != nil {
		t.Fatal("codes below 255 widened the column")
	}
	appendRows(520, 600, 300)
	if _, wide := ds.Column(0).Stored(); wide == nil {
		t.Fatal("code 255 or more left the column narrow")
	}
	if st.folder.plan != plan {
		t.Fatal("the fold re-planned although no dimension grew; the kept plan was not exercised")
	}
	for _, c := range st.Cubes() {
		fresh, err := BuildMany(ctx, ds, [][]int{c.AttrIndices()})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.counts, fresh[0].counts) || c.Total() != fresh[0].Total() {
			t.Errorf("cube %v differs from a fresh count after the widening fold", c.AttrIndices())
		}
	}
}

// labelCellsOf flattens a cube's nonzero cells into a map keyed by the
// cell's labels, class last.
func labelCellsOf(c *Cube) map[string]int64 {
	cells := make(map[string]int64)
	c.ForEach(func(values []int32, class int32, n int64) {
		if n == 0 {
			return
		}
		key := make([]string, 0, len(values)+1)
		for i, v := range values {
			key = append(key, c.Dict(i).Label(v))
		}
		key = append(key, c.ClassDict().Label(class))
		cells[fmt.Sprint(key)] += n
	})
	return cells
}
